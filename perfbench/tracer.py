"""Spans around tglab's public entry points, installed from outside.

``install()`` wraps every public module-level function of each layer
module, plus the methods in ``METHODS``, and rebinds the wrapper in every
loaded ``tglab.*`` namespace (and in module-level dicts such as
``cli.COMMANDS``), because ``cli`` and ``semigroups`` import by name.
Per-element predicates (``HForm.contains``, ``AffineConstraint.value``)
are methods and stay unwrapped: they run hundreds of thousands of times
per call and would swamp the timing.

Spans are aggregated in memory while the program runs:

- per function: calls, inclusive seconds (outermost frame only when the
  function recurses), self seconds, and points returned (for
  ``lattice_points``);
- per layer: calls entering the layer from another layer, and self
  seconds, the time spent in the layer's spans minus the time covered by
  their child spans.
"""

from __future__ import annotations

import functools
import inspect
import sys
from time import perf_counter

LAYERS = (
    "intlinalg", "rationalcone", "polytopes", "toricfan", "semigroups",
    "weylops", "cohomring", "lgfamily", "qdmcheck", "models", "cli",
)
METHODS = {"intlinalg": ("IntegerMatrix.det",)}
COUNTS_POINTS = {"polytopes.lattice_points"}


class Tracer:
    def __init__(self):
        self.funcs: dict[str, list] = {}   # name -> [calls, incl_s, self_s, points]
        self.layers: dict[str, list] = {}  # layer -> [calls, self_s]
        # Each frame is [layer, seconds covered by child spans].
        self._stack: list[list] = [[None, 0.0]]
        self._active: dict[str, int] = {}

    def snapshot(self) -> dict:
        return {
            "funcs": {k: list(v) for k, v in self.funcs.items()},
            "layers": {k: list(v) for k, v in self.layers.items()},
        }

    def wrap(self, name: str, layer: str, fn):
        stack, active = self._stack, self._active
        funcs, layers = self.funcs, self.layers
        count_points = name in COUNTS_POINTS

        def span(*args, **kwargs):
            parent = stack[-1]
            frame = [layer, 0.0]
            stack.append(frame)
            depth = active.get(name, 0)
            active[name] = depth + 1
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                stack.pop()
                active[name] = depth
                parent[1] += dt
                f = funcs.get(name)
                if f is None:
                    f = funcs[name] = [0, 0.0, 0.0, 0]
                lay = layers.get(layer)
                if lay is None:
                    lay = layers[layer] = [0, 0.0]
                f[0] += 1
                if depth == 0:
                    f[1] += dt
                f[2] += dt - frame[1]
                lay[1] += dt - frame[1]
                if parent[0] != layer:
                    lay[0] += 1
            if count_points:
                f[3] += len(result)
            return result

        return functools.wraps(fn)(span)

    def install(self):
        """Wrap the entry points of every layer; tglab must be imported."""
        wrappers = {}
        for layer in LAYERS:
            mod = sys.modules[f"tglab.{layer}"]
            for attr, obj in vars(mod).items():
                if (attr.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != mod.__name__
                        or inspect.isgeneratorfunction(obj)):
                    continue
                wrappers[id(obj)] = self.wrap(f"{layer}.{attr}", layer, obj)
            for path in METHODS.get(layer, ()):
                cls_name, meth = path.split(".")
                cls = getattr(mod, cls_name)
                obj = vars(cls)[meth]
                wrapper = self.wrap(f"{layer}.{path}", layer, obj)
                setattr(cls, meth, wrapper)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "tglab" or mod_name.startswith("tglab.")):
                continue
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrappers:
                    setattr(mod, attr, wrappers[id(obj)])
                elif isinstance(obj, dict):
                    for key, value in list(obj.items()):
                        if id(value) in wrappers:
                            obj[key] = wrappers[id(value)]
