"""Every function of the package runs when the commands and the demos run.

The test runs, in-process under ``sys.setprofile``, every command and gkz
variant on specs/*.json (human and ``--json``), and every demo.  A
function or method of ``src/tglab`` that this run never enters fails the
test, whatever the tests themselves call.  Dunder methods are exempt: Python calls them.
"""

import ast
import io
import runpy
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from tglab import cli

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "tglab"
VARIANTS = ("plain", "homog", "hat", "star", "qdm")


def _defined():
    """(file, first line) -> "path:line name" of every non-dunder function;
    the first line of a decorated function is its first decorator's."""
    out = {}
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if node.name.startswith("__") and node.name.endswith("__"):
                    continue
                first = min([node.lineno] + [d.lineno for d in node.decorator_list])
                out[str(path), first] = f"{path.relative_to(ROOT)}:{node.lineno} {node.name}"
    return out


def _command_lines():
    for spec in sorted((ROOT / "specs").glob("*.json")):
        arg = ["--spec", f"specs/{spec.name}"]
        calls = [[cmd] + arg for cmd in ("validate", "construct", "semigroup", "lg", "ifun")]
        calls += [["gkz"] + arg + ["--gkz-variant", v] for v in VARIANTS]
        for argv in calls:
            yield argv
            yield argv + ["--json"]


def test_every_function_runs(monkeypatch):
    monkeypatch.chdir(ROOT)
    entered = set()

    def profile(frame, event, arg):
        if event == "call":
            code = frame.f_code
            entered.add((code.co_filename, code.co_firstlineno))

    sink = io.StringIO()
    sys.setprofile(profile)
    try:
        with redirect_stdout(sink), redirect_stderr(sink):
            for argv in _command_lines():
                cli.main(argv)
            for demo in sorted((ROOT / "demos").glob("*.py")):
                runpy.run_path(str(demo), run_name="__main__")
    finally:
        sys.setprofile(None)
    entered = {(str(Path(name).resolve()), line) for name, line in entered}
    dead = sorted(where for key, where in _defined().items() if key not in entered)
    assert not dead, "never entered by a command or a demo:\n" + "\n".join(dead)
