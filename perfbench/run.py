#!/usr/bin/env python3
"""tglab benchmark: time to verdict per CLI call, and per-layer spans.

    python3 perfbench/run.py --workload cli-lg --seed 0 --seconds 60 --trace 0
    python3 perfbench/run.py --workload all            # every workload, in turn

Run it from anywhere; it works on the checkout it lives in, whose
``src/`` holds the tglab package (not installed: children run
``python -m tglab.cli`` with ``src`` on PYTHONPATH).

A run times set-up, a fresh interpreter running ``import tglab.cli``
(``setup_s``), a few times at the start and then every few seconds between
calls, so its samples span the run as the calls do.  It runs the workload
in a closed loop, one child process at a time, starting another pass only
while the pass fits in ``--seconds``.  A pass of a CLI workload launches one
``python -m tglab.cli <argv> --json`` process per call and times it from
launch to exit.  A unit of the ``session`` workload is one process that
imports tglab once and calls ``tglab.cli.main`` twice over the same list;
each of its two passes is a pass.  ``--seed`` drives the call order of
every pass and the ``lg --seed`` values, which differ from unit to unit
(see workloads.lg_seed).  Every call is checked against records.json (see
workloads.check).

With ``--trace 1`` units alternate untraced and traced, and a traced unit
reuses the ``lg`` seed of the untraced unit before it.  A traced call runs
child.py, which wraps the public entry points of every layer and
writes its spans at exit; its stdout must equal the untraced call's byte
for byte.  Counts come from the first traced unit, times are medians
over traced units.

Human-readable lines come first; the last stdout line is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import select
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from importlib import metadata
from pathlib import Path

import workloads as wl
from tracer import LAYERS

ROOT = wl.BENCH_DIR.parent
CHILD = wl.BENCH_DIR / "child.py"
PY = sys.executable
# Children cache bytecode, as Python does by default, whatever the caller's
# environment says: otherwise every call recompiles tglab and set-up time
# would depend on who runs the benchmark.
ENV = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
ENV["PYTHONPATH"] = str(ROOT / "src")
CALL_TIMEOUT_S = 60.0
SESSION_TIMEOUT_S = 150.0
RUN_LIMIT_S = 150.0  # past this, calls time out at once, so a run ends within 180 s
SESSION_PASSES = 2
SETUP_SAMPLES = 5   # per probe statement, at the start of a run
PROBE_EVERY_S = 3.0

# Reported in the result, and bounded in BENCHMARK.json.
END_TO_END = {"setup_s": "s", "pass_s": "s", "call_s.p90": "s", "peak_rss_mb": "MB"}
# Printed only.  On the four-call workloads the median falls between two
# different commands (on cli-lg it spread up to 0.22 of its median over ten
# seeds), and the slowest call is one sample per pass, which follows the
# shared host's slow spells (up to 0.18 on session, more than pass_s).
PRINTED_ONLY = {"call_s.p50": "s", "slowest_call_s": "s"}
FUNC_METRICS = [
    ("semigroups.saturation_check", "s"),
    ("semigroups.gorenstein_shift_check", "s"),
    ("semigroups.interior_shift_check_ungraded", "s"),
    ("semigroups.semigroup_contains", "calls"),
    ("polytopes.lattice_points", "calls"), ("polytopes.lattice_points", "points"),
    ("polytopes.lattice_points", "s"),
    ("polytopes.faces", "s"), ("polytopes.normalized_volume", "s"),
    ("lgfamily.classify_parameter", "s"),
    ("lgfamily.pow_mod_array", "calls"), ("lgfamily.pow_mod_array", "s"),
    ("lgfamily.jacobian_quotient_dim", "s"),
    ("rationalcone.cone_hform", "calls"), ("rationalcone.cone_hform", "s"),
    ("rationalcone.nullspace", "calls"),
    ("intlinalg.smith_normal_form", "calls"), ("intlinalg.IntegerMatrix.det", "calls"),
    ("models.build_model", "s"), ("cohomring.build_ring", "s"),
    ("qdmcheck.i_function", "s"), ("qdmcheck.annihilation_check", "s"),
    ("qdmcheck.quot_landing_check", "s"),
]
FUNC_FIELD = {"calls": 0, "s": 1, "points": 3}
SETUP_PROBES = {
    "import.python_s": "pass",
    "import.numpy_s": "import numpy",
    "import.tglab_cli_s": "import tglab.cli",
}


def per_layer_units() -> dict[str, str]:
    units = {}
    for layer in LAYERS + ("import",):
        units[f"{layer}.calls"] = "count"
        units[f"{layer}.self_s"] = "s"
    for name, field in FUNC_METRICS:
        units[f"{name}.{field}"] = "s" if field == "s" else "count"
    units.update(dict.fromkeys(SETUP_PROBES, "s"))
    units["trace.overhead_ratio"] = "ratio"
    return units


@dataclass
class Proc:
    """Outcome of one child process."""
    wall: float
    rc: int | None
    stdout: bytes
    stderr: bytes
    maxrss_mb: float
    launched_at: float


def spawn(cmd: list[str], workdir: Path, timeout: float) -> Proc:
    """Run one child to exit and time it from launch; rc is None on timeout."""
    out_path, err_path = workdir / "stdout", workdir / "stderr"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        launched_at = time.monotonic()
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=ENV, stdin=subprocess.DEVNULL,
                                stdout=out, stderr=err)
        pidfd = os.pidfd_open(proc.pid)
        try:
            ready, _, _ = select.select([pidfd], [], [], timeout)
            if not ready:
                proc.kill()
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            os.close(pidfd)
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Proc(wall, proc.returncode if ready else None, out_path.read_bytes(),
                err_path.read_bytes(), usage.ru_maxrss / 1024, launched_at)


@dataclass
class Call:
    template: str
    wall: float
    error: str | None


@dataclass
class Unit:
    """One pass of a CLI workload, or one session process (two passes)."""
    traced: bool
    passes: list[list[Call]]
    maxrss_mb: float
    spans: dict          # {"funcs": ..., "layers": ...}, filled when traced
    import_s: list[float]  # launch to imported, per traced process

    @property
    def calls(self):
        return [c for p in self.passes for c in p]

    @property
    def busy_s(self):
        return sum(c.wall for c in self.calls)


def merge_spans(total: dict, part: dict):
    for kind in ("funcs", "layers"):
        dst = total.setdefault(kind, {})
        for name, values in part[kind].items():
            acc = dst.setdefault(name, [0] * len(values))
            for i, v in enumerate(values):
                acc[i] += v


class Runner:
    def __init__(self, workload: str, seed: int, workdir: Path, records: dict):
        self.workload, self.seed = workload, seed
        self.workdir, self.records = workdir, records
        self.rng = random.Random(seed)
        self.untraced_stdout: dict[tuple, bytes] = {}
        self.hard_deadline = time.perf_counter() + RUN_LIMIT_S
        self.setup = time_setup(workdir, "import tglab.cli", SETUP_SAMPLES)
        self.next_probe = time.perf_counter() + PROBE_EVERY_S

    def probe_setup(self):
        if time.perf_counter() >= self.next_probe:
            self.setup += time_setup(self.workdir, "import tglab.cli", 1)
            self.next_probe = time.perf_counter() + PROBE_EVERY_S

    def _timeout(self, limit: float) -> float:
        """A call may take ``limit`` seconds, but never past the run's limit."""
        return max(0.0, min(limit, self.hard_deadline - time.perf_counter()))

    def _checked(self, template, lg_seed, wall, rc, stdout, stderr, traced):
        if rc is None:
            error = f"timed out after {wall:.1f} s"
        else:
            error = wl.check(template, lg_seed, rc, stdout, stderr, self.records)
        key = (template, lg_seed)
        if error is None and traced and stdout != self.untraced_stdout.get(key):
            error = "traced stdout differs from untraced stdout"
        if not traced:
            self.untraced_stdout.setdefault(key, stdout)
        return Call(template, wall, error)

    def cli_unit(self, traced: bool, lg_seed: int) -> Unit:
        calls, spans, import_s, rss = [], {"funcs": {}, "layers": {}}, [], 0.0
        trace_path = self.workdir / "trace.json"
        for template in wl.pass_order(wl.WORKLOADS[self.workload], self.rng):
            argv = wl.argv(template, lg_seed)
            self.probe_setup()
            if traced:
                trace_path.unlink(missing_ok=True)
                cmd = [PY, str(CHILD), "cli", str(trace_path)] + argv
            else:
                cmd = [PY, "-m", "tglab.cli"] + argv
            p = spawn(cmd, self.workdir, self._timeout(CALL_TIMEOUT_S))
            rss = max(rss, p.maxrss_mb)
            calls.append(self._checked(template, lg_seed, p.wall, p.rc, p.stdout,
                                       p.stderr, traced))
            if traced and trace_path.exists():
                part = json.loads(trace_path.read_text())
                merge_spans(spans, part)
                import_s.append(part["imported_at"] - p.launched_at)
        return Unit(traced, [calls], rss, spans, import_s)

    def session_unit(self, traced: bool, lg_seed: int) -> Unit:
        order = wl.pass_order(wl.WORKLOADS[self.workload], self.rng)
        self.probe_setup()
        job = {"calls": [wl.argv(t, lg_seed) for t in order], "passes": SESSION_PASSES,
               "trace": traced, "timeout": CALL_TIMEOUT_S}
        job_path, result_path = self.workdir / "job.json", self.workdir / "result.json"
        job_path.write_text(json.dumps(job))
        result_path.unlink(missing_ok=True)
        p = spawn([PY, str(CHILD), "session", str(job_path), str(result_path)],
                  self.workdir, self._timeout(SESSION_TIMEOUT_S))
        if p.rc != 0 or not result_path.exists():
            why = "timed out" if p.rc is None else f"exit {p.rc}"
            failed = [Call(t, p.wall, f"session process {why}")
                      for _ in range(SESSION_PASSES) for t in order]
            return Unit(traced, [failed], p.maxrss_mb, {"funcs": {}, "layers": {}}, [])
        with open(result_path, encoding="utf-8") as fh:
            head, *records, spans = map(json.loads, fh)
        passes = [[] for _ in range(SESSION_PASSES)]
        for i, r in enumerate(records):
            passes[r["pass"]].append(self._checked(
                order[i % len(order)], lg_seed, r["wall"], r["rc"], r["stdout"].encode(),
                r["stderr"].encode(), traced))
        spans = {k: spans.get(k, {}) for k in ("funcs", "layers")}
        return Unit(traced, passes, p.maxrss_mb, spans, [head["imported_at"] - p.launched_at])

    def run(self, seconds: float, trace: bool) -> list[Unit]:
        make = self.session_unit if self.workload == "session" else self.cli_unit
        deadline = time.perf_counter() + seconds
        units, took = [], {False: [], True: []}
        while True:
            traced = trace and len(units) % 2 == 1
            needed = len(units) < (2 if trace else 1)
            est = statistics.median(took[traced] or took[not traced] or [0.0])
            if not needed and time.perf_counter() + est > deadline:
                break
            t0 = time.perf_counter()
            units.append(make(traced, wl.lg_seed(self.seed, len(units) // (2 if trace else 1))))
            took[traced].append(time.perf_counter() - t0)
        return units


def percentile(values, q):
    """Linear interpolation between closest ranks (inclusive method)."""
    xs = sorted(values)
    pos = (len(xs) - 1) * q
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def time_setup(workdir: Path, statement: str, samples: int) -> list[float]:
    walls = []
    for _ in range(samples):
        p = spawn([PY, "-c", statement], workdir, CALL_TIMEOUT_S)
        if p.rc != 0:
            raise RuntimeError(f"`{statement}` failed: {p.stderr.decode()[-500:]}")
        walls.append(p.wall)
    return walls


def end_to_end(units: list[Unit], setup: list[float]):
    """Timings are medians over untraced units: ``pass_s`` is a unit's
    summed call time per pass, ``slowest_call_s`` its slowest call.  For
    ``session`` a unit holds a cold and a warm pass, so both enter every
    unit alike."""
    plain = [u for u in units if not u.traced]
    walls = [c.wall for u in plain for c in u.calls]
    n = len(plain)
    values = {
        "setup_s": (statistics.median(setup), len(setup)),
        "pass_s": (statistics.median(u.busy_s / len(u.passes) for u in plain), n),
        "call_s.p90": (percentile(walls, 0.9), len(walls)),
        "call_s.p50": (percentile(walls, 0.5), len(walls)),
        "slowest_call_s": (statistics.median(max(c.wall for c in u.calls) for u in plain), n),
        "peak_rss_mb": (max(u.maxrss_mb for u in plain), n),
    }
    units_of = END_TO_END | PRINTED_ONLY
    return {k: (v, n, units_of[k]) for k, (v, n) in values.items()}


def per_layer(units: list[Unit], probes: dict[str, list[float]]):
    traced = [u for u in units if u.traced]
    plain = [u for u in units if not u.traced]
    units_of = per_layer_units()
    first = traced[0]

    def median_of(get):
        return statistics.median(get(u) for u in traced)

    def layer(u, name, i):
        return u.spans["layers"].get(name, [0, 0.0])[i]

    def func(u, name, i):
        return u.spans["funcs"].get(name, [0, 0.0, 0.0, 0])[i]

    values = {}
    for name in LAYERS:
        values[f"{name}.calls"] = (layer(first, name, 0), 1)
        values[f"{name}.self_s"] = (median_of(lambda u: layer(u, name, 1)), len(traced))
    values["import.calls"] = (len(first.import_s), 1)
    values["import.self_s"] = (median_of(lambda u: sum(u.import_s)), len(traced))
    for name, field in FUNC_METRICS:
        i = FUNC_FIELD[field]
        if field == "s":
            values[f"{name}.s"] = (median_of(lambda u: func(u, name, i)), len(traced))
        else:
            values[f"{name}.{field}"] = (func(first, name, i), 1)
    for name, walls in probes.items():
        values[name] = (statistics.median(walls), len(walls))
    ratio = (statistics.median(u.busy_s for u in traced)
             / statistics.median(u.busy_s for u in plain))
    values["trace.overhead_ratio"] = (ratio, len(traced))
    return {k: (v, n, units_of[k]) for k, (v, n) in values.items()}


def environment() -> str:
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        commit = done.stdout.strip() or commit
    try:
        numpy = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy = "missing"
    return (f"# python {platform.python_version()} numpy {numpy} "
            f"nproc {os.cpu_count()} commit {commit}")


def run_workload(workload: str, seed: int, seconds: float, trace: bool, records: dict):
    with tempfile.TemporaryDirectory(prefix=".work-", dir=wl.BENCH_DIR) as tmp:
        workdir = Path(tmp)
        time_setup(workdir, "import tglab.cli", 1)  # writes .pyc files; untimed
        runner = Runner(workload, seed, workdir, records)
        units = runner.run(seconds, trace)
        if trace:
            probes = {k: time_setup(workdir, stmt, SETUP_SAMPLES)
                      for k, stmt in SETUP_PROBES.items() if stmt != "import tglab.cli"}
            probes["import.tglab_cli_s"] = runner.setup
    calls = [c for u in units for c in u.calls]
    failed = [c for c in calls if c.error]
    metrics = per_layer(units, probes) if trace else end_to_end(units, runner.setup)
    return calls, failed, metrics


def report(workload, calls, failed, metrics):
    share = len(failed) / len(calls)
    print(f"## {workload}: {len(calls)} calls, {len(failed)} failed, "
          f"failed_share {share:.4f}")
    for c in failed[:10]:
        print(f"   FAILED {c.template}: {c.error}")
    for name, (value, n, unit) in metrics.items():
        note = "  (printed only)" if name in PRINTED_ONLY else ""
        print(f"   {name:48s} {value:14.6f} {unit:6s} n={n}{note}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=list(wl.WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=wl.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=60.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "tglab" / "cli.py").is_file():
        print(f"run.py: no tglab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    missing = [s for s in wl.SPECS if not (ROOT / "specs" / f"{s}.json").is_file()]
    if missing:
        print(f"run.py: missing specs {missing}", file=sys.stderr)
        return 2
    records = wl.load_records()
    print(environment())
    names = list(wl.WORKLOADS) if args.workload == "all" else [args.workload]
    attempted = failed_total = 0
    metrics = {}
    for name in names:
        calls, failed, metrics = run_workload(name, args.seed, args.seconds,
                                              bool(args.trace), records)
        report(name, calls, failed, metrics)
        attempted += len(calls)
        failed_total += len(failed)
    result = {
        "correct": failed_total == 0,
        "attempted": attempted,
        "failed": failed_total,
        "metrics": {} if len(names) > 1 else
        {k: {"value": v, "unit": unit} for k, (v, _, unit) in metrics.items()
         if k not in PRINTED_ONLY},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
