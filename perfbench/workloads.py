"""Call lists of the four workloads, and the check applied to every call.

BENCHMARK.json gates ``cli-lg`` and ``session``, which between them reach
every layer; ``cli-semigroup`` and ``cli-light`` run on request.  On a
2-vCPU host the time for all runs allows long, steady runs of two
workloads, not of four.

A call is an argv template for ``tglab`` (``--json`` is appended when it
runs).  ``{seed}`` in a template is replaced by an lg seed; only
``lg`` calls carry it, because ``lg`` is the one command whose report
depends on a seed.
"""

from __future__ import annotations

import hashlib
import json
import random
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
RECORDS_FILE = BENCH_DIR / "records.json"
DEFAULT_SEED = 0

SPECS = ("p1_o2", "p1_o_minus1", "p1p1_o11", "p2", "p2_o1", "f3_minus_k")
GKZ_VARIANTS = ("plain", "homog", "hat", "star", "qdm")

# Why each workload exists: the profile shares behind it are in BENCHMARK.json.
SEMIGROUP_SPECS = ("p1p1_o11", "p2_o1", "f3_minus_k", "p1_o2")
LG_SPECS = ("f3_minus_k", "p1p1_o11", "p2_o1", "p1_o2")
SESSION_LG_SPECS = ("p1_o2", "p2_o1", "p1p1_o11")


def _spec(name: str) -> str:
    return f"specs/{name}.json"


def _light_calls(spec: str) -> list[str]:
    calls = [f"validate --spec {spec}", f"construct --spec {spec}", f"ifun --spec {spec}"]
    return calls + [f"gkz --spec {spec} --gkz-variant {v}" for v in GKZ_VARIANTS]


def _session_calls(spec: str) -> list[str]:
    calls = [c for c in _light_calls(spec) if not c.startswith("ifun")]
    return calls + [
        f"ifun --spec {spec} --dmax 8",
        f"ifun --spec {spec} --dmax 12",
        f"semigroup --spec {spec} --degree 3",
    ]


WORKLOADS: dict[str, list[str]] = {
    "cli-semigroup": [f"semigroup --spec {_spec(s)}" for s in SEMIGROUP_SPECS],
    "cli-lg": [f"lg --spec {_spec(s)} --seed {{seed}}" for s in LG_SPECS],
    "cli-light": [c for s in SPECS for c in _light_calls(_spec(s))],
    "session": [c for s in SPECS for c in _session_calls(_spec(s))]
    + [f"lg --spec {_spec(s)} --samples 1 --seed {{seed}}" for s in SESSION_LG_SPECS],
}


def all_templates() -> list[str]:
    return list(dict.fromkeys(c for calls in WORKLOADS.values() for c in calls))


def argv(template: str, seed: int) -> list[str]:
    return template.format(seed=seed).split() + ["--json"]


def lg_seed(seed: int, unit: int) -> int:
    """The ``lg --seed`` of a run's ``unit``-th unit.

    Each unit draws other parameters, because the work of an ``lg`` call
    depends on them (F3 makes 153 to 180 ``pow_mod_array`` calls over lg
    seeds 0-11); a run thus averages over several draws instead of
    carrying one draw's cost.  Workload seed 0 starts at lg seed 0, whose
    reports are recorded in full.
    """
    return seed * 1000 + unit


def pass_order(calls: list[str], rng: random.Random) -> list[str]:
    order = list(calls)
    rng.shuffle(order)
    return order


# Expected exit code and `passed` verdict per (command, spec), written by
# hand from README and ROADMAP; every pair not listed exits 0 and passes.
# - p1_o_minus1: O(-1) is not nef.  `validate` reports it, `construct`,
#   `ifun` and `gkz` stop with a NegativeCoefficient error report, and the
#   semigroup is saturated to degree 3 but fails the Gorenstein shift.
# - f3_minus_k: the bundle row (1,1,1,1) is not nef, so `validate` fails,
#   `construct` stops with BundleNotNef and `ifun` with NonEffectiveDegree.
#   `semigroup` is saturated to 6 but fails the Gorenstein and interior
#   checks.  `lg` samples are non_tame_suspected.  The `gkz` operators
#   still build and pass.
EXPECTED_FAILS = {
    ("validate", "p1_o_minus1"), ("construct", "p1_o_minus1"),
    ("ifun", "p1_o_minus1"), ("gkz", "p1_o_minus1"), ("semigroup", "p1_o_minus1"),
    ("validate", "f3_minus_k"), ("construct", "f3_minus_k"),
    ("ifun", "f3_minus_k"), ("semigroup", "f3_minus_k"), ("lg", "f3_minus_k"),
}
LG_VERDICTS = {"good", "non_tame_suspected", "bad_suspected"}


def expected_verdict(template: str) -> tuple[int, bool]:
    words = template.split()
    spec = Path(words[words.index("--spec") + 1]).stem
    if (words[0], spec) in EXPECTED_FAILS:
        return 1, False
    return 0, True


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def invariant_digest(report: dict) -> str:
    """Digest of an `lg` report without the seed-dependent fields."""
    results = {k: v for k, v in report["results"].items() if k not in ("samples", "passed")}
    return digest(json.dumps(results, sort_keys=True).encode())


def load_records() -> dict:
    with open(RECORDS_FILE, encoding="utf-8") as fh:
        return json.load(fh)


def check(template: str, seed: int, rc, stdout: bytes, stderr: bytes, records: dict):
    """Return None when the call's outcome is right, else why it is not.

    Every call must exit 0, 1 or 2 without a traceback.  At the default
    lg seed, and for every call without ``{seed}``, the exit code and
    ``passed`` must match the hand-written table and the report must match
    its recorded digest byte for byte.  An ``lg`` report at another seed
    must match the record in every field but ``samples`` and ``passed``;
    the exit code and ``passed`` must agree with the sampled verdicts,
    because a sampled parameter can land on a bad locus (p1_o2 does for a
    few seeds).
    """
    if rc not in (0, 1, 2):
        return f"exit code {rc}"
    if b"Traceback (most recent call last)" in stderr:
        return "traceback on stderr"
    try:
        report = json.loads(stdout)
    except ValueError:
        return "stdout is not a JSON report"
    passed = report.get("results", report).get("passed")
    if "{seed}" not in template or seed == DEFAULT_SEED:
        want_rc, want_passed = expected_verdict(template)
        if (rc, passed) != (want_rc, want_passed):
            return f"exit {rc} passed {passed}, expected exit {want_rc} passed {want_passed}"
        if digest(stdout) != records["reports"][template]:
            return "report differs from its record"
        return None
    if "results" not in report:
        return "lg stopped with an error report"
    if invariant_digest(report) != records["lg_invariant"][template]:
        return "seed-independent lg fields differ from their record"
    samples = report["results"]["samples"]
    words = template.split()
    want = int(words[words.index("--samples") + 1]) if "--samples" in words else 3
    if len(samples) != want:
        return f"{len(samples)} lg samples, expected {want}"
    verdicts = [s["verdict"] for s in samples]
    if not set(verdicts) <= LG_VERDICTS:
        return f"unknown lg verdict in {verdicts}"
    if any(s["volume"] != report["results"]["normalized_volume"] for s in samples):
        return "sample volume differs from the normalized volume"
    good = all(v == "good" for v in verdicts)
    if passed != good or rc != (0 if good else 1):
        return f"exit {rc} passed {passed} disagree with verdicts {verdicts}"
    return None
