"""The examples the tests read: the committed specs, read by the one spec
reader `tglab.cli.load_spec`, and the two families the tests sweep."""

from pathlib import Path

from tglab.cli import load_spec
from tglab.intlinalg import IntegerMatrix
from tglab.toricfan import Fan

SPECS = Path(__file__).resolve().parent.parent / "specs"
# Every committed spec, by its path under specs/ without ".json".
NAMES = sorted(p.relative_to(SPECS).with_suffix("").as_posix() for p in SPECS.rglob("*.json"))


def spec(name):
    """(fan, bundle matrix) of specs/<name>.json, e.g. "p1_o2" or
    "threefolds/p3_o2"."""
    data = load_spec(str(SPECS / f"{name}.json"))
    return data["fan"], data["bundles"]


def fan(name):
    """The fan of specs/<name>.json: "p1_o2" for P1, "p2" for P2,
    "p1p1_o11" for P1xP1, "f3_minus_k" for F3."""
    return spec(name)[0]


def hirzebruch(k: int) -> Fan:
    """F_k with rays (1,0), (0,1), (-1,k), (0,-1)."""
    return Fan.make(
        [(1, 0), (0, 1), (-1, k), (0, -1)],
        [(0, 1), (1, 2), (2, 3), (3, 0)],
    )


def p1_ok(k: int):
    """P^1 with O(k) via the divisor k D_1 (negative k allowed on purpose)."""
    return fan("p1_o2"), IntegerMatrix.from_rows([(k, 0)])
