"""Normality, Gorenstein shift and interior certificates for the doubled
semigroups."""

from pathlib import Path

from tglab.cli import load_spec
from tglab.intlinalg import IntegerMatrix
from tglab.semigroups import (
    DoubledSemigroup,
    gorenstein_shift_check,
    interior_shift_check_ungraded,
    scan_cone_points,
)
from tglab.toricfan import total_space_fan

SPECS = Path(__file__).resolve().parent.parent / "specs"


def example(name):
    """The fan and bundle matrix of specs/<name>.json."""
    spec = load_spec(str(SPECS / f"{name}.json"))
    return spec["fan"], spec["bundles"]


print("== degree-2 bundle on the line ==")
fan, d = example("p1_o2")
total = total_space_fan(fan, d)
S = DoubledSemigroup(total.newton_polytope)
print("doubled generators:", list(S.generators))
scan = scan_cone_points(S, 6)
print("saturated up to degree 6:", scan.witness is None)
shift = tuple(a + b for a, b in zip(S.generators[0], S.generators[3]))
print("Gorenstein shift by", shift, "->", gorenstein_shift_check(S, shift, 6, scan))
print("interior of the undoubled cone is the bundle shift:",
      interior_shift_check_ungraded(total, S, total.ray_matrix().col(2), 6, scan))

print()
print("== the F3 anticanonical example ==")
fan, d = example("f3_minus_k")
total = total_space_fan(fan, d)
S = DoubledSemigroup(total.newton_polytope)
print("d = (1,1,1,1): saturated:", scan_cone_points(S, 6).witness is None,
      "(normal; the slice tiles into")
print("  five unimodular generator simplices, so no witness can exist)")
shift = tuple(a + b for a, b in zip(S.generators[0], S.generators[5]))
print("  Gorenstein shift still fails:",
      gorenstein_shift_check(S, shift, 5, scan_cone_points(S, 5)))

alt = IntegerMatrix.from_rows([(0, 2, 4, 0)])
total_alt = total_space_fan(example("f3_minus_k")[0], alt)
witness = scan_cone_points(DoubledSemigroup(total_alt.newton_polytope), 4).witness
print("equivalent representative d = (0,2,4,0): saturated:", witness is None,
      "witness:", witness)

