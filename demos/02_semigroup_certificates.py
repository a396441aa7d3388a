"""Normality, Gorenstein shift and interior certificates for the doubled
semigroups, plus toric ideal generators."""

from tglab import corpus
from tglab.intlinalg import IntegerMatrix, homogenize
from tglab.semigroups import (
    DoubledSemigroup,
    gorenstein_shift_check,
    interior_shift_check_ungraded,
    scan_cone_points,
    toric_ideal_binomials,
)
from tglab.toricfan import total_space_fan

print("== degree-2 bundle on the line ==")
fan, d = corpus.p1_o2()
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
fan, d = corpus.f3_minus_k()
total = total_space_fan(fan, d)
S = DoubledSemigroup(total.newton_polytope)
print("d = (1,1,1,1): saturated:", scan_cone_points(S, 6).witness is None,
      "(normal; the slice tiles into")
print("  five unimodular generator simplices, so no witness can exist)")
shift = tuple(a + b for a, b in zip(S.generators[0], S.generators[5]))
print("  Gorenstein shift still fails:",
      gorenstein_shift_check(S, shift, 5, scan_cone_points(S, 5)))

alt = IntegerMatrix.from_rows([(0, 2, 4, 0)])
total_alt = total_space_fan(corpus.hirzebruch(3), alt)
witness = scan_cone_points(DoubledSemigroup(total_alt.newton_polytope), 4).witness
print("equivalent representative d = (0,2,4,0): saturated:", witness is None,
      "witness:", witness)

print()
print("== toric ideals ==")
B = total_space_fan(*corpus.p1_o2()).ray_matrix()
print("degree-2 bundle on the line:", toric_ideal_binomials(B, 4))
B2 = homogenize(corpus.projective_plane().ray_matrix())
print("homogenized plane:", toric_ideal_binomials(B2, 4))
