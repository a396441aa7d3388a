"""The doubled semigroup: membership, saturation, Gorenstein shift; toric ideals.

Every semigroup here is N A'', built on the lifted points (1, 0), (1, a'_i)
of a Newton polytope Q = conv(0, a'_i), whose cone it shares.  Its first
coordinate counts the generators used, so its grading-k elements form a
finite slice, built once per semigroup by slice_k = slice_{k-1} +
generators.  One scan of the dilate k Q gives every cone point up to
grading k with its least grading, an integer read off the polytope's
facets; the semigroup certificates take their points from one scan at
their bound, and the lg members (`NewtonData.members`) from one scan at
the dilate n = B.rows.  The undoubled N A' is handled through the support
of the total-space fan plus the doubled semigroup as a graded lift: a
point is a member when a maximal cone of that smooth fan holds it (its
coordinates in the cone's rays are then nonnegative integers), or when a
slice holds it up to a grading bound.  Both yes answers are exact; a no
for a point of cone(A') only says that no slice holds it up to the
bound.  Nothing here checks that the fan's support is the whole cone.  The
cone of A' is read off Q: as 0 lies in Q, its facets through 0 and its
equalities cut out the tangent cone of Q at 0, which is cone(A').
"""

from __future__ import annotations

from itertools import product
from operator import mul
from typing import NamedTuple

from tglab.errors import BoundTooSmall, NotSaturated
from tglab.intlinalg import IntegerMatrix, kernel_lattice
from tglab.polytopes import LatticePolytope
from tglab.rationalcone import HForm
from tglab.toricfan import Fan


class DoubledSemigroup:
    """The graded semigroup N A'' on the lifted points (1, p) of ``newton``,
    the Newton polytope conv(0, a'_i) with the origin first (as
    `Fan.newton_polytope` gives it), so on the columns (1, 0) and (1, a'_i).
    Its cone is the polytope's `cone`, the H-form of those same columns."""

    def __init__(self, newton: LatticePolytope):
        self.newton = newton
        self.cone = newton.cone
        self.generators = tuple((1,) + p for p in newton.points)
        self._slices = [frozenset({(0,) * len(self.generators[0])})]

    def slice(self, k: int) -> frozenset:
        """Elements of grading k: slice_0 = {0} and slice_k = slice_{k-1} +
        generators, built on demand and kept."""
        slices = self._slices
        if k < 0:
            return frozenset()
        while len(slices) <= k:
            slices.append(frozenset(
                tuple(a + b for a, b in zip(u, g)) for u in slices[-1] for g in self.generators
            ))
        return slices[k]

    def reaches(self, v, bound: int) -> bool:
        """Some slice k <= bound holds (k, v): as the apex is a generator, v
        is a sum of at most ``bound`` of the a'_i.  Such a v lies in bound Q,
        so a v whose (bound, v) the cone misses builds no slice."""
        return self.cone.contains((bound,) + v) and any(
            (k,) + v in self.slice(k) for k in range(bound + 1)
        )


def graded_slice_points(newton: LatticePolytope, k: int):
    """The lattice points of the dilate k * ``newton``, in lex order, each as
    (least grading, point): the least j with the point in j * newton, so
    the points at grading j <= k of the doubled cone are those with least
    grading <= j.

    Scans the box k * [min, max] of the points once and keeps those on the
    equalities and the facets of the dilate.  The polytope holds the
    origin, so every equality has offset 0 and every facet offset >= 0;
    the least grading is the largest ceil(-normal.p / offset) over offset
    > 0, or 0.
    """
    flats = [e.normal for e in newton.equalities]
    ranges = [range(k * min(c), k * max(c) + 1) for c in zip(*newton.points)]
    out = []
    for p in product(*ranges):
        if any(sum(map(mul, e, p)) for e in flats):
            continue
        j = 0
        for f in newton.facets:
            v = sum(map(mul, f.normal, p))
            if f.offset * k + v < 0:
                break
            if f.offset and -(v // f.offset) > j:
                j = -(v // f.offset)
        else:
            out.append((j, p))
    return out


class ConeScan(NamedTuple):
    """The result of `scan_cone_points`."""

    witness: tuple | None
    interior: set
    points: list


def scan_cone_points(S: DoubledSemigroup, degree_bound: int) -> ConeScan:
    """One box scan, `graded_slice_points` at the bound, and one pass over
    the cone points at grading <= bound, by grading then lex.  The witness
    is the first cone point outside the semigroup, or None, so S is
    saturated up to the bound exactly when it is None; the pass stops
    there, so the interior points are complete only when the witness is
    None.  The scanned points are always complete."""
    points = graded_slice_points(S.newton, degree_bound)
    interior = set()
    for k in range(degree_bound + 1):
        members = S.slice(k)
        for j, p in points:
            if j > k:
                continue
            pt = (k,) + p
            if pt not in members:
                return ConeScan(pt, interior, points)
            if S.cone.contains_interior(pt):
                interior.add(pt)
    return ConeScan(None, interior, points)


def gorenstein_shift_check(S: DoubledSemigroup, shift, degree_bound: int, scan: ConeScan) -> bool:
    """Interior points at grading <= bound coincide with shift + semigroup.

    ``shift`` is the distinguished interior element (grading c+1 for the
    doubled total-space semigroup).  ``scan`` is `scan_cone_points` of S at
    the same bound.  Requires saturation up to the bound: raises
    NotSaturated with the scan's witness otherwise.
    """
    if scan.witness is not None:
        raise NotSaturated(f"not saturated up to {degree_bound}, witness {scan.witness}")
    shift = tuple(int(x) for x in shift)
    shifted = {
        tuple(a + b for a, b in zip(u, shift))
        for k in range(degree_bound - shift[0] + 1)
        for u in S.slice(k)
    }
    return scan.interior == shifted


def interior_shift_check_ungraded(
    total: Fan, lift: DoubledSemigroup, shift, degree_bound: int, scan: ConeScan
) -> bool:
    """Interior of cone(A') equals shift + N A', where A' is the ray matrix
    of the smooth fan ``total`` and ``lift`` its doubled semigroup, tested
    on all lattice points of the degree_bound-dilated hull of 0 and A',
    which ``scan``, `scan_cone_points` of ``lift`` at the same bound, holds.

    A point shift + v counts as a member of shift + N A' when ``total``
    contains v or the lift `reaches` v within L = degree_bound * (dim + 2).
    A yes is exact; a no for a point of the cone is exact only up to L, and
    so is the verdict.  Where the fan's support is the whole cone, every
    cone point is a member and the verdict is exact on the scanned points.
    """
    # cone(A'), the tangent cone of Q at 0: Q's equalities and facets through 0.
    aprime = HForm(
        total.dim,
        tuple(e.normal for e in lift.newton.equalities),
        tuple(f.normal for f in lift.newton.facets if f.offset == 0),
    )
    bound = degree_bound * (total.dim + 2)
    shift = tuple(int(x) for x in shift)
    for _, pt in scan.points:
        v = tuple(a - b for a, b in zip(pt, shift))
        if aprime.contains_interior(pt) != (total.contains(v) or lift.reaches(v, bound)):
            return False
    return True


def toric_ideal_binomials(B: IntegerMatrix, degree_bound: int):
    """Generators of the lattice ideal of ker(B), up to the degree bound.

    Enumerates lattice vectors as small combinations of the kernel basis,
    keeps a deglex-reduced generating set, and raises BoundTooSmall when
    candidates one step beyond the bound fail to reduce to zero.
    """
    basis = kernel_lattice(B)
    r = basis.rank
    t = B.cols
    if r == 0:
        return []

    def vectors(coeff_cap, deg_cap):
        seen = set()
        for coeffs in product(range(-coeff_cap, coeff_cap + 1), repeat=r):
            if all(c == 0 for c in coeffs):
                continue
            vec = tuple(
                sum(coeffs[a] * basis.basis.entries[i][a] for a in range(r))
                for i in range(t)
            )
            pos = sum(x for x in vec if x > 0)
            neg = -sum(x for x in vec if x < 0)
            if max(pos, neg) > deg_cap or vec in seen:
                continue
            seen.add(vec)
            yield vec

    def orient(vec):
        pos = tuple(max(x, 0) for x in vec)
        neg = tuple(max(-x, 0) for x in vec)
        return (pos, neg) if _deglex_bigger(pos, neg) else (neg, pos)

    gens = []

    def reduce_monomial(u):
        changed = True
        while changed:
            changed = False
            for big, small in gens:
                if all(a >= b for a, b in zip(u, big)):
                    u = tuple(a - b + c for a, b, c in zip(u, big, small))
                    changed = True
        return u

    def reduces_to_zero(pair):
        big, small = pair
        return reduce_monomial(big) == reduce_monomial(small)

    candidates = sorted(
        (orient(v) for v in vectors(degree_bound, degree_bound)),
        key=lambda p: (sum(p[0]), p[0], p[1]),
    )
    seen_pairs = set()
    for pair in candidates:
        if pair in seen_pairs:
            continue
        seen_pairs.add(pair)
        if not reduces_to_zero(pair):
            gens.append(pair)
    for vec in vectors(degree_bound + 1, degree_bound + 1):
        if not reduces_to_zero(orient(vec)):
            raise BoundTooSmall(
                "lattice ideal not stabilized within the degree bound"
            )
    return sorted(gens)


def _deglex_bigger(u, w) -> bool:
    return (sum(u), u) > (sum(w), w)
