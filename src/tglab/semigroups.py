"""Affine semigroups: membership, saturation, Gorenstein shift, toric ideals.

The graded semigroups here all look like N A'' (first generator the apex
(1, 0, ..., 0), first coordinate counting the generators used), built on
the lifted points of a Newton polytope, whose cone they share, so their
grading-k elements form a finite slice, built once per semigroup by
slice_k = slice_{k-1} + generators.  One scan of the dilate k conv(0, a'_i)
gives every cone point up to grading k with its least grading, an integer
read off the cone's facets; the semigroup certificates take their points
from one scan at their bound, and the lg members from scans at dilates
that grow with the Jacobian sweep.  The ungraded N A' is handled through
the support of the total-space fan plus a graded lift: a point is a
member when a maximal cone of that smooth fan holds it (its coordinates
in the cone's rays are then nonnegative integers), or when the lift holds
it up to a grading bound.  Both yes answers are exact; a no for a cone
point only says that the lift holds no such point up to the bound.
Nothing here checks that the fan's support is the whole cone.  Every
semigroup lies in its cone, so a point outside the cone is never a member.
"""

from __future__ import annotations

from functools import cached_property
from itertools import product
from operator import mul
from typing import NamedTuple

from tglab.errors import BoundTooSmall, NotSaturated, UnboundedSearch
from tglab.intlinalg import IntegerMatrix, kernel_lattice
from tglab.polytopes import LatticePolytope
from tglab.rationalcone import HForm, cone_hform
from tglab.toricfan import Fan


class AffineSemigroup:
    """Semigroup generated by the columns of ``generators``; ``cone`` is
    their H-form, computed here unless given."""

    def __init__(self, generators: IntegerMatrix, cone: HForm | None = None):
        self.generators = generators
        if cone is None:
            cone = cone_hform([generators.col(i) for i in range(generators.cols)], generators.rows)
        self.cone = cone

    @property
    def dim(self) -> int:
        return self.generators.rows

    @property
    def n_gens(self) -> int:
        return self.generators.cols

    def gen(self, i: int) -> tuple:
        return self.generators.col(i)

    @cached_property
    def graded(self) -> bool:
        """The form of `doubled_semigroup`: the first generator is the apex
        (1, 0, ..., 0) and the first row is all ones, so the first
        coordinate of an element counts generators with multiplicity."""
        apex = (1,) + (0,) * (self.dim - 1)
        return self.gen(0) == apex and all(x == 1 for x in self.generators.entries[0])

    @cached_property
    def _slices(self) -> list:
        if not self.graded:
            raise UnboundedSearch("not graded: apex (1, 0, ..., 0) first, first row all ones")
        return [frozenset({(0,) * self.dim})]

    def slice(self, k: int) -> frozenset:
        """Elements of grading k of a graded semigroup: slice_0 = {0} and
        slice_k = slice_{k-1} + generators, built on demand and kept."""
        slices = self._slices
        if k < 0:
            return frozenset()
        gens = [self.gen(i) for i in range(self.n_gens)]
        while len(slices) <= k:
            slices.append(
                frozenset(tuple(a + b for a, b in zip(u, g)) for u in slices[-1] for g in gens)
            )
        return slices[k]


def semigroup_contains(S: AffineSemigroup, v, lift=None, lift_bound: int = 0) -> bool:
    """Exact membership for graded semigroups; a graded lift otherwise.

    ``lift`` is the graded semigroup whose degree-k slice projects onto S
    (columns (1, s_i) plus the free column (1, 0)); ``lift_bound`` caps the
    degrees tried.  Raises UnboundedSearch when no exact route exists.
    """
    v = tuple(int(x) for x in v)
    if len(v) != S.dim:
        raise ValueError("vector dimension mismatch")
    if not S.cone.contains(v):
        return False
    if S.graded:
        return v in S.slice(v[0])
    if lift is not None:
        return any((k,) + v in lift.slice(k) for k in range(lift_bound + 1))
    raise UnboundedSearch("no grading and no graded lift available")


def doubled_semigroup(newton: LatticePolytope) -> AffineSemigroup:
    """The graded semigroup N A'' on the lifted points (1, p) of ``newton``,
    the Newton polytope conv(0, a'_i) with the origin first (as
    `Fan.newton_polytope` gives it), so on the columns (1, 0) and (1, a'_i).
    Its cone is the polytope's `cone`, the H-form of those same columns."""
    rows = [[1] * len(newton.points)] + [list(c) for c in zip(*newton.points)]
    return AffineSemigroup(IntegerMatrix.from_rows(rows), newton.cone)


def graded_slice_points(S: AffineSemigroup, k: int):
    """The lattice points of k * conv(generators), grading dropped, in lex
    order, each as (least grading, point): the least j with (j, point) in
    the cone of S, so the points at grading j <= k are those with least
    grading <= j.

    Scans the box k * [min, max] of the generators once and keeps the points
    p with (k, p) in the cone.  The cone contains the apex (1, 0, ..., 0),
    so every equality has e_0 = 0 and every inequality n_0 >= 0; the least
    grading is the largest ceil(-n'.p / n_0) over n_0 > 0, or 0.  Raises
    UnboundedSearch for a semigroup that is not graded.
    """
    if not S.graded:
        raise UnboundedSearch("not graded: apex (1, 0, ..., 0) first, first row all ones")
    flats = [e[1:] for e in S.cone.equalities]
    ineqs = [(n[0], n[1:]) for n in S.cone.inequalities]
    tails = [S.gen(i)[1:] for i in range(S.n_gens)]
    ranges = [range(k * min(c), k * max(c) + 1) for c in zip(*tails)]
    out = []
    for p in product(*ranges):
        if any(sum(map(mul, e, p)) for e in flats):
            continue
        j = 0
        for n0, n in ineqs:
            v = sum(map(mul, n, p))
            if n0 * k + v < 0:
                break
            if n0 and -(v // n0) > j:
                j = -(v // n0)
        else:
            out.append((j, p))
    return out


class ConeScan(NamedTuple):
    """The result of `scan_cone_points`."""

    witness: tuple | None
    interior: set
    points: list


def scan_cone_points(S: AffineSemigroup, degree_bound: int) -> ConeScan:
    """One box scan, `graded_slice_points` at the bound, and one pass over
    the cone points at grading <= bound, by grading then lex.  The witness
    is the first cone point outside the semigroup, or None; the pass stops
    there, so the interior points are complete only when the witness is
    None.  The scanned points are always complete."""
    points = graded_slice_points(S, degree_bound)
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


def saturation_check(S: AffineSemigroup, degree_bound: int):
    """Compare semigroup membership against cone membership up to the bound.

    Returns (saturated_up_to_bound, witness); the witness is the first cone
    point that fails semigroup membership, scanned by grading then lex.
    """
    witness = scan_cone_points(S, degree_bound).witness
    return witness is None, witness


def gorenstein_shift_check(S: AffineSemigroup, shift, degree_bound: int, scan: ConeScan) -> bool:
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
    total: Fan, lift: AffineSemigroup, shift, degree_bound: int, scan: ConeScan
) -> bool:
    """Interior of the cone of S = N A' equals shift + S, where A' is the
    ray matrix of the smooth fan ``total``, tested on all lattice points of
    the degree_bound-dilated hull of 0 and the generators, which ``scan``,
    `scan_cone_points` of ``lift`` at the same bound, holds.

    A point shift + v counts as a member of shift + S when ``total``
    contains v or the lift holds it at a grading up to
    degree_bound * (S.dim + 2).  A yes is exact; a no for a point of the
    cone is exact only up to that lift bound, and so is the verdict.
    Where the fan's support is the whole cone, every cone point is a
    member and the verdict is exact on the scanned points.
    """
    S = AffineSemigroup(total.ray_matrix())
    shift = tuple(int(x) for x in shift)
    for _, pt in scan.points:
        inside = S.cone.contains_interior(pt)
        v = tuple(a - b for a, b in zip(pt, shift))
        member = total.contains(v) or semigroup_contains(
            S, v, lift=lift, lift_bound=degree_bound * (S.dim + 2)
        )
        if inside != member:
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
