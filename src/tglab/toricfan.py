"""Fans, total-space fans of split bundles, and nef cones two ways.

A fan is stored as primitive ray generators plus maximal cones given by
ray index sets.  Only simplicial full-dimensional maximal cones are
accepted; `Fan.make` refuses any other shape with an InputError.  The
nef cone is computed both as an intersection of anticones and as the
cone of convex piecewise-linear functions, each given by its extreme
rays; the two lists must be equal and the test suite checks that they are.
A fan keeps its Newton polytope conv(0, rays), the one hull its volume,
faces and doubled semigroup read.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from itertools import combinations
from math import gcd
from typing import NamedTuple

from tglab.errors import (
    BundleNotNef,
    DimensionMismatch,
    IncompleteFan,
    InputError,
    InputNotSmooth,
    KahlerConeEmpty,
    NonPrimitiveRay,
)
from tglab.intlinalg import IntegerMatrix, extend_relation, kernel_lattice, row_reduce
from tglab.polytopes import LatticePolytope, simplex_normalized_volume
from tglab.rationalcone import (
    HForm,
    _dot,
    _primitive,
    cone_hform,
    extreme_rays,
    intersect_hforms,
    nullspace,
)


class Fan:
    """Rays are primitive integer vectors; max_cones are 0-based index tuples.
    Fans are equal and hashed by value."""

    def __init__(self, dim: int, rays: tuple, max_cones: tuple):
        self.dim = dim
        self.rays = rays
        self.max_cones = max_cones

    def __eq__(self, other):
        return isinstance(other, Fan) and (self.dim, self.rays, self.max_cones) == (
            other.dim, other.rays, other.max_cones
        )

    def __hash__(self):
        return hash((self.dim, self.rays, self.max_cones))

    @staticmethod
    def make(rays, max_cones) -> "Fan":
        """The one constructor, and the one check of a fan's shape: rays
        non-empty, of one length and primitive; each cone `dim` distinct
        rays (0-based indices) and no cone twice.  Messages number rays
        from 1, as a spec does."""
        rays = tuple(tuple(int(x) for x in r) for r in rays)
        if not rays or not rays[0]:
            raise InputError("rays must be a non-empty list of non-empty integer lists")
        dim = len(rays[0])
        if any(len(r) != dim for r in rays):
            raise InputError("rays must all have the same length")
        for k, r in enumerate(rays, 1):
            if gcd(*r) != 1:
                raise NonPrimitiveRay(f"ray {k}, {list(r)}, is not primitive")
        cones = []
        for c in max_cones:
            c = tuple(int(i) for i in c)
            entry = [i + 1 for i in c]
            if not all(0 <= i < len(rays) for i in c):
                raise InputError(f"max_cones entry {entry} names a ray outside 1..{len(rays)}")
            if len(c) != dim:
                raise InputError(f"max_cones entry {entry} must list {dim} rays")
            if len(set(c)) != dim:
                raise InputError(f"max_cones entry {entry} repeats a ray")
            if tuple(sorted(c)) in cones:
                raise InputError(f"max_cones entry {entry} lists a cone twice")
            cones.append(tuple(sorted(c)))
        return Fan(dim, rays, tuple(cones))

    @property
    def n_rays(self) -> int:
        return len(self.rays)

    def ray_matrix(self) -> IntegerMatrix:
        """Matrix with the rays as columns."""
        return IntegerMatrix.from_rows(
            [[self.rays[j][i] for j in range(self.n_rays)] for i in range(self.dim)]
        )

    def cone_matrix(self, cone) -> IntegerMatrix:
        return IntegerMatrix.from_rows(
            [[self.rays[j][i] for j in cone] for i in range(self.dim)]
        )

    @cached_property
    def cone_hforms(self) -> tuple:
        """The H-form of each maximal cone, in `max_cones` order, computed
        on first use and kept with the fan."""
        return tuple(cone_hform([self.rays[i] for i in c], self.dim) for c in self.max_cones)

    def contains(self, v) -> bool:
        """v (integer or rational) lies in the support: some maximal cone
        holds it."""
        return any(h.contains(v) for h in self.cone_hforms)

    @cached_property
    def newton_polytope(self) -> LatticePolytope:
        """The hull Q = conv(0, rays), computed on first use and kept with the
        fan: its points are the origin and then the rays, its `cone` is the
        cone of the doubled semigroup, and its faces and volume are kept with
        it."""
        return LatticePolytope.from_points([(0,) * self.dim] + list(self.rays))

    @cached_property
    def diagnostics(self) -> "FanDiagnostics":
        """`validate_fan` of this fan, computed on first use and kept with
        the fan (fans are immutable), so that the checks one command runs on
        one fan share it."""
        return validate_fan(self)


class FanDiagnostics(NamedTuple):
    is_fan: bool
    smooth: bool
    complete: bool
    simplicial: bool


def validate_fan(fan: Fan) -> FanDiagnostics:
    """Check the fan condition, smoothness and completeness; `Fan.make`
    has checked the shape.

    Completeness is decided combinatorially: every facet of every maximal
    cone is shared by exactly two maximal cones and the facet graph is
    connected.  This computes afresh on every call; `Fan.diagnostics`
    keeps the result with the fan for callers that check one fan often.
    """
    dets = [fan.cone_matrix(c).det() for c in fan.max_cones]
    if any(d == 0 for d in dets):
        return FanDiagnostics(False, False, False, True)
    smooth = all(abs(d) == 1 for d in dets)

    # Fan condition: pairwise intersections are common faces.
    is_fan = True
    for c1, c2 in combinations(fan.max_cones, 2):
        common = sorted(set(c1) & set(c2))
        if len(common) == fan.dim - 1:
            # Two full-dimensional cones sharing a facet meet exactly in it
            # iff their other rays lie strictly on opposite sides of its span.
            (normal,) = nullspace([fan.rays[i] for i in common], fan.dim)
            (a,) = set(c1) - set(common)
            (b,) = set(c2) - set(common)
            meet_in_common = _dot(normal, fan.rays[a]) * _dot(normal, fan.rays[b]) < 0
        else:
            # Simplicial full-dimensional cone(U), cone(V) with common rays W
            # meet in cone(W) iff the lineality space L of C = cone(U u -V)
            # has dimension |W|.  L is spanned by the generators g with -g
            # in C; W and -W are such, so span(W), of dimension |W|, lies in
            # L.  If u in U has -u = sum(a U) - sum(b V) in C, then
            # (1 + a_u) u + sum(a U - u) = sum(b V) is a point of the meet
            # with a positive u-coordinate, so u is in W when the meet is
            # cone(W); likewise for V.  Conversely, if L = span(W), a point
            # sum(c U) = sum(d V) of the meet puts -u in C for each u with
            # c_u > 0, so u is in span(W), hence in W (U is independent).
            c = cone_hform(
                [fan.rays[i] for i in c1] + [tuple(-x for x in fan.rays[i]) for i in c2],
                fan.dim,
            )
            meet_in_common = len(nullspace(list(c.inequalities), fan.dim)) == len(common)
        if not meet_in_common:
            is_fan = False
            break

    complete = _is_complete(fan) if is_fan else False
    return FanDiagnostics(is_fan, smooth, complete, True)


def _is_complete(fan: Fan) -> bool:
    facet_count = {}
    for ci, cone in enumerate(fan.max_cones):
        for drop in cone:
            facet = frozenset(cone) - {drop}
            facet_count.setdefault(facet, []).append(ci)
    if any(len(v) != 2 for v in facet_count.values()):
        return False
    # facet-connectivity of the max-cone adjacency graph
    n = len(fan.max_cones)
    if n == 0:
        return False
    adj = {i: set() for i in range(n)}
    for members in facet_count.values():
        a, b = members
        adj[a].add(b)
        adj[b].add(a)
    seen = {0}
    stack = [0]
    while stack:
        cur = stack.pop()
        for nxt in adj[cur]:
            if nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)
    return len(seen) == n


def total_space_fan(fan: Fan, d: IntegerMatrix) -> Fan:
    """Fan of the total space of the dual split bundle given by rows of d.

    New rays are (a_i, d_i) for the old rays and the last c coordinate
    vectors; each old maximal cone picks up all c new rays.  Any rows are
    accepted: d_j + div(chi^m) shears the rays unimodularly, so the
    smoothness check covers every representative (`build_model` decides
    which rows a model may use).
    """
    c = d.rows
    if c and d.cols != fan.n_rays:
        raise DimensionMismatch("bundle matrix needs one column per ray")
    diag = fan.diagnostics
    if not (diag.is_fan and diag.smooth and diag.complete):
        raise InputNotSmooth("total-space construction needs a smooth complete fan")
    if c == 0:
        return fan
    n, m = fan.dim, fan.n_rays
    rays = [tuple(fan.rays[i]) + tuple(d.entries[j][i] for j in range(c)) for i in range(m)]
    for j in range(c):
        rays.append(tuple(0 for _ in range(n + j)) + (1,) + tuple(0 for _ in range(c - j - 1)))
    cones = [tuple(cone) + tuple(range(m, m + c)) for cone in fan.max_cones]
    out = Fan.make(rays, cones)
    for cone in out.max_cones:
        if abs(out.cone_matrix(cone).det()) != 1:
            raise InputNotSmooth("total-space fan failed the smoothness check")
    return out


def pl_is_convex(fan: Fan, values) -> tuple:
    """(convex, strictly) for the PL function with the given ray values.

    Convex means value(a_i) <= linear extension from every maximal cone;
    strictly means strict for rays outside the cone.
    """
    diag = fan.diagnostics
    if not diag.complete:
        raise IncompleteFan("convexity test needs a complete fan")
    return _pl_convex_raw(fan, values)


def _pl_convex_raw(fan: Fan, values) -> tuple:
    """Ray-comparison convexity test, no completeness gate (the total-space
    fan is never complete but the same inequalities define its nef classes)."""
    vals = [Fraction(v) for v in values]
    if len(vals) != fan.n_rays:
        raise DimensionMismatch("need one value per ray")
    convex = True
    strictly = True
    for cone in fan.max_cones:
        u = _linear_extension(fan, cone, vals)
        for i in range(fan.n_rays):
            lin = sum(u[k] * fan.rays[i][k] for k in range(fan.dim))
            if vals[i] > lin:
                convex = False
                strictly = False
            elif i not in cone and vals[i] == lin:
                strictly = False
    return convex, strictly


def _linear_extension(fan: Fan, cone, vals):
    """u with <u, a_i> = vals[i] for the rays of the cone (exact solve).

    The first ``dim`` rays of the cone determine u.
    """
    n = fan.dim
    _, reduced = row_reduce([list(fan.rays[i]) + [vals[i]] for i in cone[:n]], n + 1)
    return [row[n] for row in reduced]


def divisor_class_matrix(fan: Fan) -> IntegerMatrix:
    """Row i = coordinates of the i-th ray divisor class in the basis dual
    to the kernel-lattice basis of the ray matrix."""
    return kernel_lattice(fan.ray_matrix()).basis


def nef_hform(fan: Fan, classes: IntegerMatrix) -> HForm:
    """Intersection of the anticones of the maximal cones of ``fan``, in the
    coordinates of ``classes``, whose row i is the class of ray i.

    The anticone of a maximal cone is generated by the classes of the rays
    outside it.
    """
    return intersect_hforms(
        [
            cone_hform(
                [classes.row(i) for i in range(fan.n_rays) if i not in cone], classes.cols
            )
            for cone in fan.max_cones
        ]
    )


def extended_kernel(fan: Fan, d: IntegerMatrix) -> IntegerMatrix:
    """Kernel basis of the total-space ray matrix: the kernel-lattice basis
    of the base ray matrix, each relation extended by `extend_relation`.
    Its rows are the ray divisor classes of the total-space fan."""
    base = divisor_class_matrix(fan)
    cols = [extend_relation(base.col(a), d) for a in range(base.cols)]
    return IntegerMatrix.from_rows(
        [[col[i] for col in cols] for i in range(fan.n_rays + d.rows)]
    )


def nef_cone_anticones(fan: Fan) -> list:
    """Extreme rays of the nef cone as the intersection of anticones, in
    kernel-dual coordinates.

    Raises KahlerConeEmpty when the intersection has empty interior.
    """
    diag = fan.diagnostics
    if not diag.complete:
        raise IncompleteFan("nef cone needs a complete fan")
    inter = nef_hform(fan, divisor_class_matrix(fan))
    rays = extreme_rays(inter)
    if inter.equalities or not rays:
        raise KahlerConeEmpty("nef cone has empty interior")
    interior_probe = tuple(sum(col) for col in zip(*rays))
    if not inter.contains_interior(interior_probe):
        raise KahlerConeEmpty("nef cone has empty interior")
    return rays


def nef_cone_pl(fan: Fan) -> list:
    """Extreme rays of the nef cone as the image of the cone of convex PL
    functions.

    A class c (kernel-dual coordinates) is nef iff one (hence any) divisor
    representative t with classes^T t = c gives a convex PL function with
    values -t_i.  The inequalities are assembled from one rational section
    of the representative map, so the rays are those of an exact H-form.
    """
    diag = fan.diagnostics
    if not diag.complete:
        raise IncompleteFan("nef cone needs a complete fan")
    classes = divisor_class_matrix(fan)
    m, r = classes.rows, classes.cols
    section = _rational_right_inverse(classes)
    # t(c) = section * c; psi values are -t_i(c); inequality per (cone, ray):
    # psi_sigma(a_i) - psi(a_i) >= 0, a linear functional of c.  The linear
    # extension depends only on the cone and the unit class b.
    unit_vals = [[-section[row][b] for row in range(m)] for b in range(r)]
    ineqs = []
    for cone in fan.max_cones:
        us = [_linear_extension(fan, cone, vals) for vals in unit_vals]
        for i in range(fan.n_rays):
            ineqs.append(tuple(
                _dot(u, fan.rays[i]) - vals[i] for u, vals in zip(us, unit_vals)
            ))
    prim = [_primitive(v) for v in ineqs]
    dedup = []
    for v in prim:
        if any(x != 0 for x in v) and v not in dedup:
            dedup.append(v)
    return extreme_rays(HForm(r, (), tuple(dedup)))


def _rational_right_inverse(classes: IntegerMatrix):
    """Any rational section S (m x r) with classes^T S = I_r."""
    m, r = classes.rows, classes.cols
    # Reduce (classes^T | I_r); classes^T has full row rank r.
    aug = [list(classes.col(b)) + [int(i == b) for i in range(r)] for b in range(r)]
    pivots, reduced = row_reduce(aug, m + r)
    section = [[0] * r for _ in range(m)]
    for row, pc in zip(reduced, pivots):
        section[pc] = row[m:]
    return section


def class_is_nef(fan: Fan, divisor_coeffs) -> bool:
    """Nef test for the divisor sum(t_i D_i): PL values -t_i convex."""
    vals = [-Fraction(t) for t in divisor_coeffs]
    convex, _ = pl_is_convex(fan, vals)
    return convex


def adjoint_coefficients(fan: Fan, d: IntegerMatrix) -> list:
    """The ray-divisor coefficients 1 - sum_j d_ji of the adjoint class
    -K_X - sum_j c1(L_j)."""
    return [1 - sum(d.entries[j][i] for j in range(d.rows)) for i in range(fan.n_rays)]


def anticanonical_consistency_check(fan: Fan, d: IntegerMatrix, total: Fan) -> bool:
    """The anticanonical class of ``total``, the total-space fan of (fan, d),
    is nef exactly when the adjoint class of the base is nef."""
    total_nef, _ = _pl_convex_raw(total, [-1] * total.n_rays)
    return total_nef == class_is_nef(fan, adjoint_coefficients(fan, d))


def conv_in_support_check(fan: Fan, d: IntegerMatrix, total: Fan) -> bool:
    """Hull of 0 and all rays of ``total``, the total-space fan of (fan, d),
    sits inside its support; every bundle row must be nef.

    Decided on vertices and barycenters of every vertex simplex, each point
    tested with `Fan.contains`.
    """
    for j in range(d.rows):
        if not class_is_nef(fan, d.row(j)):
            raise BundleNotNef(f"bundle row {j} is not nef")
    dim = total.dim
    zero = tuple(0 for _ in range(dim))
    pts = [zero] + list(total.rays)
    for size in range(1, dim + 2):
        for subset in combinations(range(len(pts)), size):
            bary = tuple(
                Fraction(sum(pts[i][k] for i in subset), size) for k in range(dim)
            )
            if not total.contains(bary):
                return False
    return True


def w_set_convexity(total: Fan) -> bool:
    """For a total-space fan, the union of per-cone hulls equals the full
    hull of 0 and all rays.

    The pieces project into distinct maximal cones of the base fan, so
    their interiors are disjoint and the union equals the hull iff the
    normalized volumes agree.
    """
    zero = tuple(0 for _ in range(total.dim))
    pieces = 0
    for cone in total.max_cones:
        pieces += simplex_normalized_volume([zero] + [total.rays[i] for i in cone])
    return pieces == total.newton_polytope.volume
