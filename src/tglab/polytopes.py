"""Lattice polytopes: hulls, faces, normalized volume.

Hull computation lifts the points p to rays (1, p) and reuses the cone
machinery; a facet of the polytope is a facet of the lifted cone.  All
else comes from the facet incidences, the sets of points on each facet: a
point is a vertex when the facets through it meet only in copies of it,
and the faces are the closure of the facet incidences under intersection
with a facet (Kaibel-Pfetsch, Comput. Geom. 23, 2002).  The normalized
volume fixes vol([0,1]^s) = s! so that unimodular simplices have volume
one.
"""

from __future__ import annotations

from typing import NamedTuple

from tglab.errors import DegeneratePolytope
from tglab.intlinalg import IntegerMatrix
from tglab.rationalcone import cone_hform, nullspace


def _lift(points):
    return [(1,) + tuple(p) for p in points]


class AffineConstraint(NamedTuple):
    """offset + normal . x  (>= 0 on the polytope, = 0 on the face)."""

    offset: int
    normal: tuple

    def value(self, x):
        return self.offset + sum(a * b for a, b in zip(self.normal, x))


class FaceDescriptor(NamedTuple):
    """A face given by the generator indices lying on it."""

    indices: frozenset
    dim: int


class LatticePolytope:
    """Convex hull of integer generator points (not necessarily vertices)."""

    def __init__(self, ambient_dim: int, points: tuple, vertex_indices: tuple, equalities: tuple,
                 facets: tuple):
        self.ambient_dim = ambient_dim
        self.points = points                  # generator points, order preserved
        self.vertex_indices = vertex_indices  # indices into points
        self.equalities = equalities          # AffineConstraint, = 0 on the polytope
        self.facets = facets                  # AffineConstraint, >= 0 on the polytope

    @staticmethod
    def from_points(points) -> "LatticePolytope":
        pts = tuple(tuple(int(x) for x in p) for p in points)
        if not pts:
            raise ValueError("empty point set")
        dim = len(pts[0])
        h = cone_hform(_lift(pts), dim + 1)
        eqs = tuple(AffineConstraint(int(c[0]), tuple(c[1:])) for c in h.equalities)
        facets = tuple(AffineConstraint(int(c[0]), tuple(c[1:])) for c in h.inequalities)
        # A vertex is a point whose facets meet only in copies of it.
        incidences = _incidences(pts, facets)
        vertex_idx = []
        for i, p in enumerate(pts):
            if any(pts[j] == p for j in vertex_idx):
                continue
            face = frozenset(range(len(pts))).intersection(
                *(on for on in incidences if i in on)
            )
            if all(pts[j] == p for j in face):
                vertex_idx.append(i)
        return LatticePolytope(dim, pts, tuple(vertex_idx), eqs, facets)

    @property
    def dim(self) -> int:
        return len(_direction_basis(self.points))


def _direction_basis(points):
    """Basis of the linear space parallel to the affine span of points."""
    base = points[0]
    diffs = [tuple(a - b for a, b in zip(p, base)) for p in points[1:]]
    dim = len(base)
    perp = nullspace(diffs, dim) if diffs else nullspace([], dim)
    return nullspace(perp, dim)


def _incidences(points, facets):
    """For each facet, the frozenset of indices of the points on it."""
    return [
        frozenset(i for i, p in enumerate(points) if f.value(p) == 0) for f in facets
    ]


def faces(poly: LatticePolytope):
    """All faces of all dimensions, as FaceDescriptor records, sorted by
    (dim, indices).

    The proper faces are the facet incidences closed under intersection
    with a facet.  The whole polytope is included.
    """
    incidences = _incidences(poly.points, poly.facets)
    # A lone point's lifted cone is a ray, whose apex facet holds no point.
    found = {on for on in incidences if on}
    todo = list(found)
    while todo:
        face = todo.pop()
        for on in incidences:
            smaller = face & on
            if smaller and smaller not in found:
                found.add(smaller)
                todo.append(smaller)
    out = [FaceDescriptor(frozenset(range(len(poly.points))), poly.dim)]
    for idx in found:
        out.append(FaceDescriptor(idx, len(_direction_basis([poly.points[i] for i in idx]))))
    out.sort(key=lambda f: (f.dim, sorted(f.indices)))
    return out


def _triangulate(points):
    """Pulling triangulation from the lowest-index vertex; returns simplices
    as tuples of points."""
    pts = [tuple(p) for p in points]
    basis = _direction_basis(pts)
    k = len(basis)
    distinct = []
    for p in pts:
        if p not in distinct:
            distinct.append(p)
    if len(distinct) == k + 1:
        return [tuple(distinct)]
    poly = LatticePolytope.from_points(pts)
    apex_idx = min(poly.vertex_indices)
    apex = pts[apex_idx]
    simplices = []
    for facet in poly.facets:
        if facet.value(apex) == 0:
            continue
        face_pts = [p for p in pts if facet.value(p) == 0]
        for sub in _triangulate(face_pts):
            simplices.append((apex,) + sub)
    return simplices


def normalized_volume(points) -> int:
    """Lattice-normalized volume of the hull (unit cube -> s!).

    Requires a full-dimensional hull; raises DegeneratePolytope otherwise.
    """
    pts = [tuple(int(x) for x in p) for p in points]
    dim = len(pts[0])
    if len(_direction_basis(pts)) != dim:
        raise DegeneratePolytope("hull is not full-dimensional")
    total = 0
    for simplex in _triangulate(pts):
        base = simplex[0]
        mat = IntegerMatrix.from_rows(
            [[p[i] - base[i] for i in range(dim)] for p in simplex[1:]]
        )
        total += abs(mat.det())
    return total


def simplex_normalized_volume(points) -> int:
    """|det| of the edge matrix of a (possibly degenerate) lattice simplex."""
    pts = [tuple(int(x) for x in p) for p in points]
    base = pts[0]
    dim = len(base)
    if len(pts) != dim + 1:
        raise ValueError("need dim+1 points")
    mat = IntegerMatrix.from_rows([[p[i] - base[i] for i in range(dim)] for p in pts[1:]])
    return abs(mat.det())

