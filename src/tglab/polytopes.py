"""Lattice polytopes: hulls, faces, normalized volume, lattice points.

Hull computation lifts the points p to rays (1, p) and reuses the cone
machinery; a facet of the polytope is a facet of the lifted cone.  The
normalized volume fixes vol([0,1]^s) = s! so that unimodular simplices
have volume one.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, product

from tglab.errors import DegeneratePolytope
from tglab.intlinalg import IntegerMatrix
from tglab.rationalcone import cone_hform, nullspace


def _lift(points):
    return [(1,) + tuple(p) for p in points]


@dataclass(frozen=True)
class AffineConstraint:
    """offset + normal . x  (>= 0 on the polytope, = 0 on the face)."""

    offset: int
    normal: tuple

    def value(self, x):
        return self.offset + sum(a * b for a, b in zip(self.normal, x))


@dataclass(frozen=True)
class FaceDescriptor:
    """A face given by the generator indices lying on it."""

    indices: frozenset
    dim: int
    supporting: AffineConstraint | None  # None for the whole polytope
    contains_origin: bool


@dataclass(frozen=True)
class LatticePolytope:
    """Convex hull of integer generator points (not necessarily vertices)."""

    ambient_dim: int
    points: tuple            # generator points, order preserved
    vertex_indices: tuple    # indices into points
    equalities: tuple        # AffineConstraint, = 0 on the polytope
    facets: tuple            # AffineConstraint, >= 0 on the polytope

    @staticmethod
    def from_points(points) -> "LatticePolytope":
        pts = tuple(tuple(int(x) for x in p) for p in points)
        if not pts:
            raise ValueError("empty point set")
        dim = len(pts[0])
        h = cone_hform(_lift(pts), dim + 1)
        eqs = tuple(AffineConstraint(int(c[0]), tuple(c[1:])) for c in h.equalities)
        facets = tuple(AffineConstraint(int(c[0]), tuple(c[1:])) for c in h.inequalities)
        # Vertex test: active facet normals span the polytope direction space.
        direction_basis = _direction_basis(pts)
        k = len(direction_basis)
        vertex_idx = []
        for i, p in enumerate(pts):
            if any(pts[j] == p for j in vertex_idx):
                continue
            active = [f.normal for f in facets if f.value(p) == 0]
            if k == 0 or _projected_rank(active, direction_basis) == k:
                vertex_idx.append(i)
        return LatticePolytope(dim, pts, tuple(vertex_idx), eqs, facets)

    @property
    def dim(self) -> int:
        return len(_direction_basis(self.points))

    def contains(self, x) -> bool:
        return all(e.value(x) == 0 for e in self.equalities) and all(
            f.value(x) >= 0 for f in self.facets
        )

    def vertices(self):
        return [self.points[i] for i in self.vertex_indices]


def _direction_basis(points):
    """Basis of the linear space parallel to the affine span of points."""
    base = points[0]
    diffs = [tuple(a - b for a, b in zip(p, base)) for p in points[1:]]
    dim = len(base)
    perp = nullspace(diffs, dim) if diffs else nullspace([], dim)
    return nullspace(perp, dim)


def _projected_rank(rows, basis):
    """Rank of the functionals row -> (row . b for b in basis)."""
    if not rows or not basis:
        return 0
    mat = [
        tuple(sum(r[i] * b[i] for i in range(len(b))) for b in basis)
        for r in rows
    ]
    return len(basis) - len(nullspace(mat, len(basis)))


def faces(poly: LatticePolytope):
    """All faces of all dimensions, as FaceDescriptor records.

    Faces arise as intersections of facet subsets; the whole polytope is
    included with supporting functional None.
    """
    n_facets = len(poly.facets)
    seen = {}
    whole = frozenset(range(len(poly.points)))
    for r in range(1, n_facets + 1):
        for subset in combinations(range(n_facets), r):
            idx = frozenset(
                i
                for i, p in enumerate(poly.points)
                if all(poly.facets[j].value(p) == 0 for j in subset)
            )
            if not idx or idx in seen:
                continue
            support = poly.facets[subset[0]]
            if len(subset) > 1:
                off = sum(poly.facets[j].offset for j in subset)
                nrm = tuple(
                    sum(poly.facets[j].normal[k] for j in subset)
                    for k in range(poly.ambient_dim)
                )
                support = AffineConstraint(off, nrm)
            seen[idx] = support
    out = []
    zero = tuple(0 for _ in range(poly.ambient_dim))
    for idx, support in seen.items():
        pts = [poly.points[i] for i in idx]
        fdim = len(_direction_basis(pts)) if pts else -1
        out.append(
            FaceDescriptor(
                indices=idx,
                dim=fdim,
                supporting=support,
                contains_origin=any(poly.points[i] == zero for i in idx),
            )
        )
    out.append(
        FaceDescriptor(
            indices=whole,
            dim=poly.dim,
            supporting=None,
            contains_origin=any(p == zero for p in poly.points),
        )
    )
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


def lattice_points(poly: LatticePolytope):
    """All integer points of the polytope, ordered lexicographically."""
    verts = poly.vertices()
    dim = poly.ambient_dim
    lo = [min(v[i] for v in verts) for i in range(dim)]
    hi = [max(v[i] for v in verts) for i in range(dim)]
    out = []
    for cand in product(*[range(lo[i], hi[i] + 1) for i in range(dim)]):
        if poly.contains(cand):
            out.append(cand)
    return out
