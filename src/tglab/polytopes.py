"""Lattice polytopes: hulls, faces, normalized volume.

Hull computation lifts the points p to rays (1, p) and reuses the cone
machinery: the one `cone_hform` of the lifted points is the polytope's
`cone`, and a facet of the polytope is a facet of that cone.  All else
comes from the facet incidences, the sets of points on each facet: a
point is a vertex when the facets through it meet only in copies of it,
and the faces are the closure of the facet incidences under intersection
with a facet (Kaibel-Pfetsch, Comput. Geom. 23, 2002).  The normalized
volume fixes vol([0,1]^s) = s! so that unimodular simplices have volume
one; it is summed over a pulling triangulation that recurses over those
faces (De Loera-Rambau-Santos, Triangulations, 2010, Sec. 4.3), so no face
is hulled again.  Each of these is computed on first use and kept with
the polytope.
"""

from __future__ import annotations

from functools import cached_property
from typing import NamedTuple

from tglab.errors import DegeneratePolytope
from tglab.intlinalg import IntegerMatrix
from tglab.rationalcone import HForm, cone_hform, nullspace


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

    def __init__(self, points: tuple, cone: HForm):
        self.points = points  # generator points, order preserved
        self.cone = cone      # H-form of the cone over the lifted points (1, p)
        self.equalities = tuple(AffineConstraint(c[0], c[1:]) for c in cone.equalities)
        self.facets = tuple(AffineConstraint(c[0], c[1:]) for c in cone.inequalities)

    @staticmethod
    def from_points(points) -> "LatticePolytope":
        pts = tuple(tuple(int(x) for x in p) for p in points)
        if not pts:
            raise ValueError("empty point set")
        return LatticePolytope(pts, cone_hform([(1,) + p for p in pts], len(pts[0]) + 1))

    @cached_property
    def dim(self) -> int:
        return len(_direction_basis(self.points))

    @cached_property
    def incidences(self) -> list:
        """For each facet, the frozenset of indices of the points on it."""
        return [
            frozenset(i for i, p in enumerate(self.points) if f.value(p) == 0)
            for f in self.facets
        ]

    @cached_property
    def vertex_indices(self) -> tuple:
        """Indices of the vertices into points, the first of repeated points:
        a vertex is a point whose facets meet only in copies of it."""
        pts = self.points
        out = []
        for i, p in enumerate(pts):
            if any(pts[j] == p for j in out):
                continue
            face = frozenset(range(len(pts))).intersection(
                *(on for on in self.incidences if i in on)
            )
            if all(pts[j] == p for j in face):
                out.append(i)
        return tuple(out)

    @cached_property
    def faces(self) -> list:
        """All faces of all dimensions, as FaceDescriptor records, sorted by
        (dim, indices).

        The proper faces are the facet incidences closed under intersection
        with a facet.  The face lattice is graded by dimension, so a face is
        one dimension above the largest face inside it, and a vertex is a
        face with none inside it.  The whole polytope is included.
        """
        # A lone point's lifted cone is a ray, whose apex facet holds no point.
        found = {on for on in self.incidences if on}
        todo = list(found)
        while todo:
            face = todo.pop()
            for on in self.incidences:
                smaller = face & on
                if smaller and smaller not in found:
                    found.add(smaller)
                    todo.append(smaller)
        dims = {}
        for idx in sorted(found, key=len):
            dims[idx] = 1 + max((dims[g] for g in dims if g < idx), default=-1)
        out = [FaceDescriptor(frozenset(range(len(self.points))), self.dim)]
        out += [FaceDescriptor(idx, dim) for idx, dim in dims.items()]
        out.sort(key=lambda f: (f.dim, sorted(f.indices)))
        return out

    @cached_property
    def volume(self) -> int:
        """Lattice-normalized volume of the hull (unit cube -> s!).

        A pulling triangulation over `faces`, smallest faces first: a vertex
        is its own simplex, and a k-face is the join of its lowest-index
        vertex with the simplices of the (k-1)-faces inside it that miss
        that vertex.  Requires a full-dimensional hull; raises
        DegeneratePolytope otherwise.
        """
        if self.dim != len(self.points[0]):
            raise DegeneratePolytope("hull is not full-dimensional")
        vertices = set(self.vertex_indices)
        simplices = {}  # face indices -> its simplices, as tuples of point indices
        for f in self.faces:
            apex = min(vertices & f.indices)
            simplices[f.indices] = [(apex,)] if f.dim == 0 else [
                (apex,) + simplex
                for g in self.faces
                if g.dim == f.dim - 1 and g.indices < f.indices and apex not in g.indices
                for simplex in simplices[g.indices]
            ]
        top = simplices[frozenset(range(len(self.points)))]
        return sum(simplex_normalized_volume([self.points[i] for i in s]) for s in top)


def _direction_basis(points):
    """Basis of the linear space parallel to the affine span of points."""
    base = points[0]
    diffs = [tuple(a - b for a, b in zip(p, base)) for p in points[1:]]
    return nullspace(nullspace(diffs, len(base)), len(base))


def simplex_normalized_volume(points) -> int:
    """|det| of the edge matrix of a (possibly degenerate) lattice simplex."""
    pts = [tuple(int(x) for x in p) for p in points]
    base = pts[0]
    dim = len(base)
    if len(pts) != dim + 1:
        raise ValueError("need dim+1 points")
    mat = IntegerMatrix.from_rows([[p[i] - base[i] for i in range(dim)] for p in pts[1:]])
    return abs(mat.det())

