"""Hulls, faces, normalized volumes and lattice points."""

import random
import time
from itertools import combinations, product
from math import comb
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tglab import corpus
from tglab.cli import load_spec
from tglab.errors import DegeneratePolytope
from tglab.intlinalg import IntegerMatrix
from tglab.polytopes import LatticePolytope, _direction_basis
from tglab.rationalcone import _dot, cone_hform, extreme_rays, intersect_hforms, nullspace
from tglab.toricfan import Fan, total_space_fan

SPECS = Path(__file__).resolve().parent.parent / "specs"


def normalized_volume(points):
    return LatticePolytope.from_points(points).volume


def test_segment_faces():
    poly = LatticePolytope.from_points([(0,), (1,), (-1,)])
    fs = poly.faces
    vertex_sets = sorted(tuple(sorted(f.indices)) for f in fs if f.dim == 0)
    assert vertex_sets == [(1,), (2,)]


def test_p2_polytope_faces():
    pts = [(0, 0), (1, 0), (0, 1), (-1, -1)]
    poly = LatticePolytope.from_points(pts)
    fs = poly.faces
    assert sum(1 for f in fs if f.dim == 0) == 3
    assert sum(1 for f in fs if f.dim == 1) == 3
    assert sum(1 for f in fs if f.dim == 2) == 1
    # the origin is interior, on no proper face
    assert all(0 not in f.indices for f in fs if f.dim < poly.dim)


def test_p1_o2_edge_point():
    # (0,1) = midpoint of (1,2) and (-1,0): a generator on an edge
    pts = [(0, 0), (1, 2), (-1, 0), (0, 1)]
    poly = LatticePolytope.from_points(pts)
    assert sorted(poly.vertex_indices) == [0, 1, 2]
    edge = [
        f
        for f in poly.faces
        if f.dim == 1 and f.indices >= {1, 2}
    ]
    assert edge and 3 in edge[0].indices


def test_volume_unit_simplices():
    assert normalized_volume([(0,), (1,)]) == 1
    assert normalized_volume([(0, 0), (1, 0), (0, 1)]) == 1
    assert normalized_volume([(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)]) == 1


def test_volume_p2():
    assert normalized_volume([(0, 0), (1, 0), (0, 1), (-1, -1)]) == 3


def test_volume_p1_o2():
    assert normalized_volume([(0, 0), (1, 2), (-1, 0), (0, 1)]) == 2


def test_volume_degenerate():
    with pytest.raises(DegeneratePolytope):
        normalized_volume([(0, 0), (1, 0), (2, 0)])


def test_volume_triangulation_order_independent():
    rng = random.Random(3)
    cases = [
        [(0, 0), (1, 0), (0, 1), (-1, -1)],
        [(0, 0), (1, 2), (-1, 0), (0, 1)],
        [(0, 0), (1, 0), (-1, 0), (0, 1), (0, -1)],
        [(0, 0, 0), (1, 0, 1), (-1, 0, 0), (0, 1, 1), (0, -1, 0), (0, 0, 1)],
    ]
    for pts in cases:
        base = normalized_volume(pts)
        for _ in range(3):
            shuffled = pts[:]
            rng.shuffle(shuffled)
            assert normalized_volume(shuffled) == base


def test_volume_counts_max_cones_for_complete_fans():
    for fan in (
        corpus.projective_line(),
        corpus.projective_plane(),
        corpus.p1_times_p1(),
        corpus.hirzebruch(1),
    ):
        assert fan.newton_polytope.volume == len(fan.max_cones)


def lattice_points(poly: LatticePolytope):
    """All integer points of the polytope, in lex order: the points of the
    generators' bounding box on which its facets and equalities hold."""
    box = [range(min(c), max(c) + 1) for c in zip(*poly.points)]
    return [
        x for x in product(*box)
        if all(e.value(x) == 0 for e in poly.equalities)
        and all(f.value(x) >= 0 for f in poly.facets)
    ]


def test_lattice_points_square():
    poly = LatticePolytope.from_points([(0, 0), (2, 0), (0, 2), (2, 2)])
    assert len(lattice_points(poly)) == 9


def ehrhart_volume(points):
    """The s-th finite difference of the Ehrhart counts |kP cap Z^s|,
    k = 0..s, each dilate counted by `lattice_points`: s! times the leading
    coefficient of the Ehrhart polynomial, so the normalized volume, and 0
    when the hull is not full-dimensional.  No triangulation is involved."""
    s = len(points[0])
    counts = [
        len(lattice_points(LatticePolytope.from_points([[k * x for x in p] for p in points])))
        for k in range(s + 1)
    ]
    return sum((-1) ** (s - k) * comb(s, k) * counts[k] for k in range(s + 1))


@st.composite
def small_point_sets(draw):
    dim = draw(st.integers(1, 3))
    coord = st.integers(-2, 2)
    return draw(st.lists(st.tuples(*[coord] * dim), min_size=1, max_size=7))


@settings(max_examples=100, deadline=None)
@given(small_point_sets())
def test_volume_against_ehrhart_differences(pts):
    poly = LatticePolytope.from_points(pts)
    if poly.dim < len(pts[0]):
        assert ehrhart_volume(pts) == 0
        with pytest.raises(DegeneratePolytope):
            poly.volume
    else:
        assert poly.volume == ehrhart_volume(pts)


@pytest.mark.parametrize(
    "path", sorted(SPECS.glob("*.json")) + sorted(SPECS.glob("threefolds/*.json")),
    ids=lambda p: p.stem,
)
def test_spec_newton_polytope_volume_against_ehrhart_differences(path):
    spec = load_spec(str(path))
    total = total_space_fan(spec["fan"], spec["bundles"])
    assert total.newton_polytope.volume == ehrhart_volume(total.newton_polytope.points)


# Reference enumerations over subsets of facets or constraints, kept from
# the brute-force implementations that the incidence and duality code
# replaced.  They are exponential and serve only as oracles.


def _projected_rank(rows, basis):
    if not rows or not basis:
        return 0
    mat = [tuple(sum(r[i] * b[i] for i in range(len(b))) for b in basis) for r in rows]
    return len(basis) - len(nullspace(mat, len(basis)))


def reference_vertex_indices(poly):
    """A point is a vertex when its active facet normals span the
    direction space of the polytope; repeated points count once."""
    pts = poly.points
    direction_basis = _direction_basis(pts)
    k = len(direction_basis)
    out = []
    for i, p in enumerate(pts):
        if any(pts[j] == p for j in out):
            continue
        active = [f.normal for f in poly.facets if f.value(p) == 0]
        if k == 0 or _projected_rank(active, direction_basis) == k:
            out.append(i)
    return tuple(out)


def reference_faces(poly):
    """(dim, sorted indices) of every nonempty intersection of a nonempty
    set of facets, plus the whole polytope."""
    seen = set()
    for r in range(1, len(poly.facets) + 1):
        for subset in combinations(range(len(poly.facets)), r):
            idx = frozenset(
                i
                for i, p in enumerate(poly.points)
                if all(poly.facets[j].value(p) == 0 for j in subset)
            )
            if idx:
                seen.add(idx)
    out = [
        (len(_direction_basis([poly.points[i] for i in idx])), sorted(idx)) for idx in seen
    ]
    out.append((poly.dim, list(range(len(poly.points)))))
    return sorted(out)


def reference_extreme_rays(h):
    """Solve every set of at most dim active constraints for a ray, then
    drop rays with a non-maximal active set and positive combinations of
    the others."""
    dim = h.dim
    if not nullspace(list(h.equalities), dim):
        return []
    rays = set()
    for size in range(0, min(len(h.inequalities), dim) + 1):
        for subset in combinations(range(len(h.inequalities)), size):
            rows = list(h.equalities) + [h.inequalities[i] for i in subset]
            sols = nullspace(rows, dim)
            if len(sols) != 1:
                continue
            for cand in (sols[0], tuple(-x for x in sols[0])):
                if h.contains(cand) and any(x != 0 for x in cand):
                    rays.add(cand)

    def active(r):
        return frozenset(i for i, n in enumerate(h.inequalities) if _dot(n, r) == 0)

    rays = sorted(rays)
    extreme = [r for r in rays if not any(active(r) < active(o) for o in rays if o != r)]
    return sorted(
        r
        for i, r in enumerate(extreme)
        if len(extreme) == 1
        or not cone_hform(extreme[:i] + extreme[i + 1:], dim).contains(r)
    )


@st.composite
def point_sets(draw):
    dim = draw(st.integers(1, 4))
    coord = st.integers(-2, 2)
    return draw(
        st.lists(st.tuples(*[coord] * dim), min_size=1, max_size=8 if dim < 4 else 7)
    )


@st.composite
def pointed_cones(draw):
    """H-forms of cones whose generators lie on the positive side of one
    functional, sometimes intersected with a second such cone so that some
    inequalities are redundant."""
    dim = draw(st.integers(1, 4))
    vec = st.tuples(*[st.integers(-3, 3)] * dim)

    def generators():
        w = draw(vec.filter(lambda v: any(v)))
        gens = draw(st.lists(vec, min_size=1, max_size=6))
        return [g if _dot(w, g) > 0 else tuple(-x for x in g) for g in gens if _dot(w, g)]

    h = cone_hform(generators(), dim)
    if draw(st.booleans()):
        h = intersect_hforms([h, cone_hform(generators(), dim)])
    return h


@settings(max_examples=150, deadline=None)
@given(point_sets())
def test_vertices_and_faces_against_subset_enumeration(pts):
    poly = LatticePolytope.from_points(pts)
    assert poly.vertex_indices == reference_vertex_indices(poly)
    fs = poly.faces
    assert [(f.dim, sorted(f.indices)) for f in fs] == sorted(reference_faces(poly))


@settings(max_examples=150, deadline=None)
@given(pointed_cones())
def test_extreme_rays_against_subset_enumeration(h):
    assert extreme_rays(h) == reference_extreme_rays(h)


def test_p1_cubed_newton_polytope_faces_are_fast():
    """The Newton polytope of the total space of O(1,1,1) on P1^3 has 16
    facets and 81 faces; a search over facet subsets took about 1.5 s."""
    rays = [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1)]
    octants = [(a, b, c) for a in (0, 1) for b in (2, 3) for c in (4, 5)]
    total = total_space_fan(
        Fan.make(rays, octants), IntegerMatrix.from_rows([(1, 0, 1, 0, 1, 0)])
    )
    poly = total.newton_polytope
    assert len(poly.facets) == 16
    start = time.perf_counter()
    fs = poly.faces
    elapsed = time.perf_counter() - start
    assert len(fs) == 81
    assert elapsed < 0.5
