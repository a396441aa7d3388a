"""Fans, total-space fans, convexity, nef cones and the hull checks."""

from fractions import Fraction
from itertools import combinations
from math import gcd
from pathlib import Path

import pytest
import sympy
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from tglab import cli, corpus, toricfan
from tglab.errors import (
    BundleNotNef,
    IncompleteFan,
    InputError,
    InputNotSmooth,
    NegativeCoefficient,
    NonPrimitiveRay,
)
from tglab.intlinalg import IntegerMatrix
from tglab.models import build_model
from tglab.rationalcone import cone_hform, extreme_rays, intersect_hforms
from tglab.toricfan import (
    Fan,
    anticanonical_consistency_check,
    class_is_nef,
    conv_in_support_check,
    divisor_class_matrix,
    extended_kernel,
    nef_cone_anticones,
    nef_cone_pl,
    nef_hform,
    pl_is_convex,
    total_space_fan,
    validate_fan,
    w_set_convexity,
)

ALL_FANS = {
    "P1": corpus.projective_line(),
    "P2": corpus.projective_plane(),
    "P1xP1": corpus.p1_times_p1(),
    "F0": corpus.hirzebruch(0),
    "F1": corpus.hirzebruch(1),
    "F3": corpus.hirzebruch(3),
}


def test_validate_p2():
    diag = validate_fan(corpus.projective_plane())
    assert diag.smooth and diag.complete and diag.is_fan


def test_validate_incomplete():
    fan = Fan.make([(1, 0), (0, 1)], [(0, 1)])
    diag = validate_fan(fan)
    assert diag.smooth and not diag.complete


def test_validate_non_smooth_cone():
    fan = Fan.make([(1, 0), (1, 2)], [(0, 1)])
    diag = validate_fan(fan)
    assert not diag.smooth


def meet_in_common_face(rays, c1, c2, dim):
    """Fan condition for one pair of cones, by brute force: every extreme
    ray of the intersection lies in the cone on the common rays."""
    inter = intersect_hforms([cone_hform([rays[i] for i in c], dim) for c in (c1, c2)])
    common = cone_hform([rays[i] for i in sorted(set(c1) & set(c2))], dim)
    return all(common.contains(g) for g in extreme_rays(inter))


@st.composite
def cones_sharing_a_facet(draw):
    dim = draw(st.integers(2, 3))
    ray = st.tuples(*[st.integers(-3, 3)] * dim)
    rays = draw(st.lists(ray, min_size=dim + 1, max_size=dim + 1, unique=True))
    assume(all(gcd(*r) == 1 for r in rays))
    shared = tuple(range(dim - 1))
    cones = [shared + (dim - 1,), shared + (dim,)]
    assume(all(IntegerMatrix.from_rows([rays[i] for i in c]).det() != 0 for c in cones))
    return rays, cones, dim


@settings(max_examples=60, deadline=None)
@given(cones_sharing_a_facet())
def test_fan_condition_on_a_shared_facet(case):
    """Two cones on a common facet: the side-of-the-facet test in
    `validate_fan` agrees with intersecting the cones."""
    rays, cones, dim = case
    expected = meet_in_common_face(rays, cones[0], cones[1], dim)
    assert validate_fan(Fan.make(rays, cones)).is_fan == expected


primitive_rays = {
    dim: st.tuples(*[st.integers(-2, 2)] * dim)
    .filter(any)
    .map(lambda r: tuple(x // gcd(*r) for x in r))
    for dim in (2, 3, 4)
}


@st.composite
def cones_sharing_fewer_rays(draw):
    """Two simplicial full-dimensional cones in dimension 2..4 that share
    fewer than dim - 1 rays."""
    dim = draw(st.integers(2, 4))
    shared = draw(st.integers(0, dim - 2))
    n = 2 * dim - shared
    rays = draw(st.lists(primitive_rays[dim], min_size=n, max_size=n, unique=True))
    cones = [tuple(range(dim)), tuple(range(shared)) + tuple(range(dim, n))]
    assume(all(IntegerMatrix.from_rows([rays[i] for i in c]).det() != 0 for c in cones))
    return rays, cones, dim


@settings(max_examples=200, deadline=None)
@given(cones_sharing_fewer_rays())
def test_fan_condition_off_a_shared_facet(case):
    """Two cones that share less than a facet: the lineality test in
    `validate_fan` agrees with intersecting the cones."""
    rays, cones, dim = case
    expected = meet_in_common_face(rays, cones[0], cones[1], dim)
    assert validate_fan(Fan.make(rays, cones)).is_fan == expected


def test_make_rejects_non_primitive():
    with pytest.raises(NonPrimitiveRay, match=r"ray 1, \[2, 0\], is not primitive"):
        Fan.make([(2, 0), (0, 1)], [(0, 1)])


@pytest.mark.parametrize(
    "rays, cones, message",
    [
        pytest.param([], [], "non-empty", id="no-rays"),
        pytest.param([(), ()], [(), ()], "non-empty", id="rays-of-length-zero"),
        pytest.param([(1, 0), (0, 1), (-1,)], [(0, 1)], "same length", id="rays-ragged"),
        pytest.param([(1, 0), (0, 0)], [(0, 1)], r"ray 2, \[0, 0\]", id="ray-zero"),
        pytest.param([(1,), (-1,)], [(0,), (2,)], r"\[3\] names a ray outside 1..2",
                     id="ray-number-past-last"),
        pytest.param([(1,), (-1,)], [(0,), (-1,)], r"\[0\] names a ray outside 1..2",
                     id="ray-number-zero"),
        pytest.param([(1, 0), (0, 1), (-1, -1)], [(0, 1), (2,)], "must list 2 rays",
                     id="cone-too-small"),
        pytest.param([(1, 0), (0, 1), (-1, -1)], [(0, 1), (1, 1)], "repeats a ray",
                     id="cone-repeats-a-ray"),
        pytest.param([(1,), (-1,)], [(0,), (1,), (0,)], "lists a cone twice",
                     id="cone-twice"),
        pytest.param([(1, 0), (0, 1), (-1, -1)], [(0, 1), (2, 1), (1, 2)], r"\[2, 3\] lists",
                     id="cone-twice-in-another-order"),
    ],
)
def test_make_refuses_each_shape_rule(rays, cones, message):
    """Fan.make is the one check of a fan's shape; its messages number rays
    from 1, as a spec does."""
    with pytest.raises(InputError, match=message):
        Fan.make(rays, cones)


def test_total_space_fan_p1_o2():
    fan, d = corpus.p1_o2()
    total = total_space_fan(fan, d)
    assert total.rays == ((1, 2), (-1, 0), (0, 1))
    assert total.max_cones == ((0, 2), (1, 2))
    assert validate_fan(total).smooth


def test_fan_equality_is_by_value():
    a, b = corpus.projective_plane(), corpus.projective_plane()
    assert a == b and hash(a) == hash(b)
    assert a != corpus.p1_times_p1()
    assert a != Fan.make(a.rays, a.max_cones[:2])


def test_diagnostics_repr_names_the_fields():
    """demos/01 prints the diagnostics record."""
    assert repr(validate_fan(corpus.projective_plane())) == (
        "FanDiagnostics(is_fan=True, smooth=True, complete=True, simplicial=True)"
    )


def test_total_space_fan_rank_zero():
    fan = corpus.projective_plane()
    assert total_space_fan(fan, IntegerMatrix(0, 3, ())) == fan


def test_total_space_fan_p1p1():
    fan, d = corpus.p1p1_o11()
    total = total_space_fan(fan, d)
    assert total.dim == 3
    assert total.n_rays == 5
    assert len(total.max_cones) == 4


def test_build_model_refuses_a_row_that_is_neither_nonnegative_nor_nef():
    """The sign rule lives in build_model; total_space_fan builds the fan of
    any row, here P1 with O(-1)."""
    fan = corpus.projective_line()
    d = IntegerMatrix.from_rows([(-1, 0)])
    with pytest.raises(NegativeCoefficient):
        build_model(fan, d)
    assert validate_fan(total_space_fan(fan, d)).smooth


def test_a_nef_row_with_a_negative_entry_reaches_the_smoothness_check():
    """On the complete non-smooth fan of P(1,1,2), the trivial class
    written as (1, 0, -1) passes the sign rule and stops at InputNotSmooth."""
    fan = Fan.make([(1, 0), (0, 1), (-1, -2)], [(0, 1), (1, 2), (0, 2)])
    assert fan.diagnostics.complete and not fan.diagnostics.smooth
    with pytest.raises(InputNotSmooth):
        build_model(fan, IntegerMatrix.from_rows([(1, 0, -1)]))


def test_total_space_smooth_invariant():
    for fan, d in [corpus.p1_o2(), corpus.p2_o1(), corpus.p1p1_o11(), corpus.f3_minus_k()]:
        assert validate_fan(total_space_fan(fan, d)).smooth


def test_pl_convexity_p2_anticanonical():
    assert pl_is_convex(corpus.projective_plane(), [-1, -1, -1]) == (True, True)


def test_pl_convexity_linear_function():
    # values of the global linear function x at the rays of P2
    assert pl_is_convex(corpus.projective_plane(), [1, 0, -1]) == (True, False)


def test_pl_convexity_o_minus_one():
    assert pl_is_convex(corpus.projective_line(), [1, 0]) == (False, False)


def test_pl_needs_complete_fan():
    fan = Fan.make([(1, 0), (0, 1)], [(0, 1)])
    with pytest.raises(IncompleteFan):
        pl_is_convex(fan, [0, 0])


@pytest.mark.parametrize("name", sorted(ALL_FANS))
def test_nef_cone_two_constructions_agree(name):
    fan = ALL_FANS[name]
    assert nef_cone_anticones(fan) == nef_cone_pl(fan)


@pytest.mark.parametrize("name", sorted(ALL_FANS))
def test_nef_cone_pl_solves_once_per_cone_and_class(monkeypatch, name):
    """The linear extension of a unit class depends on the cone and the
    class, not on the ray compared against it."""
    fan = ALL_FANS[name]
    calls = []
    solve = toricfan._linear_extension

    def counting_solve(*args):
        calls.append(args)
        return solve(*args)

    monkeypatch.setattr(toricfan, "_linear_extension", counting_solve)
    nef_cone_pl(fan)
    assert len(calls) == len(fan.max_cones) * divisor_class_matrix(fan).cols


def test_nef_cone_rays_p1xp1():
    nef = nef_cone_anticones(corpus.p1_times_p1())
    assert nef == [(0, 1), (1, 0)]


def test_nef_cone_rank_one_examples():
    for fan in (corpus.projective_line(), corpus.projective_plane()):
        nef = nef_cone_anticones(fan)
        assert len(nef) == 1


def test_pullback_identity_corpus():
    # The total fan's nef cone, in the extended relation lattice, is the base's.
    for fan, d in [corpus.p1_o2(), corpus.p2_o1(), corpus.p1p1_o11()]:
        nef_total = nef_hform(total_space_fan(fan, d), extended_kernel(fan, d))
        assert extreme_rays(nef_total) == nef_cone_anticones(fan)


def test_anticanonical_consistency_corpus():
    for fan, d in [corpus.p1_o2(), corpus.p2_o1(), corpus.p1p1_o11()]:
        assert anticanonical_consistency_check(fan, d, total_space_fan(fan, d))


def test_conv_in_support_positive():
    fan, d = corpus.p1_o2()
    assert conv_in_support_check(fan, d, total_space_fan(fan, d))


def test_conv_in_support_high_twist():
    # stays true for O(k) with k > 2 even though the adjoint class is not nef
    for k in (3, 5):
        fan, d = corpus.p1_ok(k)
        assert conv_in_support_check(fan, d, total_space_fan(fan, d))


def test_conv_in_support_rank_zero():
    fan = corpus.projective_plane()
    assert conv_in_support_check(fan, IntegerMatrix(0, 3, ()), fan)


def test_conv_in_support_needs_nef():
    fan, d = corpus.p1_ok(-1)
    total = total_space_fan(fan, d)
    with pytest.raises(BundleNotNef):
        conv_in_support_check(fan, d, total)


def test_w_set_positive_cases():
    assert w_set_convexity(corpus.projective_plane())
    assert w_set_convexity(total_space_fan(*corpus.p1_o2()))
    assert w_set_convexity(total_space_fan(*corpus.p1p1_o11()))


def test_w_set_negative_f3():
    assert not w_set_convexity(total_space_fan(*corpus.f3_minus_k()))


def test_w_set_negative_twist():
    fan, d = corpus.p1_ok(-1)
    assert not w_set_convexity(total_space_fan(fan, d))


def test_nefness_assumption_detects_o_minus_one():
    fan, d = corpus.p1_ok(-1)
    assert not class_is_nef(fan, d.row(0))


def _spec_total(path):
    spec = cli.load_spec(str(path))
    return total_space_fan(spec["fan"], spec["bundles"])


def _threefold_totals():
    """P1^3/O(1,1,1), P3/O(2) and P2/O(1)+O(1)."""
    signs = [(s1, s2, s3) for s1 in (0, 1) for s2 in (0, 1) for s3 in (0, 1)]
    p1_cubed = Fan.make(
        [tuple(sign * int(i == k) for i in range(3)) for k in range(3) for sign in (1, -1)],
        [tuple(2 * k + s[k] for k in range(3)) for s in signs],
    )
    p3 = Fan.make([(1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, -1)], combinations(range(4), 3))
    p2 = corpus.projective_plane()
    return {
        "P1^3/O(1,1,1)": total_space_fan(p1_cubed, corpus.bundle(p1_cubed, (1, 0, 1, 0, 1, 0))),
        "P3/O(2)": total_space_fan(p3, corpus.bundle(p3, (2, 0, 0, 0))),
        "P2/O(1)+O(1)": total_space_fan(p2, corpus.bundle(p2, (1, 0, 0), (1, 0, 0))),
    }


SUPPORT_FANS = {
    path.stem: _spec_total(path)
    for path in sorted((Path(__file__).resolve().parent.parent / "specs").glob("*.json"))
} | _threefold_totals()


def in_some_cone(fan, v) -> bool:
    """Oracle: v has nonnegative coordinates in the rays of some maximal
    cone, solved over Q by sympy."""
    target = sympy.Matrix([sympy.Rational(x.numerator, x.denominator) for x in map(Fraction, v)])
    for cone in fan.max_cones:
        rays = sympy.Matrix([[fan.rays[i][k] for i in cone] for k in range(fan.dim)])
        if all(x >= 0 for x in rays.LUsolve(target)):
            return True
    return False


@st.composite
def support_queries(draw):
    """A total fan of a spec or a threefold and an integer point, a
    rational point, or the barycenter of some of 0 and the rays."""
    fan = SUPPORT_FANS[draw(st.sampled_from(sorted(SUPPORT_FANS)))]
    kind = draw(st.sampled_from(["integer", "rational", "barycenter"]))
    if kind == "integer":
        return fan, tuple(draw(st.integers(-4, 4)) for _ in range(fan.dim))
    if kind == "rational":
        coord = st.builds(Fraction, st.integers(-8, 8), st.integers(1, 4))
        return fan, tuple(draw(coord) for _ in range(fan.dim))
    pts = [(0,) * fan.dim] + list(fan.rays)
    chosen = draw(st.lists(st.sampled_from(pts), min_size=1, max_size=fan.dim + 1))
    return fan, tuple(Fraction(sum(c), len(chosen)) for c in zip(*chosen))


@settings(max_examples=200, deadline=None)
@given(support_queries())
def test_fan_contains_matches_a_sympy_solve(case):
    fan, v = case
    assert fan.contains(v) == in_some_cone(fan, v)
