"""Semigroup membership, saturation, Gorenstein shift, toric ideals."""

from itertools import combinations_with_replacement, product

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from tglab import corpus
from tglab.errors import NotSaturated
from tglab.intlinalg import IntegerMatrix, homogenize
from tglab.polytopes import LatticePolytope
from tglab.semigroups import (
    AffineSemigroup,
    doubled_semigroup,
    gorenstein_shift_check,
    graded_slice_points,
    interior_shift_check_ungraded,
    saturation_check,
    scan_cone_points,
    semigroup_contains,
    toric_ideal_binomials,
)
from tglab.toricfan import total_space_fan


def p1o2_doubled():
    fan, d = corpus.p1_o2()
    total = total_space_fan(fan, d)
    return total, doubled_semigroup(total.ray_matrix())


def test_membership_trivial_zero():
    _, S = p1o2_doubled()
    assert semigroup_contains(S, (0, 0, 0))


def test_membership_p1_doubled():
    # columns (1,0), (1,1), (1,-1): (2,1) = (1,0)+(1,1)
    S = doubled_semigroup(IntegerMatrix.from_rows([[1, -1]]))
    assert S.graded
    assert semigroup_contains(S, (2, 1))
    assert not semigroup_contains(S, (1, 2))


def test_saturation_p1_o2():
    _, S = p1o2_doubled()
    ok, witness = saturation_check(S, 6)
    assert ok and witness is None


def test_saturation_p2():
    fan = corpus.projective_plane()
    S = doubled_semigroup(fan.ray_matrix())
    ok, witness = saturation_check(S, 6)
    assert ok and witness is None


def test_f3_alternate_representative_not_normal():
    """The anticanonical class of F3 has equivalent nonnegative divisor
    representatives for which the doubled semigroup is not normal; the
    witness appears at grading two."""
    fan = corpus.hirzebruch(3)
    d = IntegerMatrix.from_rows([(0, 2, 4, 0)])
    total = total_space_fan(fan, d)
    S = doubled_semigroup(total.ray_matrix())
    ok, witness = saturation_check(S, 4)
    assert not ok
    assert witness is not None
    assert witness[0] == 2
    assert not semigroup_contains(S, witness)


def test_gorenstein_shift_p1_c0():
    fan = corpus.projective_line()
    S = doubled_semigroup(fan.ray_matrix())
    shift = S.gen(0)  # grading c+1 = 1
    assert gorenstein_shift_check(S, shift, 5, scan_cone_points(S, 5))
    interior = scan_cone_points(S, 5).interior
    # interior points (k, j) with |j| < k
    expected = {(k, j) for k in range(6) for j in range(-k + 1, k) if k >= 1}
    assert interior == expected


def test_gorenstein_shift_p1_o2():
    total, S = p1o2_doubled()
    shift = tuple(a + b for a, b in zip(S.gen(0), S.gen(3)))
    assert shift[0] == 2
    assert gorenstein_shift_check(S, shift, 6, scan_cone_points(S, 6))


def test_gorenstein_requires_saturation():
    fan = corpus.hirzebruch(3)
    d = IntegerMatrix.from_rows([(0, 2, 4, 0)])
    total = total_space_fan(fan, d)
    S = doubled_semigroup(total.ray_matrix())
    with pytest.raises(NotSaturated):
        gorenstein_shift_check(S, S.gen(0), 4, scan_cone_points(S, 4))


def test_gorenstein_shift_degree_and_injectivity():
    total, S = p1o2_doubled()
    shift = tuple(a + b for a, b in zip(S.gen(0), S.gen(3)))
    seen = set()
    for k in range(4):
        for _, pt in graded_slice_points(S, k):
            full = (k,) + tuple(pt)
            image = tuple(a + b for a, b in zip(full, shift))
            assert image[0] == full[0] + 2  # degree shift c+1
            assert image not in seen
            seen.add(image)


def test_interior_aprime_p1_o2():
    fan, d = corpus.p1_o2()
    total = total_space_fan(fan, d)
    Ap = total.ray_matrix()
    lift = doubled_semigroup(Ap)
    assert interior_shift_check_ungraded(total, lift, Ap.col(2), 6, scan_cone_points(lift, 6))


def test_interior_aprime_c0():
    fan = corpus.projective_line()
    lift = doubled_semigroup(fan.ray_matrix())
    assert interior_shift_check_ungraded(fan, lift, (0,), 5, scan_cone_points(lift, 5))


def test_interior_aprime_p1p1():
    fan, d = corpus.p1p1_o11()
    total = total_space_fan(fan, d)
    Ap = total.ray_matrix()
    lift = doubled_semigroup(Ap)
    assert interior_shift_check_ungraded(total, lift, Ap.col(4), 5, scan_cone_points(lift, 5))


def test_toric_ideal_p1_o2():
    B = IntegerMatrix.from_rows([[1, -1, 0], [2, 0, 1]])
    gens = toric_ideal_binomials(B, 4)
    assert gens == [((1, 1, 0), (0, 0, 2))]


def test_toric_ideal_p2_homogenized():
    B = homogenize(IntegerMatrix.from_rows([[1, 0, -1], [0, 1, -1]]))
    gens = toric_ideal_binomials(B, 4)
    assert gens == [((3, 0, 0, 0), (0, 1, 1, 1))]


def test_toric_ideal_zero_lattice():
    assert toric_ideal_binomials(IntegerMatrix.identity(2), 4) == []


def _monomial(variables, exps):
    return sympy.Mul(*(v**e for v, e in zip(variables, exps)))


def _elimination_toric_ideal(B, xs):
    """The toric ideal of B by elimination: x_j t^(a_j-) - t^(a_j+) and
    w prod(t) - 1 in lex order, keeping the elements free of t and w."""
    ts = sympy.symbols(f"t0:{B.rows}")
    w = sympy.Symbol("w")
    polys = [
        xs[j] * _monomial(ts, [max(-a, 0) for a in B.col(j)])
        - _monomial(ts, [max(a, 0) for a in B.col(j)])
        for j in range(B.cols)
    ]
    polys.append(w * sympy.Mul(*ts) - 1)
    G = sympy.groebner(polys, *ts, w, *xs, order="lex")
    return [g for g in G.exprs if not g.free_symbols & (set(ts) | {w})]


@pytest.mark.parametrize(
    "B",
    [
        pytest.param(IntegerMatrix.from_rows([[1, 1, 1, 1], [0, 1, 2, 3]]), id="twisted-cubic"),
        pytest.param(IntegerMatrix.from_rows([[1, 1, 1, 1, 1], [0, 1, 2, 3, 4]]),
                     id="normal-quartic"),
        pytest.param(IntegerMatrix.from_rows([[1, 1, 1, 1], [0, 1, 3, 4]]), id="curve-0134"),
        pytest.param(IntegerMatrix.from_rows([[1, -1, 0], [2, 0, 1]]), id="p1-o2"),
        pytest.param(homogenize(IntegerMatrix.from_rows([[1, 0, -1], [0, 1, -1]])),
                     id="p2-homogenized"),
    ],
)
def test_toric_ideal_against_groebner_elimination(B):
    xs = sympy.symbols(f"x0:{B.cols}")
    binomials = [
        _monomial(xs, big) - _monomial(xs, small) for big, small in toric_ideal_binomials(B, 4)
    ]
    expected = sympy.groebner(_elimination_toric_ideal(B, xs), *xs, order="grevlex")
    assert sympy.groebner(binomials, *xs, order="grevlex").exprs == expected.exprs


def test_w_convexity_implies_saturation_on_corpus():
    from tglab.toricfan import w_set_convexity

    for fan, d in [corpus.p1_o2(), corpus.p2_o1(), corpus.p1p1_o11()]:
        total = total_space_fan(fan, d)
        assert w_set_convexity(total)
        S = doubled_semigroup(total.ray_matrix())
        ok, _ = saturation_check(S, 4)
        assert ok


# Brute-force oracles for the slice layer: the grading-k elements of a
# doubled semigroup are the sums of k-element generator multisets, and its
# cone at grading k is the k-dilated hull of 0 and the columns.

ORACLE_GRADING = 4


def multiset_sums(gens, k):
    return {
        tuple(map(sum, zip((0,) * len(gens[0]), *combo)))
        for combo in combinations_with_replacement(gens, k)
    }


def dilated_hull_points(S, k):
    """The lattice points of k * conv(0, columns), in lex order, from the
    hull's facets: independent of the semigroup's cone."""
    tails = [S.gen(i)[1:] for i in range(S.n_gens)]
    hull = LatticePolytope.from_points([[k * x for x in t] for t in tails])
    box = [range(min(c), max(c) + 1) for c in zip(*hull.points)]
    return [
        x for x in product(*box)
        if all(e.value(x) == 0 for e in hull.equalities)
        and all(f.value(x) >= 0 for f in hull.facets)
    ]


columns_2d = st.lists(
    st.tuples(st.integers(-2, 2), st.integers(-2, 2)), min_size=3, max_size=5
)


@settings(max_examples=60, deadline=None)
@given(columns_2d)
def test_slices_against_multiset_oracle(cols):
    S = doubled_semigroup(IntegerMatrix.from_rows([[c[i] for c in cols] for i in range(2)]))
    gens = [S.gen(i) for i in range(S.n_gens)]
    hulls = [dilated_hull_points(S, k) for k in range(ORACLE_GRADING + 1)]
    expected_witness = None
    for k in range(ORACLE_GRADING + 1):
        members = multiset_sums(gens, k)
        reference = hulls[k]
        points = graded_slice_points(S, k)
        assert [p for _, p in points] == reference
        # each point's least grading is the first dilate that holds it
        assert all(j == next(i for i, hull in enumerate(hulls) if p in hull) for j, p in points)
        r = 2 * k + 1
        for tail in product(range(-r, r + 1), repeat=2):
            v = (k,) + tail
            assert semigroup_contains(S, v) == (v in members)
        if expected_witness is None:
            expected_witness = next(
                ((k,) + p for p in reference if (k,) + p not in members), None
            )
    assert not semigroup_contains(S, (-1, 0, 0))
    assert S.slice(-1) == frozenset()
    ok, witness = saturation_check(S, ORACLE_GRADING)
    assert witness == expected_witness
    assert ok == (expected_witness is None)


def test_ungraded_lift_on_nonconvex_support():
    """P1/O(-1): the two unimodular cones of the total space do not cover
    the plane, so points outside its support are decided by the graded
    lift."""
    fan, d = corpus.p1_ok(-1)
    total = total_space_fan(fan, d, allow_negative=True)
    Ap = total.ray_matrix()
    S = AffineSemigroup(Ap)
    lift = doubled_semigroup(Ap)
    cols = [Ap.col(i) for i in range(Ap.cols)]

    def in_subcone(v):
        x, y = v
        return (x >= 0 and x + y >= 0) or (x <= 0 and y >= 0)

    box = list(product(range(-3, 4), repeat=2))
    assert all(total.contains(v) == in_subcone(v) for v in box)
    uncovered = [v for v in box if not in_subcone(v)]
    assert uncovered
    for bound in (2, 4):
        reachable = set().union(*(multiset_sums(cols, k) for k in range(bound + 1)))
        for v in box:
            assert semigroup_contains(S, v, lift=lift, lift_bound=bound) == (v in reachable)
    # The columns generate all of Z^2, so a large enough lift finds every point.
    assert all(semigroup_contains(S, v, lift=lift, lift_bound=9) for v in uncovered)
