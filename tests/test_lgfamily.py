"""Laurent families, Kaehler-moduli restriction, Jacobian rings, classifiers."""

import random
import time
from fractions import Fraction
from itertools import product
from math import gcd, lcm, prod
from operator import itemgetter

import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st
from test_generated_surfaces import surfaces

import examples
from tglab import lgfamily
from tglab.errors import ZeroCoefficient
from tglab.intlinalg import IntegerMatrix, row_reduce
from tglab.lgfamily import (
    NewtonData,
    _fp_witness,
    build_family,
    classify_parameter,
    face_critical_system,
    jacobian_quotient_dim,
    restrict_to_km,
    torus_projection,
)
from tglab.models import build_model
from tglab.polytopes import LatticePolytope
from tglab.semigroups import graded_slice_points
from tglab.toricfan import Fan, class_is_nef, total_space_fan


def test_family_p1():
    B = examples.fan("p1_o2").ray_matrix()
    fam = build_family(B)
    # -l1*y - l2*y^-1 in variables (y, l1, l2)
    assert fam == {
        (1, 1, 0): Fraction(-1),
        (-1, 0, 1): Fraction(-1),
    }


def test_family_p1_o2():
    fan, d = examples.spec("p1_o2")
    B = total_space_fan(fan, d).ray_matrix()
    fam = build_family(B)
    assert fam == {
        (1, 2, 1, 0, 0): Fraction(-1),
        (-1, 0, 0, 1, 0): Fraction(-1),
        (0, 1, 0, 0, 1): Fraction(-1),
    }


def test_family_constant_column():
    B = IntegerMatrix.from_rows([[0]])
    fam = build_family(B)
    assert fam == {(0, 1): Fraction(-1)}


def test_restrict_to_km_signs():
    fan, d = examples.spec("p1_o2")
    model = build_model(fan, d)
    km = restrict_to_km(model.Aprime, model.M, model.m)
    # bundle monomial enters with plus sign
    assert km == {(0, 1, 0): 1, (1, 2, 0): -1, (-1, 0, 1): -1}


def substitute_km_parameters(family: dict, s: int, t: int, M: IntegerMatrix, m: int, q_values):
    """Evaluate the abstract family at lambda_i = (+-1) q^{m_i}; returns a
    Laurent polynomial in y only, as exponent -> coefficient.  Used to check
    the two parameterizations agree (signs included)."""
    lam = [
        Fraction(1 if i < m else -1) * prod(Fraction(q) ** a for q, a in zip(q_values, M.col(i)))
        for i in range(t)
    ]
    return lgfamily._collect(
        (e[:s], v * prod(x**a for x, a in zip(lam, e[s:]))) for e, v in family.items()
    )


def test_km_parameterizations_agree():
    """Substituting lambda_i = (+-1) q^{m_i} into the abstract family equals
    the restricted family, signs included."""
    for fan, d in [examples.spec("p1_o2"), examples.spec("p2_o1"), examples.spec("p1p1_o11")]:
        model = build_model(fan, d)
        B = model.Aprime
        s, t = B.rows, B.cols
        fam = build_family(B)
        km = restrict_to_km(B, model.M, model.m)
        for q_values in ([Fraction(2)], [Fraction(1, 3)], [Fraction(3), Fraction(5)]):
            if len(q_values) != model.M.rows:
                continue
            direct = substitute_km_parameters(fam, s, t, model.M, model.m, q_values)
            specialized = {}
            for e, v in km.items():
                coef = v
                for a in range(model.M.rows):
                    coef *= Fraction(q_values[a]) ** e[s + a]
                specialized[e[:s]] = coef
            assert direct == specialized


def test_km_q_one_recovers_family_at_section():
    fan = examples.fan("p2")
    model = build_model(fan, IntegerMatrix(0, 3, ()))
    B = model.Aprime
    fam = build_family(B)
    km = restrict_to_km(B, model.M, model.m)
    direct = substitute_km_parameters(fam, 2, 3, model.M, model.m, [Fraction(1)])
    assert direct == {e[:2]: v for e, v in km.items()}


def test_jacobian_dim_p1():
    fan = examples.fan("p1_o2")
    res = jacobian_quotient_dim(NewtonData(fan), [1, 1])
    assert res["dim"] == 2


def test_jacobian_dim_p2():
    fan = examples.fan("p2")
    res = jacobian_quotient_dim(NewtonData(fan), [1, 1, 1])
    assert res["dim"] == 3


def test_jacobian_dim_p1_o2():
    fan, d = examples.spec("p1_o2")
    total = total_space_fan(fan, d)
    res = jacobian_quotient_dim(NewtonData(total), [1, Fraction(3, 2), 1])
    assert res["dim"] == 2


def test_jacobian_rejects_zero_coefficient():
    fan = examples.fan("p1_o2")
    with pytest.raises(ZeroCoefficient):
        jacobian_quotient_dim(NewtonData(fan), [1, 0])


def test_jacobian_dim_rescaling_invariance():
    """The torus action lambda_i -> g^{-b_i} lambda_i preserves the
    dimension."""
    fan, d = examples.spec("p1_o2")
    total = total_space_fan(fan, d)
    B = total.ray_matrix()
    newton = NewtonData(total)
    rng = random.Random(13)
    for _ in range(3):
        lam = [Fraction(rng.randint(1, 5)) for _ in range(3)]
        g = [Fraction(rng.randint(1, 3)), Fraction(rng.randint(1, 3))]
        scaled = []
        for i in range(3):
            factor = Fraction(1)
            for k in range(2):
                factor *= g[k] ** (-B.entries[k][i])
            scaled.append(lam[i] * factor)
        d1 = jacobian_quotient_dim(newton, lam)["dim"]
        d2 = jacobian_quotient_dim(newton, scaled)["dim"]
        assert d1 == d2


def _sparse_rank(rows) -> int:
    """Exact rank of sparse rational rows (dict col -> coeff).  Each row
    leads with its last column, which keeps the echelon sparse when the
    columns run by weight (P1^3/O(1,1,1) at grading 7 takes a fifteenth of
    the time it takes leading with the first)."""
    pivots = {}
    rank = 0
    for row in rows:
        row = dict(row)
        while row:
            col = max(row)
            if col in pivots:
                f = row[col]
                prow = pivots[col]
                for c, v in prow.items():
                    row[c] = row.get(c, Fraction(0)) - f * v
                row = {c: v for c, v in row.items() if v}
            else:
                f = row[col]
                pivots[col] = {c: v / f for c, v in row.items()}
                rank += 1
                break
    return rank


def fraction_weight(poly, u):
    """w(u) = min {l >= 0 : u in l * poly} as a Fraction, from the facets
    offset + normal . x >= 0 of a polytope that contains the origin."""
    return max(
        [Fraction(0)]
        + [Fraction(-sum(a * b for a, b in zip(f.normal, u)), f.offset)
           for f in poly.facets if f.offset > 0]
    )


def hull(B):
    """conv(0, columns of B), hulled afresh."""
    return LatticePolytope.from_points([(0,) * B.rows] + [B.col(i) for i in range(B.cols)])


def full_member_list(newton, last):
    """Every cone point in the fan's support up to grading ``last``, from
    one scan of that dilate of a fresh hull, by least grading then lex."""
    points = graded_slice_points(hull(newton.B), last)
    return sorted(((j, p) for j, p in points if newton.fan.contains(p)), key=itemgetter(0))


def reference_sweep(newton, lam, last):
    """Slices 1..last of the Jacobian sweep, each rebuilt from scratch: the
    monomial index, every multiplier row and a Fraction echelon, with the
    members of `full_member_list` weighed by `fraction_weight`."""
    B = newton.B
    lam = [Fraction(x) for x in lam]
    s, t = B.rows, B.cols
    gens = []
    for k in range(s):
        g = {}
        for i in range(t):
            if B.entries[k][i]:
                col = B.col(i)
                g[col] = g.get(col, Fraction(0)) - B.entries[k][i] * lam[i]
        gens.append({e: c for e, c in g.items() if c})
    history = []
    poly = hull(B)
    members_all = [(fraction_weight(poly, p), p) for _, p in full_member_list(newton, last)]
    for bound in range(1, last + 1):
        monos = [p for w, p in members_all if w <= bound]
        mono_index = {p: i for i, p in enumerate(monos)}
        multipliers = [p for w, p in members_all if w <= bound - 1]
        rows = []
        for u in multipliers:
            for g in gens:
                row = {}
                for e, c in g.items():
                    tgt = tuple(a + b for a, b in zip(u, e))
                    if tgt in mono_index:
                        row[mono_index[tgt]] = row.get(mono_index[tgt], Fraction(0)) + c
                if row:
                    rows.append(row)
        history.append(len(monos) - _sparse_rank(rows))
    return history


TOTAL_SPACES = {
    name: total_space_fan(*examples.spec(name))
    for name in ("p1_o2", "p2_o1", "p1p1_o11", "f3_minus_k")
}


def surface_total(rays, rows):
    """The total-space fan of a generated surface with its bundle rows."""
    fan = Fan.make(rays, [[j, (j + 1) % len(rays)] for j in range(len(rays))])
    return total_space_fan(fan, IntegerMatrix.from_rows(rows))


THREEFOLDS = {name: total_space_fan(*examples.spec(f"threefolds/{name}")) for name in
              ("p1cube_o111", "p2_o1o1", "p3_o2")}


def parameters(newton):
    return st.lists(st.builds(Fraction, st.integers(1, 9), st.integers(1, 4)),
                    min_size=newton.B.cols, max_size=newton.B.cols)


@st.composite
def sweep_cases(draw):
    newton = NewtonData(TOTAL_SPACES[draw(st.sampled_from(sorted(TOTAL_SPACES)))])
    return newton, draw(parameters(newton))


@settings(max_examples=100, deadline=None)
@given(sweep_cases())
def test_one_pass_sweep_matches_per_bound_rebuild(case):
    """The one-pass integer sweep gives slices 1..n of the per-bound
    Fraction rebuild, n = B.rows, and slice n as the dimension."""
    newton, lam = case
    slices = reference_sweep(newton, lam, newton.B.rows)
    assert jacobian_quotient_dim(newton, lam) == {"dim": slices[-1], "slices": slices}


@st.composite
def good_samples(draw, source):
    """A NewtonData and a parameter that `classify_parameter` calls good:
    on an lg total space, a threefold or a generated nef surface."""
    if source == "surface":
        total = surface_total(*draw(surfaces(nef=True)))
    else:
        spaces = TOTAL_SPACES if source == "lg" else THREEFOLDS
        total = spaces[draw(st.sampled_from(sorted(spaces)))]
    newton = NewtonData(total)
    lam = draw(parameters(newton))
    assume(classify_parameter(newton, lam)["verdict"] == "good")
    return newton, lam


@pytest.mark.parametrize("source", ["lg", "threefold", "surface"])
@settings(max_examples=5, deadline=None,
          suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow])
@given(data=st.data())
def test_slice_n_is_final_at_good_parameters(source, data):
    """Slice n = B.rows, where the sweep ends, is the whole dimension: at a
    good parameter the rebuilt slices n..n+3 all equal the volume."""
    newton, lam = data.draw(good_samples(source))
    n = newton.B.rows
    assert reference_sweep(newton, lam, n + 3)[n - 1:] == [newton.polytope.volume] * 4


def full_scan(newton):
    """Every cone point up to grading n = B.rows, by least grading then lex."""
    return sorted(graded_slice_points(newton.polytope, newton.B.rows), key=itemgetter(0))


@pytest.mark.parametrize("name", ["p1_o2", "p2", "p2_o1", "p1p1_o11", "threefolds/p1cube_o111",
                                  "threefolds/p2_o1o1", "threefolds/p3_o2"])
def test_members_are_every_cone_point_on_nef_rows(name):
    """On nef rows the support of the total-space fan is the whole cone, so
    the member list keeps every point of the scan."""
    fan, d = examples.spec(name)
    assert all(class_is_nef(fan, row) for row in d.entries)
    newton = NewtonData(total_space_fan(fan, d))
    assert newton.members == full_scan(newton)


@settings(max_examples=20, deadline=None)
@given(surfaces(nef=True))
def test_members_are_every_cone_point_on_generated_nef_rows(surface):
    newton = NewtonData(surface_total(*surface))
    assert newton.members == full_scan(newton)


def test_members_miss_cone_points_off_nef_rows():
    """F3 with (1,1,1,1) is not nef: the fan's support misses cone points,
    and the list keeps 44 of the 48 up to grading 3 (ROADMAP item 1)."""
    newton = NewtonData(TOTAL_SPACES["f3_minus_k"])
    assert (len(newton.members), len(full_scan(newton))) == (44, 48)


def counting_scans(monkeypatch):
    """The dilates of every `graded_slice_points` call the lg members make."""
    dilates = []
    scan = lgfamily.graded_slice_points

    def counting_scan(newton, k):
        dilates.append(k)
        return scan(newton, k)

    monkeypatch.setattr(lgfamily, "graded_slice_points", counting_scan)
    return dilates


# P1/O(2) at lambda = (1, 1, -2): f = -(y1 y2^2 + y1^-1 - 2 y2) has the curve
# y1 y2 = 1 of critical points, so its Jacobian quotient is infinite and the
# slice dimensions grow by one at every bound.
DEGENERATE = ("p1_o2", [1, 1, -2])


def test_degenerate_sweep_reduces_each_row_once(monkeypatch):
    """Cost guard on the degenerate P1/O(2) parameter, whose slices grow
    past the volume: each gradient row y^u y_k df/dy_k, one per member u of
    grading below n and coordinate k, is reduced into the echelon once, and
    the sweep stays far below a second (it took 15 s on P1xP1/O(1,1) when
    every bound re-ranked every row)."""
    name, lam = DEGENERATE
    newton = NewtonData(TOTAL_SPACES[name])
    reduced = []
    reduce_into = lgfamily._reduce_into

    def counting_reduce(pivots, row):
        reduced.append(row)
        return reduce_into(pivots, row)

    monkeypatch.setattr(lgfamily, "_reduce_into", counting_reduce)
    start = time.monotonic()
    res = jacobian_quotient_dim(newton, lam)
    elapsed = time.monotonic() - start
    n = newton.B.rows
    assert res == {"dim": 3, "slices": [2, 3]}
    assert len(reduced) == n * len([m for m in newton.members if m[0] < n])
    assert elapsed < 1.0


@pytest.mark.parametrize("check", [jacobian_quotient_dim, classify_parameter])
def test_parameter_length_checked(check):
    """Too few coefficients is a ValueError, before any face is searched."""
    fan, d = examples.spec("p1_o2")
    total = total_space_fan(fan, d)
    with pytest.raises(ValueError, match="one coefficient per column"):
        check(NewtonData(total), [1, 1])


def test_face_critical_vertex_no_solution():
    B = examples.fan("p1_o2").ray_matrix()
    # lambda_1 y = 0 has no torus solution
    assert face_critical_system(B, [1], [1, 1]) == ([(1,)], [[1], [1]])


def test_face_critical_edge_avoiding_the_origin():
    """The edge [1, 2, 3] of P1/O(2) misses the origin: b_3 = (0, 1) lies
    between b_1 = (1, 2) and b_2 = (-1, 0).  Its system is the face part
    of f and its two log derivatives."""
    fan, d = examples.spec("p1_o2")
    B = total_space_fan(fan, d).ray_matrix()
    assert [1, 2, 3] in [sorted(f.indices) for f in hull(B).faces]
    exponents, rows = face_critical_system(B, [3, 1, 2], [1, 2, 3])
    assert exponents == [(1, 2), (-1, 0), (0, 1)]
    assert rows == [[1, 2, 3], [1, -2, 0], [2, 0, 3]]
    with pytest.raises(ValueError, match="through the origin"):
        face_critical_system(B, [0, 1, 2], [1, 2, 3])


def test_classify_good_p1():
    fan = examples.fan("p1_o2")
    for lam in ([1, 1], [2, Fraction(1, 3)], [5, 7]):
        verdict = classify_parameter(NewtonData(fan), lam)
        assert verdict["verdict"] == "good"


def test_classify_rejects_boundary():
    fan = examples.fan("p1_o2")
    with pytest.raises(ZeroCoefficient):
        classify_parameter(NewtonData(fan), [1, 0])


def test_classify_bad_parameter_p1_o2():
    """lambda on the edge-face degeneracy locus: lambda_1 = lambda_2,
    lambda_3 = -2 lambda_1 makes the no-origin edge system solvable."""
    fan, d = examples.spec("p1_o2")
    total = total_space_fan(fan, d)
    verdict = classify_parameter(NewtonData(total), [1, 1, -2])
    assert verdict["verdict"] == "bad_suspected"
    witness = verdict["evidence"]["bad_face_witness"]
    assert witness == {"face": [1, 2, 3], "prime": 101, "point": (1, 1)}


def test_bad_samples_scan_no_members(monkeypatch):
    """One NewtonData serves many samples; bad_suspected samples stop
    before the Jacobian sweep and scan nothing, and a later good sample
    gets the verdict of a fresh NewtonData."""
    fan, d = examples.spec("p1_o2")
    total = total_space_fan(fan, d)
    dilates = counting_scans(monkeypatch)
    newton = NewtonData(total)
    for _ in range(2):
        assert classify_parameter(newton, [1, 1, -2])["verdict"] == "bad_suspected"
    assert dilates == []
    good = classify_parameter(newton, [1, 1, 1])
    assert good == classify_parameter(NewtonData(total), [1, 1, 1])
    assert dilates


def test_classify_good_p1_o2():
    fan, d = examples.spec("p1_o2")
    total = total_space_fan(fan, d)
    verdict = classify_parameter(NewtonData(total), [1, 1, 1])
    assert verdict["verdict"] == "good"
    assert verdict["evidence"]["jacobian_dim"] == 2


def test_dim_equals_volume_at_random_good_parameters():
    rng = random.Random(101)
    cases = [(examples.fan("p1_o2"), 2), (examples.fan("p2"), 3)]
    cases.append((total_space_fan(*examples.spec("p1_o2")), 2))
    for fan, expected in cases:
        B = fan.ray_matrix()
        found = 0
        while found < 5:
            lam = [
                Fraction(rng.randint(1, 9), rng.randint(1, 4)) for _ in range(B.cols)
            ]
            verdict = classify_parameter(NewtonData(fan), lam)
            if verdict["verdict"] != "good":
                continue
            assert verdict["evidence"]["jacobian_dim"] == expected
            assert expected == fan.newton_polytope.volume
            found += 1


def coprime(row):
    """The rational row divided by the gcd of its entries, gcd(numerators) /
    lcm(denominators): coprime integers, with the same zeros."""
    row = [Fraction(c) for c in row]
    g = Fraction(gcd(*(c.numerator for c in row)), lcm(*(c.denominator for c in row)))
    return [int(c / g) for c in row] if g else row


def residue(exponents, row, y, p):
    """sum_j row[j] y^{exponents[j]} at the point y of (F_p^*)^s, mod p."""
    total = 0
    for e, c in zip(exponents, row):
        term = c
        for yk, ek in zip(y, e):
            term = term * pow(yk, ek, p)
        total += term
    return total % p


def reference_witness(exponents, rows, p):
    """Lex-first common zero on the full grid (F_p^*)^s of the rows scaled
    to coprime integers, or None."""
    rows = [coprime(row) for row in rows]
    return next(
        (
            y
            for y in product(range(1, p), repeat=len(exponents[0]))
            if all(residue(exponents, row, y, p) == 0 for row in rows)
        ),
        None,
    )


@st.composite
def sublattice_systems(draw, primes=(7, 11, 13), ranks=(1, 2), min_points=1):
    """Equations in three variables with every monomial in e0 + L, where L
    has a rank in the closed range `ranks`; scaling the basis by 2 or 3
    makes L non-saturated.  The monomials are e0 plus min_points to
    min_points + 3 drawn steps in L, repeats merged.
    A draw is the critical system of one polynomial (f and its log
    derivatives, as for a face), unrelated equations, or equations whose
    last coefficient is chosen so that they vanish at a drawn point mod p.
    It is (exponents, rows, p), one coefficient row per equation."""
    p = draw(st.sampled_from(primes))
    rank = draw(st.integers(*ranks))
    vec = st.tuples(st.integers(-2, 2), st.integers(-2, 2), st.integers(-2, 2))
    basis = draw(st.lists(vec, min_size=rank, max_size=rank))
    assume(len(row_reduce(basis, 3)[0]) == rank)
    scale = draw(st.integers(1, 3))
    e0 = draw(vec)
    steps = st.lists(st.integers(-2, 2), min_size=rank, max_size=rank)
    exponents = list(dict.fromkeys(
        tuple(e0[k] + scale * sum(a * v[k] for a, v in zip(step, basis)) for k in range(3))
        for step in draw(st.lists(steps, min_size=min_points, max_size=min_points + 3))
    ))
    coeff = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4))
    row = st.lists(coeff, min_size=len(exponents), max_size=len(exponents))
    kind = draw(st.sampled_from(["critical", "unrelated", "planted"]))
    if kind == "critical":
        f = draw(row)
        return exponents, [f] + [[e[k] * c for e, c in zip(exponents, f)] for k in range(3)], p
    rows = draw(st.lists(row, min_size=1, max_size=3))
    if kind == "planted":
        y = draw(st.tuples(*[st.integers(1, p - 1)] * 3))
        # Reduce each row mod p, then pick its last coefficient to vanish at y.
        rows = [[c.numerator * pow(c.denominator, -1, p) % p for c in r] for r in rows]
        last = residue(exponents[-1:], [1], y, p)
        for r in rows:
            r[-1] = -residue(exponents[:-1], r[:-1], y, p) * pow(last, -1, p) % p
    return exponents, rows, p


@settings(max_examples=120, deadline=None)
@given(st.one_of(
    sublattice_systems(), sublattice_systems(primes=(5, 7), ranks=(3, 3), min_points=4)
))
def test_fp_witness_against_full_grid(case):
    """The search on the reduced torus finds a zero exactly when the full
    (F_p^*)^3 grid has one, and every point it returns is a common zero.
    The rank-3 lattices, at small primes, make the search run on a torus of
    dimension d = 3."""
    exponents, rows, p = case
    found = _fp_witness(exponents, rows, p, torus_projection(exponents))
    assert (found is None) == (reference_witness(exponents, rows, p) is None)
    if found is not None:
        assert len(found) == 3 and all(1 <= y < p for y in found)
        assert all(residue(exponents, row, found, p) == 0 for row in map(coprime, rows))


@st.composite
def scaled_parameters(draw):
    """A spec, a parameter and a scale c whose denominator is divisible by a
    test prime.  On P1/O(2) the parameter may lie on the locus
    lambda_3^2 = 4 lambda_1 lambda_2 where the edge [1, 2, 3] has a torus
    critical point, drawn as (a x^2, a y^2, +-2 a x y)."""
    name = draw(st.sampled_from(sorted(TOTAL_SPACES)))
    small = st.builds(Fraction, st.integers(1, 9), st.integers(1, 4))
    if name == "p1_o2" and draw(st.booleans()):
        a, x, y = draw(small), draw(st.integers(1, 3)), draw(st.integers(1, 3))
        lam = [a * x * x, a * y * y, draw(st.sampled_from([2, -2])) * a * x * y]
    else:
        cols = TOTAL_SPACES[name].ray_matrix().cols
        lam = draw(st.lists(small, min_size=cols, max_size=cols))
    den = draw(st.sampled_from([101, 103, 10403])) * draw(st.integers(1, 4))
    return name, lam, Fraction(draw(st.integers(-9, 9).filter(bool)), den)


@settings(max_examples=40, deadline=None)
@given(scaled_parameters())
@example(("p1_o2", [1, 1, -2], Fraction(1, 10403)))
@example(("p1_o2", [1, 1, -2], Fraction(1, 101)))
@example(("p1_o2", [1, 1, -2], Fraction(1, 103)))
def test_verdict_does_not_depend_on_the_scale_of_lambda(case):
    """Scaling lambda keeps every face system's zeros and the Jacobian rank,
    so the verdict and its evidence stay; no test prime is lost to a
    denominator of c lambda.  The examples are the bad parameter of
    `test_classify_bad_parameter_p1_o2` at scales whose denominators the
    test primes divide."""
    name, lam, c = case
    total = TOTAL_SPACES[name]
    newton = NewtonData(total)
    assert classify_parameter(newton, [c * x for x in lam]) == classify_parameter(newton, lam)
