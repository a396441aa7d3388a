"""I-function tables, annihilation residues, homogeneity and landing."""

import random
from fractions import Fraction
from functools import cache
from itertools import product

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import examples
from tglab.cohomring import build_ring, chern_data
from tglab.errors import UnsupportedOperator
from tglab.intlinalg import IntegerMatrix, row_reduce
from tglab.models import build_model
from tglab.qdmcheck import (
    ITable,
    ZClass,
    _conjugated_images,
    _graded_images,
    annihilation_check,
    homogeneity_check,
    i_function,
    quot_landing_check,
)
from tglab.weylops import WeylOp, bounded_ideal_membership, qdm_context


def p2_model():
    return build_model(*examples.spec("p2"))


def p1o2_model():
    fan, d = examples.spec("p1_o2")
    return build_model(fan, d)


def _materialised(ring, images):
    """Images as dicts (basis monomial, z exponent) -> Fraction."""
    return {d: zc.materialise(ring) for d, zc in images.items()}


def test_table_a0_is_one():
    model = p2_model()
    table = model.i_table(2)
    unit = tuple(0 for _ in range(3))
    assert table[(0,)] == {(unit, 0): Fraction(1)}


def test_table_p2_first_coefficient():
    model = p2_model()
    table = model.i_table(2)
    # (p + z)^-3 = z^-3 - 3 p z^-4 + 6 p^2 z^-5
    expected = {
        ((0, 0, 0), -3): Fraction(1),
        ((0, 0, 1), -4): Fraction(-3),
        ((0, 0, 2), -5): Fraction(6),
    }
    assert table[(1,)] == expected


def test_table_p1_o2_first_coefficient():
    model = p1o2_model()
    table = model.i_table(2)
    # (2p+z)(2p+2z)/(p+z)^2 = 2 + 2p/z  (p^2 = 0)
    expected = {((0, 0), 0): Fraction(2), ((0, 1), -1): Fraction(2)}
    assert table[(1,)] == expected


def test_annihilation_p2():
    model = p2_model()
    table = model.i_table(9)
    box = model.qdm_generators()["boxes"][0]
    rep = annihilation_check(box, table, 8)
    assert rep["all_zero"]


def test_annihilation_p1_o2():
    model = p1o2_model()
    table = model.i_table(9)
    box = model.qdm_generators()["boxes"][0]
    rep = annihilation_check(box, table, 8)
    assert rep["all_zero"]


def test_annihilation_p1p1_o11():
    fan, d = examples.spec("p1p1_o11")
    model = build_model(fan, d)
    table = model.i_table(9)
    for box in model.qdm_generators()["boxes"]:
        rep = annihilation_check(box, table, 8)
        assert rep["all_zero"]


def test_annihilation_and_homogeneity_p2_o1():
    fan, d = examples.spec("p2_o1")
    model = build_model(fan, d)
    table = model.i_table(9)
    for box in model.qdm_generators()["boxes"]:
        rep = annihilation_check(box, table, 8)
        assert rep["all_zero"]
    hom = homogeneity_check(table, 8)
    assert hom["all_homogeneous"]
    # adjoint weight: 3p - p = 2p, so A_d has degree -2d
    assert [r["expected"] for r in hom["rows"][:4]] == [0, -2, -4, -6]


def test_annihilation_f1_negative_pairing_branch():
    """The first Hirzebruch surface has a ray pairing negatively with an
    effective class, so the telescoped factors hit the numerator branch
    including the m = 0 class factor; annihilation must still be exact."""
    fan = examples.hirzebruch(1)
    model = build_model(fan, IntegerMatrix(0, 4, ()))
    assert any(x < 0 for row in model.L.entries for x in row)
    table = model.i_table(7)
    for box in model.qdm_generators()["boxes"]:
        rep = annihilation_check(box, table, 6)
        assert rep["all_zero"]
    hom = homogeneity_check(table, 6)
    assert hom["all_homogeneous"]


def test_non_annihilating_operator_leaves_residue():
    model = p2_model()
    table = model.i_table(4)
    ctx = model.qdm_generators()["ctx"]
    op = WeylOp.var(ctx, 0)  # multiplication by q alone
    rep = annihilation_check(op, table, 3)
    assert not rep["all_zero"]


def test_degree_action_rule_composition():
    """Applying a product of operators degreewise equals applying the
    normal-ordered product."""
    model = p1o2_model()
    table = model.i_table(11)
    ctx = model.qdm_generators()["ctx"]
    rng = random.Random(31)

    def random_small_op():
        terms = {}
        for _ in range(rng.randint(1, 3)):
            z = rng.randint(0, 1)
            mu = (rng.randint(-1, 1),)
            pa = (rng.randint(0, 2),)
            if abs(mu[0]) + pa[0] > 2:
                continue
            terms[(z, mu, 0, pa)] = rng.randint(-2, 2)
        return WeylOp(ctx, terms)

    for _ in range(8):
        P, Q = random_small_op(), random_small_op()
        dmax = 4
        via_product = _materialised(model.ring, _graded_images(P * Q, table, dmax))
        stage = _graded_images(Q, table, dmax + 3)
        # pad the intermediate table with zeros where Q produced nothing
        full_stage = {(k,): stage.get((k,), ZClass({})) for k in range(dmax + 4)}
        stage_table = ITable(model.ring, model.L, full_stage, table.ctop_mul)
        via_stages = _materialised(model.ring, _graded_images(P, stage_table, dmax))
        for d in via_product:
            assert via_product[d] == via_stages.get(d, {}) or (
                not via_product[d] and not via_stages.get(d, {})
            )


def test_homogeneity_p2():
    model = p2_model()
    table = model.i_table(8)
    rep = homogeneity_check(table, 8)
    assert rep["all_homogeneous"]
    assert [r["expected"] for r in rep["rows"][:4]] == [0, -3, -6, -9]


def test_homogeneity_p1_o2_weight_zero():
    model = p1o2_model()
    table = model.i_table(8)
    rep = homogeneity_check(table, 8)
    assert rep["all_homogeneous"]
    assert all(r["expected"] == 0 for r in rep["rows"])


def test_landing_generator_trivial():
    model = p1o2_model()
    table = model.i_table(7)
    g = model.qdm_generators()
    rep = quot_landing_check(g["boxes"][0], table, 6)
    assert rep["all_land"]


def test_landing_fails_for_one():
    model = p1o2_model()
    table = model.i_table(7)
    g = model.qdm_generators()
    one = WeylOp.one(g["ctx"])
    rep = quot_landing_check(one, table, 6)
    assert not rep["all_land"]
    assert rep["rows"][0]["lands"] is False  # c_top * A_0 = c_top != 0


def test_landing_of_constructed_kernel_element():
    """Search for P with (L_hat + p z) P in the ideal, strip the prefactor,
    and verify the landing property degreewise."""
    model = p1o2_model()
    g = model.qdm_generators()
    ctx = g["ctx"]
    T = WeylOp.zpow(ctx, 1) * WeylOp.var(ctx, 0) * WeylOp.partial(ctx, 0)
    z = WeylOp.zpow(ctx, 1)
    q = WeylOp.var(ctx, 0)
    P = T - q.scale(4) * T - (q * z).scale(2)
    lhat = T.scale(2)  # c1(O(2)) paired with the basis
    prefixed = lhat * P
    res = bounded_ideal_membership(
        prefixed, [g["boxes"][0], g["euler"]], 2, z_range=(0, 2), lam_range=[(0, 2)]
    )
    assert res["status"] == "certificate"
    # P itself does not show up in the ideal at these bounds
    res_p = bounded_ideal_membership(
        P, [g["boxes"][0], g["euler"]], 2, z_range=(0, 2), lam_range=[(0, 2)]
    )
    assert res_p["status"] == "inconclusive"
    table = model.i_table(7)
    rep = quot_landing_check(P, table, 6)
    assert rep["all_land"]


def test_annihilation_rejects_theta_terms():
    model = p1o2_model()
    table = model.i_table(3)
    g = model.qdm_generators()
    with pytest.raises(UnsupportedOperator):
        annihilation_check(g["euler"], table, 2)


def test_euler_lands_in_conjugated_gauge():
    model = p1o2_model()
    table = model.i_table(7)
    g = model.qdm_generators()
    rep = quot_landing_check(g["euler"], table, 6)
    assert rep["all_land"]


# An oracle for the degree walk: every A_d rebuilt from scratch as the full
# product of its telescoped factors, with z-classes as dicts
# (basis monomial, z exponent) -> Fraction.

FANS = {
    "F1": lambda: examples.hirzebruch(1),
    "F2": lambda: examples.hirzebruch(2),
    "p1p1_o11": lambda: examples.fan("p1p1_o11"),
}


@cache
def ring_of(name):
    return build_ring(FANS[name]())


def _ref_mul(ring, a, b):
    out = {}
    for (m1, z1), v1 in a.items():
        for (m2, z2), v2 in b.items():
            for m3, v3 in ring.mul({m1: v1}, {m2: v2}).items():
                out[(m3, z1 + z2)] = out.get((m3, z1 + z2), Fraction(0)) + v3
    return {k: v for k, v in out.items() if v}


def _ref_linear(ring, cls, mm):
    """cls + mm z, or its inverse sum_k (-cls)^k / (mm z)^(k+1)."""
    unit = tuple(0 for _ in range(ring.fan.n_rays))
    return {**{(mono, 0): v for mono, v in cls.items()}, (unit, 1): Fraction(mm)}


def _ref_inverse(ring, cls, mm):
    out, power, k = {}, ring.one(), 0
    while power:
        for mono, v in power.items():
            out[(mono, -k - 1)] = v * Fraction(-1) ** k / Fraction(mm) ** (k + 1)
        power, k = ring.mul(power, cls), k + 1
    return out


def _ref_class(ring, kernel_matrix, coords):
    """The class sum t_i D_i with sum t_i row_i = coords over the ray rows."""
    rows, n_rays = kernel_matrix.entries, ring.fan.n_rays
    aug = [[rows[i][a] for i in range(n_rays)] + [c] for a, c in enumerate(coords)]
    pivots, reduced = row_reduce(aug, n_rays + 1)
    tvec = [0] * n_rays
    for red, col in zip(reduced, pivots):
        tvec[col] = red[n_rays]
    return ring.combination(tvec)


def _ref_basis_classes(ring, kernel_matrix):
    r = kernel_matrix.cols
    return [_ref_class(ring, kernel_matrix, [int(b == a) for b in range(r)]) for a in range(r)]


def reference_i_function(ring, kernel_matrix, m, d_max):
    """The from-scratch product: each A_d multiplies out all its factors."""
    rows = kernel_matrix.entries
    r, n_rays = kernel_matrix.cols, ring.fan.n_rays
    unit = tuple(0 for _ in range(n_rays))
    bundle_cls = [_ref_class(ring, kernel_matrix, [-x for x in row]) for row in rows[m:]]
    degrees = sorted(d for d in product(range(d_max + 1), repeat=r) if sum(d) <= d_max)
    table = {}
    for d in degrees:
        acc = {(unit, 0): Fraction(1)}
        for row, cls in zip(rows[m:], bundle_cls):
            for mm in range(1, -sum(x * y for x, y in zip(row, d)) + 1):
                acc = _ref_mul(ring, acc, _ref_linear(ring, cls, mm))
        for theta in range(m):
            dtheta = sum(x * y for x, y in zip(rows[theta], d))
            cls = ring.divisor_class(theta)
            for mm in range(1, dtheta + 1):
                acc = _ref_mul(ring, acc, _ref_inverse(ring, cls, mm))
            for mm in range(dtheta + 1, 1):
                acc = _ref_mul(ring, acc, _ref_linear(ring, cls, mm))
        table[d] = acc
    return table


def _full_rank(rows, r):
    if r == 1:
        return any(row[0] for row in rows)
    return any(u[0] * v[1] != u[1] * v[0] for u in rows for v in rows)


@st.composite
def kernels(draw):
    """(ring name, ray rows, bundle rows): ray rows of full rank r with
    entries in [-2, 2], bundle rows (minus a first Chern class) in [-2, 0]."""
    name = draw(st.sampled_from(sorted(FANS)))
    n_rays = ring_of(name).fan.n_rays
    r = draw(st.integers(1, 2))
    entry = st.integers(-2, 2)
    rays = draw(st.lists(st.tuples(*[entry] * r), min_size=n_rays, max_size=n_rays))
    bundles = draw(st.lists(st.tuples(*[st.integers(-2, 0)] * r), max_size=1))
    return name, tuple(rays), tuple(bundles)


@settings(max_examples=40, deadline=None)
@given(case=kernels())
@example(case=("F1", ((1, -1), (-1, 1), (1, 0), (0, 1)), ()))
def test_i_function_against_from_scratch_products(case):
    """The degree walk gives the same table, keys in the same order, as
    multiplying every A_d out afresh.  The example's theta rows (1, -1) and
    (-1, 1) make both predecessors of (k, k) step a d_theta from -1 to 0,
    so those degrees are built from degree 0."""
    name, rays, bundles = case
    r = len(rays[0])
    assume(_full_rank(rays, r))
    ring = ring_of(name)
    kernel = IntegerMatrix.from_rows(list(rays) + list(bundles))
    d_max = 4 if r == 2 else 6
    table = i_function(ring, kernel, len(rays), d_max)
    expected = reference_i_function(ring, kernel, len(rays), d_max)
    assert list(table.classes) == list(expected)
    assert {d: table[d] for d in table.classes} == expected


# An oracle for the integer operator action: the Fraction implementation
# both images had before they moved to integers, z-classes as dicts
# (basis monomial, z exponent) -> Fraction and classes as ring dicts.


def _ref_add(a, b):
    out = dict(a)
    for k, v in b.items():
        out[k] = out.get(k, Fraction(0)) + v
    return {k: v for k, v in out.items() if v}


def _ref_degrees(r, d_max):
    return sorted(d for d in product(range(d_max + 1), repeat=r) if sum(d) <= d_max)


def reference_graded(ring, kernel_matrix, op, table, d_max):
    r = op.ctx.nvars
    p_cls = _ref_basis_classes(ring, kernel_matrix)
    unit = tuple(0 for _ in range(ring.fan.n_rays))
    out = {}
    for (zp, mu, th, pa), coeff in op.terms.items():
        for d in _ref_degrees(r, d_max):
            e = tuple(d[a] + pa[a] - mu[a] for a in range(r))
            if any(x < 0 for x in e):
                continue
            val = {(mono, ze + zp): v * coeff for (mono, ze), v in table[e].items()}
            for a in range(r):
                for nu in range(pa[a]):
                    # p_a / z + e_a - nu
                    factor = {(mono, -1): v for mono, v in p_cls[a].items()}
                    factor[(unit, 0)] = Fraction(e[a] - nu)
                    val = _ref_mul(ring, val, factor)
            out[d] = _ref_add(out.get(d, {}), val)
    return out


def reference_conjugated(ring, kernel_matrix, euler_cls, op, table, d_max):
    r = op.ctx.nvars
    euler_coords = [sum(row[a] for row in kernel_matrix.entries) for a in range(r)]
    p_cls = _ref_basis_classes(ring, kernel_matrix)
    out = {}
    for (zp, mu, th, pa), coeff in op.terms.items():
        for e0 in _ref_degrees(r, d_max + sum(pa)):
            target = tuple(e0[a] - pa[a] + mu[a] for a in range(r))
            if any(x < 0 for x in target) or sum(target) > d_max:
                continue
            at_one = {}
            for (mono, _), v in table[e0].items():
                at_one[mono] = at_one.get(mono, Fraction(0)) + v
            cls = ring.scale({k: v for k, v in at_one.items() if v}, coeff)
            e = list(e0)
            w = -sum(euler_coords[a] * e0[a] for a in range(r))
            for a in range(r):
                for _ in range(pa[a]):
                    cls = ring.mul(cls, ring.add(p_cls[a], ring.scale(ring.one(), e[a])))
                    e[a] -= 1
            for _ in range(th):
                cls = ring.mul(cls, ring.add(ring.scale(ring.one(), w), ring.scale(euler_cls, -1)))
                w += 1
            out[target] = ring.add(out.get(target, {}), cls)
    return out


@st.composite
def operator_cases(draw):
    """A kernel as in ``kernels`` and an operator with up to four terms: z powers 0..2, q shifts -1..2, partials 0..2, theta
    powers 0..2 (dropped for the z-graded gauge) and coefficients with
    denominators up to 4."""
    name, rays, bundles = draw(kernels())
    r = len(rays[0])
    small = st.integers(-1, 2)
    terms = {}
    for _ in range(draw(st.integers(1, 4))):
        key = (
            draw(st.integers(0, 2)),
            tuple(draw(small) for _ in range(r)),
            draw(st.integers(0, 2)),
            tuple(draw(st.integers(0, 2)) for _ in range(r)),
        )
        terms[key] = Fraction(draw(st.integers(-3, 3)), draw(st.integers(1, 4)))
    return name, rays, bundles, terms


@settings(max_examples=40, deadline=None)
@given(case=operator_cases())
def test_operator_images_against_fraction_reference(case):
    """Both gauges give exactly the images of the Fraction implementation,
    degree by degree, on tables deep enough for every source.  The
    conjugated oracle is given the Euler class with the kernel's column
    sums as coordinates, the class the table derives for itself."""
    name, rays, bundles, terms = case
    r = len(rays[0])
    assume(_full_rank(rays, r))
    ring = ring_of(name)
    kernel = IntegerMatrix.from_rows(list(rays) + list(bundles))
    d_max = 2
    table = i_function(ring, kernel, len(rays), d_max + 3 * r)
    ctx = qdm_context(r)
    euler_cls = _ref_class(ring, kernel, [sum(row[a] for row in kernel.entries) for a in range(r)])
    op = WeylOp(ctx, terms)
    conjugated = {
        d: {mono: v for (mono, _), v in zc.items()}
        for d, zc in _materialised(ring, _conjugated_images(op, table, d_max)).items()
    }
    assert conjugated == reference_conjugated(ring, kernel, euler_cls, op, table, d_max)
    graded = WeylOp(ctx, {(zp, mu, 0, pa): v for (zp, mu, _, pa), v in terms.items()})
    assert _materialised(ring, _graded_images(graded, table, d_max)) == reference_graded(
        ring, kernel, graded, table, d_max
    )


# The classes the table derives from the kernel rows against chern_data,
# which builds them from the bundle rows: the example models whose table
# exists (the F3 bundle pairs negatively with an effective degree).

CHERN_CASES = {
    "p2": lambda: examples.spec("p2"),
    "p1_o2": lambda: examples.spec("p1_o2"),
    "p2_o1": lambda: examples.spec("p2_o1"),
    "p1p1_o11": lambda: examples.spec("p1p1_o11"),
    "p1_o1": lambda: examples.p1_ok(1),
    "F1": lambda: (examples.hirzebruch(1), IntegerMatrix(0, 4, ())),
}


@pytest.mark.parametrize("name", sorted(CHERN_CASES))
def test_table_euler_and_ctop_are_chern_data(name):
    model = build_model(*CHERN_CASES[name]())
    table = model.i_table(1)
    cd = chern_data(model.ring, model.d)
    for got, cls in ((table.euler_mul, cd["euler_class"]), (table.ctop_mul, cd["c_top"])):
        want = model.ring.multiplier(cls)
        assert (got.rows, got.den) == (want.rows, want.den)
