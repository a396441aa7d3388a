"""Operator algebra: normal ordering, builders, substitutions, membership."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tglab import corpus
from tglab.errors import DimensionMismatch, NotLogExpressible, NotSameImage
from tglab.intlinalg import IntegerMatrix, homogenize, kernel_lattice
from tglab.models import build_model
from tglab.weylops import (
    OpContext,
    WeylOp,
    bounded_ideal_membership,
    box_operator,
    duality_morphism,
    fl_hat_generators,
    fl_match_homogenized,
    fl_substitution,
    gkz_generators,
    homogenized_box,
    hat_box,
    psi_twist,
    qdm_box,
    qdm_context,
    shift_morphism_factorization,
    theta_restrict,
    tilde_box,
)

CORPUS = [corpus.p1_o2(), corpus.p2_o1(), corpus.p1p1_o11()]


def test_commutation_partial_lambda():
    ctx = OpContext.make(1)
    left = WeylOp.partial(ctx, 0) * WeylOp.var(ctx, 0)
    right = WeylOp.var(ctx, 0) * WeylOp.partial(ctx, 0) + WeylOp.one(ctx)
    assert left == right


def test_commutation_theta_z():
    ctx = OpContext.make(1)
    th, z = WeylOp.theta_z(ctx), WeylOp.zpow(ctx, 1)
    assert th * z == z * th + WeylOp.zpow(ctx, 2)
    assert th * WeylOp.zpow(ctx, -1) == WeylOp.zpow(ctx, -1) * th - WeylOp.one(ctx)


def test_log_derivative_square():
    ctx = OpContext.make(1)
    ld = WeylOp.var(ctx, 0) * WeylOp.partial(ctx, 0)
    expanded = WeylOp.monomial(ctx, lam=(2,), pa=(2,)) + WeylOp.monomial(
        ctx, lam=(1,), pa=(1,)
    )
    assert ld * ld == expanded


def test_laurent_inverse_commutation():
    ctx = OpContext.make(1, laurent=True)
    d, linv = WeylOp.partial(ctx, 0), WeylOp.var(ctx, 0, -1)
    # d * l^-1 = l^-1 d - l^-2
    assert d * linv == linv * d - WeylOp.var(ctx, 0, -2)
    l = WeylOp.var(ctx, 0)
    assert (l * linv) == WeylOp.one(ctx)
    assert (linv * l) == WeylOp.one(ctx)


def test_context_equality_is_by_value():
    """Operators of equal contexts combine; of different contexts they do not."""
    a, b = OpContext.make(2, laurent=(True, False)), OpContext.make(2, laurent=(True, False))
    assert a == b and hash(a) == hash(b)
    assert WeylOp.var(a, 0) + WeylOp.var(b, 0) == WeylOp.var(a, 0).scale(2)
    other = OpContext.make(2, laurent=(True, False), names=("f1", "f2"))
    assert a != other
    with pytest.raises(DimensionMismatch):
        WeylOp.var(a, 0) + WeylOp.var(other, 0)


def test_negative_power_of_non_laurent_variable_refused():
    """A raw term with lambda^-1 on a non-invertible variable is refused as
    a right factor, whether or not the left factor differentiates it;
    lambda^-1 on the invertible variable of the same context is not."""
    ctx = OpContext.make(2, laurent=(True, False))
    bad = WeylOp(ctx, {(0, (0, -1), 0, (0, 0)): 1})
    for left in (WeylOp.one(ctx), WeylOp.partial(ctx, 1), WeylOp.partial(ctx, 0)):
        with pytest.raises(NotLogExpressible):
            left * bad
    assert WeylOp.partial(ctx, 0) * WeylOp.var(ctx, 0, -1) == WeylOp(
        ctx, {(0, (-1, 0), 0, (1, 0)): 1, (0, (-2, 0), 0, (0, 0)): -1}
    )


def test_normal_order_confluence_random():
    rng = random.Random(23)
    ctx = OpContext.make(2, laurent=(True, False))

    def random_op():
        terms = {}
        for _ in range(rng.randint(1, 3)):
            z = rng.randint(-1, 1)
            lam = (rng.randint(-2, 2), rng.randint(0, 2))
            th = rng.randint(0, 2)
            pa = (rng.randint(0, 2), rng.randint(0, 2))
            if sum(pa) + th + abs(lam[0]) + lam[1] > 4:
                continue
            terms[(z, lam, th, pa)] = rng.randint(-3, 3)
        return WeylOp(ctx, terms)

    for _ in range(100):
        a, b, c = random_op(), random_op(), random_op()
        assert (a * b) * c == a * (b * c)


def test_gkz_generators_p1_o2():
    fan, d = corpus.p1_o2()
    model = build_model(fan, d)
    g = gkz_generators(model.Aprime, [0, 0], kernel_basis=model.L)
    ctx = g["ctx"]
    box = g["boxes"][0]
    assert box == WeylOp.partial(ctx, 2, 2) - WeylOp.partial(ctx, 0) * WeylOp.partial(ctx, 1)
    e1 = (WeylOp.var(ctx, 0) * WeylOp.partial(ctx, 0)) - (
        WeylOp.var(ctx, 1) * WeylOp.partial(ctx, 1)
    )
    e2 = (WeylOp.var(ctx, 0) * WeylOp.partial(ctx, 0)).scale(2) + (
        WeylOp.var(ctx, 2) * WeylOp.partial(ctx, 2)
    )
    assert g["eulers"][0] == e1
    assert g["eulers"][1] == e2


def test_box_of_zero_relation():
    ctx = OpContext.make(3)
    assert box_operator(ctx, (0, 0, 0)).is_zero()


def test_homogenized_box_p1():
    ctx = OpContext.make(3, names=("l0", "l1", "l2"))
    box = homogenized_box(ctx, (1, 1))
    assert box == WeylOp.partial(ctx, 1) * WeylOp.partial(ctx, 2) - WeylOp.partial(ctx, 0, 2)


def test_homogenized_box_p2():
    ctx = OpContext.make(4, names=("l0", "l1", "l2", "l3"))
    box = homogenized_box(ctx, (1, 1, 1))
    expected = (
        WeylOp.partial(ctx, 1) * WeylOp.partial(ctx, 2) * WeylOp.partial(ctx, 3)
        - WeylOp.partial(ctx, 0, 3)
    )
    assert box == expected


def test_homogenized_box_balanced_relation():
    ctx = OpContext.make(4, names=("l0", "l1", "l2", "l3"))
    box = homogenized_box(ctx, (1, 1, -2))  # lbar = 0, plain box
    expected = WeylOp.partial(ctx, 1) * WeylOp.partial(ctx, 2) - WeylOp.partial(ctx, 3, 2)
    assert box == expected


def test_hat_generators_p1_o2():
    fan, d = corpus.p1_o2()
    model = build_model(fan, d)
    g = fl_hat_generators(model.Aprime, [0, 0, 0], kernel_basis=model.L)
    ctx = g["ctx"]
    z = WeylOp.zpow(ctx, 1)
    zd3 = z * WeylOp.partial(ctx, 2)
    zd1 = z * WeylOp.partial(ctx, 0)
    zd2 = z * WeylOp.partial(ctx, 1)
    assert g["boxes"][0] == zd3 * zd3 - zd1 * zd2
    ehat = WeylOp.theta_z(ctx)
    for i in range(3):
        ehat = ehat + z * WeylOp.var(ctx, i) * WeylOp.partial(ctx, i)
    assert g["ehat"] == ehat


def test_hat_euler_homogeneous_at_zero_parameter():
    fan, d = corpus.p1_o2()
    model = build_model(fan, d)
    g = fl_hat_generators(model.Aprime, [0, 0, 0], kernel_basis=model.L)
    for op in g["eulers"]:
        for (z, lam, th, pa) in op.terms:
            assert any(lam) or any(pa)  # no constant term at beta = 0


def test_fl_substitution_simple():
    ctx = OpContext.make(2, names=("l0", "l1"))
    img, clearing = fl_substitution(WeylOp.partial(ctx, 0))
    assert img == WeylOp.zpow(img.ctx, -1)
    assert clearing == 1


def test_fl_substitution_matches_hat_everywhere():
    for fan, d in CORPUS:
        model = build_model(fan, d)
        for a in range(model.r):
            rec = fl_match_homogenized(model.Aprime, model.L.col(a))
            assert rec["matches"]
            assert rec["sign"] == -1


def test_fl_substitution_euler_shift():
    fan, d = corpus.p1_o2()
    model = build_model(fan, d)
    B = model.Aprime
    t = B.cols
    hctx = OpContext.make(t + 1, names=tuple(f"l{i}" for i in range(t + 1)))
    e0 = WeylOp.zero(hctx)
    for i in range(t + 1):
        e0 = e0 + WeylOp.var(hctx, i) * WeylOp.partial(hctx, i)
    for beta0 in (0, 1, -2):
        img, _ = fl_substitution(e0 - WeylOp.scalar(hctx, beta0))
        zimg = WeylOp.zpow(img.ctx, 1) * img
        hat = fl_hat_generators(B, [beta0 + 1, 0, 0], kernel_basis=model.L)
        assert zimg == hat["ehat"]


def test_shift_morphism_p1():
    Bt = homogenize(corpus.projective_line().ray_matrix())
    cert = shift_morphism_factorization(Bt, (0, 1, 1), (2, 0, 0))
    assert cert["identity_holds"]
    assert cert["relation"] == (-2, 1, 1)


def test_shift_morphism_equal_exponents():
    Bt = homogenize(corpus.projective_line().ray_matrix())
    cert = shift_morphism_factorization(Bt, (1, 2, 0), (1, 2, 0))
    assert cert["identity_holds"]
    assert cert["lhs"].is_zero()


def test_shift_morphism_rejects_different_images():
    Bt = homogenize(corpus.projective_line().ray_matrix())
    with pytest.raises(NotSameImage):
        shift_morphism_factorization(Bt, (1, 0, 0), (0, 1, 0))


def test_shift_morphism_random_pairs_corpus():
    rng = random.Random(5)
    for fan, d in CORPUS:
        model = build_model(fan, d)
        Bt = model.Adoubleprime
        t1 = Bt.cols
        kernel = kernel_lattice(Bt).basis
        pairs = 0
        while pairs < 10:
            c2 = tuple(rng.randint(0, 3) for _ in range(t1))
            combo = [rng.randint(-1, 1) for _ in range(kernel.cols)]
            u = tuple(
                sum(combo[a] * kernel.entries[i][a] for a in range(kernel.cols))
                for i in range(t1)
            )
            c1 = tuple(a + b for a, b in zip(c2, u))
            if any(x < 0 for x in c1) or c1 == c2:
                continue
            cert = shift_morphism_factorization(Bt, c1, c2)
            assert cert["identity_holds"]
            pairs += 1


def test_duality_c0_identity():
    op = duality_morphism(3, 0)
    assert op == WeylOp.one(op.ctx)


def test_duality_tilde_p1_o2():
    op = duality_morphism(2, 1)
    ctx = op.ctx
    expected = WeylOp.zpow(ctx, 1) * WeylOp.var(ctx, 2) * WeylOp.partial(ctx, 2)
    assert op == expected


def test_duality_composition():
    for m, c in [(2, 1), (3, 1), (2, 2), (4, 2)]:
        tilde = duality_morphism(m, c)
        psi = psi_twist(m, c)
        hat_factor = WeylOp.one(tilde.ctx)
        for j in range(c):
            hat_factor = hat_factor * WeylOp.partial(tilde.ctx, m + j)
        assert psi * hat_factor == tilde


def test_duality_tilde_factors_commute():
    op = duality_morphism(2, 2)
    ctx = op.ctx
    f1 = WeylOp.zpow(ctx, 1) * WeylOp.var(ctx, 2) * WeylOp.partial(ctx, 2)
    f2 = WeylOp.zpow(ctx, 1) * WeylOp.var(ctx, 3) * WeylOp.partial(ctx, 3)
    assert f1 * f2 == f2 * f1 == op


def test_star_box_reduces_to_tilde_without_bundle():
    ctx = OpContext.make(3, laurent=True)
    l = (1, 1, 1)
    assert ref_star_box(ctx, l) == tilde_box(ctx, l, 3)


# Reference builders: each box family written out as explicit product
# loops over its factors, independent of the shared binomial constructor.


def _loglam_ref(ctx, i):
    return WeylOp.zpow(ctx, 1) * WeylOp.var(ctx, i) * WeylOp.partial(ctx, i)


def ref_box_operator(ctx, l):
    neg, pos = WeylOp.one(ctx), WeylOp.one(ctx)
    for i, li in enumerate(l):
        if li < 0:
            neg = neg * WeylOp.partial(ctx, i, -li)
        elif li > 0:
            pos = pos * WeylOp.partial(ctx, i, li)
    return neg - pos


def ref_hat_box(ctx, l):
    neg, pos = WeylOp.one(ctx), WeylOp.one(ctx)
    for i, li in enumerate(l):
        zd = WeylOp.zpow(ctx, 1) * WeylOp.partial(ctx, i)
        for _ in range(abs(li)):
            if li < 0:
                neg = neg * zd
            else:
                pos = pos * zd
    return neg - pos


def ref_homogenized_box(ctx, l):
    lbar = -sum(l)
    pos, neg = WeylOp.one(ctx), WeylOp.one(ctx)
    for i, li in enumerate(l):
        if li > 0:
            pos = pos * WeylOp.partial(ctx, i + 1, li)
        elif li < 0:
            neg = neg * WeylOp.partial(ctx, i + 1, -li)
    if lbar > 0:
        pos = WeylOp.partial(ctx, 0, lbar) * pos
    elif lbar < 0:
        neg = WeylOp.partial(ctx, 0, -lbar) * neg
    return pos - neg


def ref_star_box(ctx, l):
    pos, neg = WeylOp.one(ctx), WeylOp.monomial(ctx, lam=tuple(l))
    for i, li in enumerate(l):
        for _ in range(abs(li)):
            if li > 0:
                pos = pos * _loglam_ref(ctx, i)
            else:
                neg = neg * _loglam_ref(ctx, i)
    return pos - neg


def ref_tilde_box(ctx, l, m):
    pos, neg = WeylOp.one(ctx), WeylOp.monomial(ctx, lam=tuple(l))
    z = WeylOp.zpow(ctx, 1)
    for i, li in enumerate(l):
        for nu in range(1, abs(li) + 1):
            f = _loglam_ref(ctx, i) if i < m else _loglam_ref(ctx, i) - z.scale(nu)
            if li > 0:
                pos = pos * f
            else:
                neg = neg * f
    return pos - neg


def ref_qdm_box(ctx, kernel_matrix, m, l_coords, l_vector):
    z = WeylOp.zpow(ctx, 1)

    def hat_class(coords):
        op = WeylOp.zero(ctx)
        for a, coef in enumerate(coords):
            op = op + _loglam_ref(ctx, a).scale(coef)
        return op

    pos, neg = WeylOp.one(ctx), WeylOp.one(ctx)
    for i, li in enumerate(l_vector):
        if i < m:
            dhat = hat_class(kernel_matrix.row(i))
            factors = [dhat - z.scale(nu) for nu in range(abs(li))]
        else:
            lhat = hat_class([-x for x in kernel_matrix.row(i)])
            factors = [lhat + z.scale(nu) for nu in range(1, abs(li) + 1)]
        for f in factors:
            if li > 0:
                pos = pos * f
            else:
                neg = neg * f
    return pos - WeylOp.monomial(ctx, lam=tuple(l_coords)) * neg


BOX_FAMILIES = {
    "box_operator": (box_operator, ref_box_operator),
    "hat_box": (hat_box, ref_hat_box),
    "homogenized_box": (homogenized_box, ref_homogenized_box),
    # The star box is the tilde box with every variable a base variable.
    "star_box": (lambda ctx, l: tilde_box(ctx, l, ctx.nvars), ref_star_box),
    "tilde_box": (tilde_box, ref_tilde_box),
}
RELATIONS = st.integers(2, 4).flatmap(
    lambda t: st.lists(st.integers(-3, 3), min_size=t, max_size=t)
)


@pytest.mark.parametrize("name", sorted(BOX_FAMILIES))
@settings(max_examples=40, deadline=None)
@given(l=RELATIONS, data=st.data())
def test_box_family_matches_reference_loops(name, l, data):
    builder, reference = BOX_FAMILIES[name]
    nvars = len(l) + (name == "homogenized_box")
    ctx = OpContext.make(nvars, laurent=name in ("star_box", "tilde_box"))
    extra = (data.draw(st.integers(0, nvars)),) if name == "tilde_box" else ()
    assert builder(ctx, l, *extra) == reference(ctx, l, *extra)


@settings(max_examples=40, deadline=None)
@given(l=RELATIONS, data=st.data())
def test_qdm_box_matches_reference_loops(l, data):
    t = len(l)
    r = data.draw(st.integers(1, 2))
    entry = st.integers(-2, 2)
    K = IntegerMatrix.from_rows(
        data.draw(st.lists(st.lists(entry, min_size=r, max_size=r), min_size=t, max_size=t))
    )
    coords = data.draw(st.lists(entry, min_size=r, max_size=r))
    m = data.draw(st.integers(0, t))
    ctx = qdm_context(r)
    assert qdm_box(ctx, K, m, coords, l) == ref_qdm_box(ctx, K, m, coords, l)


def test_tilde_box_p1_o2_display():
    fan, d = corpus.p1_o2()
    model = build_model(fan, d)
    ctx = OpContext.make(3, laurent=True)
    l = tuple(model.L.col(0))
    box = tilde_box(ctx, l, 2)
    z = WeylOp.zpow(ctx, 1)
    ll = lambda i: z * WeylOp.var(ctx, i) * WeylOp.partial(ctx, i)
    lam_l = WeylOp.monomial(ctx, lam=l)
    expected = ll(0) * ll(1) - lam_l * (ll(2) - z) * (ll(2) - z.scale(2))
    assert box == expected


def test_theta_transform_corpus():
    for fan, d in CORPUS:
        model = build_model(fan, d)
        sg = model.star_generators()
        g = model.qdm_generators()
        ch = model.torus_change()
        for a, tbox in enumerate(sg["boxes"]):
            assert theta_restrict(tbox, ch) == g["boxes"][a]
        assert theta_restrict(sg["eulers"][0], ch) == g["euler"]
        for e in sg["eulers"][1:]:
            assert theta_restrict(e, ch).is_zero()


def test_theta_transform_constant():
    fan, d = corpus.p1_o2()
    model = build_model(fan, d)
    ctx = OpContext.make(3, laurent=True)
    img = theta_restrict(WeylOp.scalar(ctx, 7), model.torus_change())
    assert img == WeylOp.scalar(img.ctx, 7)


# Reference theta transform in two steps: rewrite the operator on the whole
# (f, q) torus, then drop every term with an f-derivative and set f = 1.


def ref_theta_coordinate_change(op, model):
    """The monomial lambda^delta, delta = alpha - beta, maps to
    (-1)^(bundle part of delta) f^(A' delta) q^(M delta), and each factor
    lambda_i partial_i - nu to sum_j C_ij f_j d/df_j + sum_a L_ia q_a d/dq_a
    - nu; z and T pass through."""
    nf, nq = model.C.cols, model.L.cols
    names = tuple(f"f{j+1}" for j in range(nf)) + tuple(f"q{a+1}" for a in range(nq))
    tgt = OpContext.make(nf + nq, laurent=True, names=names)
    logfields = []
    for i in range(op.ctx.nvars):
        field = WeylOp.zero(tgt)
        for j, c in enumerate(model.C.row(i) + model.L.row(i)):
            field = field + (WeylOp.var(tgt, j) * WeylOp.partial(tgt, j)).scale(c)
        logfields.append(field)
    out = WeylOp.zero(tgt)
    for (z, lam, th, pa), coeff in op.terms.items():
        delta = tuple(a - b for a, b in zip(lam, pa))
        sign = (-1) ** sum(delta[i] % 2 for i in range(model.m, op.ctx.nvars))
        exps = tuple(model.Aprime.mul_vec(delta)) + tuple(model.M.mul_vec(delta))
        piece = WeylOp.monomial(tgt, coeff=coeff * sign, z=z, lam=exps, theta=th)
        for i, b in enumerate(pa):
            for nu in range(b):
                piece = piece * (logfields[i] - WeylOp.scalar(tgt, nu))
        out = out + piece
    return out


def ref_restrict_to_f_one(op, nf):
    qctx = qdm_context(op.ctx.nvars - nf)
    out = WeylOp.zero(qctx)
    for (z, lam, th, pa), coeff in op.terms.items():
        if not any(pa[:nf]):
            out = out + WeylOp.monomial(qctx, coeff, z=z, lam=lam[nf:], theta=th, pa=pa[nf:])
    return out


def ref_theta_restrict(op, model):
    return ref_restrict_to_f_one(ref_theta_coordinate_change(op, model), model.C.cols)


THETA_MODELS = [build_model(fan, d) for fan, d in CORPUS]


@st.composite
def torus_operators(draw):
    """(model, operator): one of the three total spaces, and a sum of up to
    three terms z^a lambda^alpha T^e partial^beta over its lambda torus,
    with lambda powers in [-2, 2] and at most four derivatives in all."""
    model = draw(st.sampled_from(THETA_MODELS))
    t = model.Aprime.cols
    ctx = OpContext.make(t, laurent=True)
    op = WeylOp.zero(ctx)
    for _ in range(draw(st.integers(1, 3))):
        pa = draw(st.lists(st.integers(0, 2), min_size=t, max_size=t).filter(lambda b: sum(b) <= 4))
        op = op + WeylOp.monomial(
            ctx,
            coeff=draw(st.builds(Fraction, st.integers(-5, 5), st.integers(1, 3))),
            z=draw(st.integers(-1, 2)),
            lam=draw(st.lists(st.integers(-2, 2), min_size=t, max_size=t)),
            theta=draw(st.integers(0, 2)),
            pa=pa,
        )
    return model, op


@settings(max_examples=60, deadline=None)
@given(torus_operators())
def test_theta_restrict_matches_two_step_reference(case):
    model, op = case
    assert theta_restrict(op, model.torus_change()) == ref_theta_restrict(op, model)


def test_qdm_box_p2():
    fan = corpus.projective_plane()
    model = build_model(fan, IntegerMatrix(0, 3, ()))
    g = model.qdm_generators()
    ctx = g["ctx"]
    T = WeylOp.zpow(ctx, 1) * WeylOp.var(ctx, 0) * WeylOp.partial(ctx, 0)
    assert g["boxes"][0] == T * T * T - WeylOp.var(ctx, 0)


def test_qdm_box_p1_o2():
    fan, d = corpus.p1_o2()
    model = build_model(fan, d)
    g = model.qdm_generators()
    ctx = g["ctx"]
    T = WeylOp.zpow(ctx, 1) * WeylOp.var(ctx, 0) * WeylOp.partial(ctx, 0)
    z = WeylOp.zpow(ctx, 1)
    q = WeylOp.var(ctx, 0)
    expected = T * T - q * (T.scale(2) + z) * (T.scale(2) + z.scale(2))
    assert g["boxes"][0] == expected


def test_qdm_box_zero_relation():
    fan, d = corpus.p1_o2()
    model = build_model(fan, d)
    ctx = qdm_context(1)
    box = qdm_box(ctx, model.L, 2, (0,), (0, 0, 0))
    assert box.is_zero()


def test_bounded_membership_trivial():
    fan, d = corpus.p1_o2()
    model = build_model(fan, d)
    g = model.qdm_generators()
    box = g["boxes"][0]
    res = bounded_ideal_membership(box, [box, g["euler"]], 1, z_range=(0, 1), lam_range=[(0, 1)])
    assert res["status"] == "certificate"


def test_bounded_membership_combination():
    fan, d = corpus.p1_o2()
    model = build_model(fan, d)
    g = model.qdm_generators()
    ctx = g["ctx"]
    P = WeylOp.var(ctx, 0) * g["boxes"][0] + g["euler"]
    res = bounded_ideal_membership(P, [g["boxes"][0], g["euler"]], 1, z_range=(0, 1), lam_range=[(0, 1)])
    assert res["status"] == "certificate"
    combo = WeylOp.zero(ctx)
    for j, h in res["coefficients"].items():
        combo = combo + h * [g["boxes"][0], g["euler"]][j]
    assert combo == P


def test_bounded_membership_inconclusive_for_one():
    fan = corpus.projective_plane()
    model = build_model(fan, IntegerMatrix(0, 3, ()))
    g = model.qdm_generators()
    one = WeylOp.one(g["ctx"])
    res = bounded_ideal_membership(one, g["boxes"] + [g["euler"]], 2, z_range=(0, 2), lam_range=[(0, 2)])
    assert res["status"] == "inconclusive"


def test_export_records_are_sorted_and_stable():
    fan, d = corpus.p1_o2()
    model = build_model(fan, d)
    box = model.qdm_generators()["boxes"][0]
    recs = box.to_records()
    assert recs == box.to_records()
    assert all(set(r) == {"coeff", "z", "thetaz", "lambda", "partial"} for r in recs)
    assert all("/" in r["coeff"] for r in recs)
