"""Independent oracle for the operator product: act on Laurent monomials.

A normal-ordered term z^a lambda^alpha T^e partial^beta acts on a monomial
lambda^gamma z^w by first the falling factorials of the partials, then the
T factors w(w+1)...(w+e-1) with the z-exponent rising, then the monomial
multiplication.  The product of two operators must act as the composition
of their actions.  For each shift of the exponents, the coefficient is a
polynomial in (gamma, w) of bounded degree: agreement on a grid larger
than the degree forces equality, and agreement at a dozen points spread
over a wide box catches a difference with high probability
(Schwartz-Zippel).
"""

import random
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from tglab.weylops import OpContext, WeylOp


def act_term(key, coeff, gamma, w):
    z, lam, th, pa = key
    value = coeff
    out_gamma = list(gamma)
    for i, b in enumerate(pa):
        for nu in range(b):
            value *= gamma[i] - nu
        out_gamma[i] -= b
    if value == 0:
        return None
    out_w = w
    for _ in range(th):
        value *= out_w
        out_w += 1  # z^2 d/dz raises the z exponent by one
    if value == 0:
        return None
    out_gamma = tuple(g + a for g, a in zip(out_gamma, lam))
    return (out_gamma, out_w + z), value


def act(op, monomials):
    """Apply an operator to a dict (gamma, w) -> coefficient."""
    out = {}
    for (gamma, w), c in monomials.items():
        for key, coeff in op.terms.items():
            hit = act_term(key, coeff, gamma, w)
            if hit is None:
                continue
            target, value = hit
            out[target] = out.get(target, Fraction(0)) + c * value
    return {k: v for k, v in out.items() if v}


@st.composite
def operator_pairs(draw):
    """A context of 1-3 variables with mixed Laurent flags, and two
    operators of 1-3 terms: z^-3..z^3, T, partial and lambda powers up to 4
    (down to -4 on an invertible variable)."""
    laurent = draw(st.lists(st.booleans(), min_size=1, max_size=3))
    ctx = OpContext.make(len(laurent), laurent=tuple(laurent))

    def op():
        terms = {}
        for _ in range(draw(st.integers(1, 3))):
            lam = tuple(draw(st.integers(-4 if inv else 0, 4)) for inv in laurent)
            pa = tuple(draw(st.integers(0, 4)) for _ in laurent)
            key = (draw(st.integers(-3, 3)), lam, draw(st.integers(0, 4)), pa)
            terms[key] = Fraction(draw(st.integers(-4, 4)))
        return WeylOp(ctx, terms)

    return ctx, op(), op()


def spread_points(nvars, count=12):
    """Monomials (gamma, w) with every exponent drawn from -40..40.  A
    coefficient polynomial here has total degree at most 32, so a nonzero
    one vanishes at one point with probability at most 32/81, and at all
    twelve with probability below 1e-4."""
    rng = random.Random(nvars)
    return [(tuple(rng.randint(-40, 40) for _ in range(nvars)), rng.randint(-40, 40))
            for _ in range(count)]


def grid(ctx):
    points = {}
    for g0 in range(-4, 6):
        for w in range(-4, 6):
            gamma = tuple(g0 + 2 * i for i in range(ctx.nvars))
            points[(gamma, w)] = Fraction(1)
    return points


@settings(max_examples=80, deadline=None)
@given(operator_pairs())
def test_product_acts_as_composition(pair):
    ctx, A, B = pair
    product = A * B
    for point in spread_points(ctx.nvars):
        base = {point: Fraction(1)}
        assert act(product, base) == act(A, act(B, base))


def test_known_operators_act_correctly():
    ctx = OpContext.make(1, laurent=(True,))
    ld = WeylOp.var(ctx, 0) * WeylOp.partial(ctx, 0)
    # lambda d/dlambda multiplies lambda^g by g
    for g in range(-3, 4):
        out = act(ld, {((g,), 0): Fraction(1)})
        expected = {((g,), 0): Fraction(g)} if g else {}
        assert out == expected
    th = WeylOp.theta_z(ctx)
    # z^2 d/dz sends z^w to w z^{w+1}
    for w in range(-3, 4):
        out = act(th, {((0,), w): Fraction(1)})
        expected = {((0,), w + 1): Fraction(w)} if w else {}
        assert out == expected


def test_theta_z_commutation_against_oracle():
    ctx = OpContext.make(1, laurent=(True,))
    th = WeylOp.theta_z(ctx)
    base = grid(ctx)
    for power in (1, -1, 2, -3):
        zp = WeylOp.zpow(ctx, power)
        assert act(th * zp, base) == act(th, act(zp, base))
        assert act(zp * th, base) == act(zp, act(th, base))
