"""I-function tables and the operator checks against them.

The I-series is the cohomology-valued sum over effective degrees d of
q^d A_d(z), with A_d the telescoped ratio of linear factors: for each
bundle j the product of (c1(L_j) + m z) over 1 <= m <= <d, c1(L_j)>, and
for each ray divisor D_theta the product of (D_theta + m z)^{-1} over
1 <= m <= d_theta, or of (D_theta + m z) over d_theta < m <= 0 when
d_theta = <d, D_theta> is negative.

The table is built by walking the degrees by total degree, then lex.
Each A_d is a base coefficient times the factors by which the ranges of
m changed between the base degree and d.  The base is the predecessor
A_{d - e_a} for the first a that allows it.  The factor with m = 0 is
nilpotent and cannot be divided out, so a predecessor is skipped when
some d_theta steps from below 0 to 0 or above.  When every predecessor
is skipped, the base is A_0 = 1; a step from degree 0 never divides by
m = 0.

Operators in q, z and z q d/dq act degreewise: q shifts the degree, a
paired z q_a d/dq_a multiplies the degree-e coefficient by
(class_a + z e_a), and everything is exact in H* tensor Q[z, 1/z].

Two gauges are used.  The annihilation check keeps the full z-grading and
therefore rejects z^2 d/dz; the kernel-landing check works in the
conjugated constant-z gauge (classes weighted by z, coefficients at z=1)
where the Euler operator also acts degreewise.

All of this runs in integers.  A ``ZClass`` holds integer coefficients
keyed by (basis index, z exponent) over one positive denominator.  A
product with a ring class goes through that class's integer matrix over
the basis (``CohomologyRing.multiplier``, built from the ring's cached
structure constants), so each linear factor (c1(L_j) + m z),
(D_theta + m z), (p_a / z + e_a - nu), (p_a + e_a) or (w - E) is one
sparse integer mat-vec, and (D_theta + m z)^{-1} is one integer numerator
over m^(K+1), D_theta^(K+1) = 0.  The table walk takes the gcd out after
each step and puts the whole table over one denominator at its end: an
``ITable``, which also holds the multipliers every check needs.  Each
check scales the operator by the lcm of its coefficient denominators,
then works in ``int`` only.  A positive scale maps zero to zero and keeps
the support, so the zero tests and residue counts are those of the exact
rational residues: no float, modular or probabilistic test is involved.
``Fraction`` appears only where a coefficient is read back, ``table[d]``.
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce
from math import gcd, lcm

from tglab.errors import (
    MissingDegree,
    NonEffectiveDegree,
    UnsupportedOperator,
)
from tglab.cohomring import CohomologyRing, Multiplier
from tglab.intlinalg import IntegerMatrix, row_reduce
from tglab.weylops import WeylOp


class ZClass:
    """A class of H* tensor Q[z, 1/z] in integers: the sum of
    coeffs[(i, k)] b_i z^k over den, for the ring's basis b_i and den >= 1.
    Entries may be zero; ``support`` and ``materialise`` skip them."""

    __slots__ = ("coeffs", "den")

    def __init__(self, coeffs, den=1):
        self.coeffs = coeffs
        self.den = den

    def materialise(self, ring):
        """The dict (monomial, z exponent) -> Fraction, zeros dropped."""
        basis, den = ring.basis, self.den
        return {(basis[i], ze): Fraction(v, den) for (i, ze), v in self.coeffs.items() if v}

    def support(self) -> int:
        return sum(1 for v in self.coeffs.values() if v)

    def plus(self, other, n, zshift=0):
        """self + n z^zshift other, n an integer."""
        if self.den == other.den:
            out, mine, theirs = dict(self.coeffs), 1, n
        else:
            den = lcm(self.den, other.den)
            mine, theirs = den // self.den, n * (den // other.den)
            out = {k: v * mine for k, v in self.coeffs.items()}
        for (i, ze), v in other.coeffs.items():
            key = (i, ze + zshift)
            out[key] = out.get(key, 0) + v * theirs
        return ZClass(out, self.den * mine)

    def at_one(self):
        """The class at z = 1, kept at z exponent 0."""
        out = {}
        for (i, _), v in self.coeffs.items():
            out[(i, 0)] = out.get((i, 0), 0) + v
        return ZClass(out, self.den)

    def times(self, factor: "_Factor"):
        """Product with a factor: one sparse integer mat-vec per part."""
        out = {}
        for (i, ze), v in self.coeffs.items():
            for shift, rows in factor.parts:
                for k, n in rows[i]:
                    key = (k, ze + shift)
                    out[key] = out.get(key, 0) + n * v
        return ZClass(out, self.den * factor.den)

    def reduced(self):
        """Zeros dropped and the common gcd taken out of coefficients and den."""
        coeffs = {k: v for k, v in self.coeffs.items() if v}
        g = gcd(self.den, *coeffs.values())
        if g == 1:
            return ZClass(coeffs, self.den)
        return ZClass({k: v // g for k, v in coeffs.items()}, self.den // g)


_ZERO = ZClass({})


class _Factor:
    """A multiplier in H* tensor Q[z, 1/z]: the sum over parts
    ((shift, rows), ...) of rows z^shift, over den, with rows an integer
    matrix over the basis as in ``Multiplier``."""

    __slots__ = ("parts", "den")

    def __init__(self, parts: tuple, den: int):
        self.parts = parts
        self.den = den


def _linear(mult: Multiplier, shift: int, scalar: int, scalar_shift: int) -> _Factor:
    """The factor c z^shift + scalar z^scalar_shift, for the class c of mult."""
    parts = [(shift, mult.rows)]
    if scalar:
        s = scalar * mult.den
        parts.append((scalar_shift, tuple(((i, s),) for i in range(len(mult.rows)))))
    return _Factor(tuple(parts), mult.den)


def _identity(size: int) -> Multiplier:
    return Multiplier(tuple(((i, 1),) for i in range(size)))


def _powers(mult: Multiplier):
    """Multipliers of c^0, c^1, ..., up to the last nonzero power of the
    nilpotent class c of mult."""
    powers = [_identity(len(mult.rows))]
    while True:
        nxt = powers[-1].then(mult)
        if nxt.is_zero:
            return powers
        powers.append(nxt)


def _inverse(powers, m: int) -> _Factor:
    """(c + m z)^{-1} = sum_k (-1)^k c^k / (m z)^(k+1) for nilpotent c and
    m != 0, as one integer numerator over m^(K+1) (times the lcm of the
    powers' denominators), K the last nonzero power."""
    top = len(powers) - 1
    delta = lcm(*(p.den for p in powers))
    sign = -1 if m < 0 and top % 2 == 0 else 1  # keeps the denominator positive
    parts = []
    for k, p in enumerate(powers):
        s = sign * (-1) ** k * m ** (top - k) * (delta // p.den)
        parts.append((-(k + 1), tuple(tuple((j, n * s) for j, n in row) for row in p.rows)))
    return _Factor(tuple(parts), sign * m ** (top + 1) * delta)


def _effective_degrees(r, d_max):
    """All d in N^r with sum <= d_max, lexicographic."""
    out = []

    def rec(prefix, remaining):
        if len(prefix) == r:
            out.append(tuple(prefix))
            return
        for v in range(remaining + 1):
            rec(prefix + [v], remaining - v)

    rec([], d_max)
    return sorted(out)


def _classes_from_coords(ring: CohomologyRing, kernel_matrix: IntegerMatrix, coords_list):
    """Classes with the given kernel-dual coordinates, written through the
    ray divisor classes: solve sum t_i row_i = coords over Q, for every
    coords of the list in one elimination.  The ray rows of a kernel basis
    have full rank, so every system is consistent and no right-hand side
    column becomes a pivot."""
    m_rays = ring.fan.n_rays
    aug = [
        [kernel_matrix.entries[i][a] for i in range(m_rays)] + [c[a] for c in coords_list]
        for a in range(kernel_matrix.cols)
    ]
    pivots, reduced = row_reduce(aug, m_rays + len(coords_list))
    out = []
    for k in range(len(coords_list)):
        tvec = [0] * m_rays
        for row, col in zip(reduced, pivots):
            tvec[col] = row[m_rays + k]
        out.append(ring.combination(tvec))
    return out


class ITable:
    """The table of ``i_function``: A_d for every effective degree with
    |d| <= d_max, keyed in lex order, as ``ZClass``es over one common
    denominator.  ``table[d]`` is A_d as a dict (basis monomial, z
    exponent) -> Fraction, zeros dropped.

    It also holds what the checks multiply by, derived from the kernel
    rows in one elimination: the multipliers ``p_mul`` of the classes p_a
    dual to the kernel basis columns, and the coordinates and multiplier
    of the Euler class sum D_theta - sum c1(L_j), whose coordinates are
    the column sums of the kernel basis.  ``ctop_mul`` is the multiplier
    of c_top, the product of the bundle classes c1(L_j)."""

    __slots__ = ("ring", "d_max", "classes", "p_mul", "euler_coords", "euler_mul", "ctop_mul")

    def __init__(self, ring: CohomologyRing, kernel_matrix: IntegerMatrix, classes: dict,
                 ctop_mul: Multiplier):
        den = lcm(*(zc.den for zc in classes.values()))
        self.ring = ring
        self.d_max = max(map(sum, classes))
        self.classes = {
            d: ZClass({k: v * (den // zc.den) for k, v in zc.coeffs.items()}, den)
            for d, zc in classes.items()
        }
        r = kernel_matrix.cols
        self.euler_coords = [sum(row[a] for row in kernel_matrix.entries) for a in range(r)]
        units = [tuple(int(b == a) for b in range(r)) for a in range(r)]
        euler, *p_cls = _classes_from_coords(ring, kernel_matrix, [self.euler_coords] + units)
        self.euler_mul = ring.multiplier(euler)
        self.p_mul = [ring.multiplier(cls) for cls in p_cls]
        self.ctop_mul = ctop_mul

    def __getitem__(self, d):
        return self.classes[d].materialise(self.ring)


def i_function(
    ring: CohomologyRing,
    kernel_matrix: IntegerMatrix,
    m: int,
    d_max: int,
) -> ITable:
    """Table of coefficients A_d for all effective degrees with |d| <= d_max.

    kernel_matrix rows 0..m-1 give the basis coordinates of the ray
    classes; rows m.. give minus the bundle first Chern classes.  The
    table is walked by total degree (see the module docstring): A_d is
    ``_step`` applied to the predecessor A_{d - e_a} for the first a whose
    step divides by no m = 0 factor, or to A_0 when there is none.
    """
    r = kernel_matrix.cols
    rows = kernel_matrix.entries
    bundle_rows = [tuple(-x for x in row) for row in rows[m:]]
    c = len(bundle_rows)
    if any(x < 0 for row in bundle_rows for x in row):
        raise NonEffectiveDegree(
            "a bundle class pairs negatively with an effective degree"
        )
    pairing_rows = bundle_rows + [tuple(row) for row in rows[:m]]
    # multiplier k: c1(L_k) for k < c, else D_(k - c)
    linear = [
        ring.multiplier(cls)
        for cls in _classes_from_coords(ring, kernel_matrix, bundle_rows)
        + [ring.divisor_class(theta) for theta in range(m)]
    ]
    factors = {}  # (k, mm, inverted) -> the factor, k < c a bundle, else a ray
    powers = {}  # k -> multipliers of the powers of D_(k - c)

    def exponents(d):
        """(<d, c1(L_j)> for each bundle j, then d_theta for each ray)."""
        return tuple(sum(x * y for x, y in zip(row, d)) for row in pairing_rows)

    def factor(k, mm, inverted=False):
        """c1(L_k) + mm z for k < c, else D_theta + mm z for theta = k - c,
        or its inverse."""
        key = (k, mm, inverted)
        if key not in factors:
            if not inverted:
                factors[key] = _linear(linear[k], 0, mm, 1)
            else:
                if k not in powers:
                    powers[k] = _powers(linear[k])
                factors[key] = _inverse(powers[k], mm)
        return factors[key]

    def _step(acc, old, new):
        """acc times A_new / A_old for the exponents old and new; a theta
        range that grows past m = 0 from below is never passed in."""
        for j in range(c):
            for mm in range(old[j] + 1, new[j] + 1):
                acc = acc.times(factor(j, mm))
        for k in range(c, c + m):
            lo, hi = old[k], new[k]
            for mm in range(hi + 1, lo + 1):
                acc = acc.times(factor(k, mm))
            for mm in range(lo + 1, hi + 1):
                acc = acc.times(factor(k, mm, inverted=True))
        return acc.reduced()

    def divides_by_zero(old, new):
        return any(old[c + t] < 0 <= new[c + t] for t in range(m))

    zero = tuple(0 for _ in range(r))
    degrees = _effective_degrees(r, d_max)
    unit = ring.basis_index[tuple(0 for _ in range(ring.fan.n_rays))]
    table = {zero: ZClass({(unit, 0): 1})}
    exps = {zero: exponents(zero)}
    for d in sorted(degrees, key=lambda d: (sum(d), d))[1:]:
        new = exponents(d)
        base = zero
        for a in range(r):
            if d[a]:
                pred = d[:a] + (d[a] - 1,) + d[a + 1:]
                if not divides_by_zero(exps[pred], new):
                    base = pred
                    break
        table[d] = _step(table[base], exps[base], new)
        exps[d] = new
    ctop_mul = reduce(Multiplier.then, linear[:c], _identity(len(ring.basis)))
    return ITable(ring, kernel_matrix, {d: table[d] for d in degrees}, ctop_mul)


def _scaled_terms(op: WeylOp):
    """(terms, den): the operator's terms with integer coefficients, each
    times den, the lcm of the coefficient denominators.  A common positive
    scale changes no zero test and no support."""
    den = lcm(*(v.denominator for v in op.terms.values()))
    return [(key, v.numerator * (den // v.denominator)) for key, v in op.terms.items()], den


def _unscaled(images, den):
    """The images of an operator scaled by den, divided by den again."""
    return {d: ZClass(zc.coeffs, zc.den * den) for d, zc in images.items()}


def _falling(p_mul, shift):
    """falling(cls, pa, e): cls times prod_a prod_{nu < pa_a} (p_a z^shift
    + e_a - nu).  The factors are kept for one check; the products are not,
    which keeps the memory of a check at the size of its table."""
    factors = {}  # (a, c) -> p_a z^shift + c

    def falling(cls, pa, e):
        for a, k in enumerate(pa):
            for nu in range(k):
                key = (a, e[a] - nu)
                if key not in factors:
                    factors[key] = _linear(p_mul[a], shift, e[a] - nu, 0)
                cls = cls.times(factors[key])
        return cls

    return falling


def _graded_images(op: WeylOp, table: ITable, d_max):
    """Degreewise image of the operator on the z-graded I-series: a dict
    target degree -> ZClass.  Operators must be free of z^2 d/dz.  Sources
    outside N^r contribute zero; sources inside N^r but beyond the table
    raise MissingDegree."""
    r = op.ctx.nvars
    degrees = _effective_degrees(r, d_max)
    # partials act first: falling factors (p_a / z + e_a - nu)
    falling = _falling(table.p_mul, -1)
    terms, op_den = _scaled_terms(op)
    out = {}
    for (zp, mu, th, pa), coeff in terms:
        if th:
            raise UnsupportedOperator("z-graded action does not handle z^2 d/dz")
        for d in degrees:
            e = tuple(d[a] + pa[a] - mu[a] for a in range(r))
            if any(x < 0 for x in e):
                continue
            if sum(e) > table.d_max:
                raise MissingDegree(
                    f"table does not cover source degree {e} needed for target {d}"
                )
            out[d] = out.get(d, _ZERO).plus(falling(table.classes[e], pa, e), coeff, zp)
    return _unscaled(out, op_den)


def annihilation_check(op: WeylOp, table: ITable, d_max):
    """B_d residues of the operator against the table, all degrees up to
    d_max; returns per-degree zero flags."""
    images = _graded_images(op, table, d_max)
    report = []
    for d in _effective_degrees(op.ctx.nvars, d_max):
        terms = images[d].support() if d in images else 0
        report.append({"degree": d, "is_zero": not terms, "residue_terms": terms})
    return {"all_zero": all(row["is_zero"] for row in report), "rows": report}


def _conjugated_images(op: WeylOp, table: ITable, d_max):
    """Degreewise image in the constant-z gauge, which handles z^2 d/dz: a
    dict target degree -> ZClass at z exponent 0.

    State terms are (degree e, scalar z-offset w, class); the section term
    is q^(T+e) z^(w - E) class with w starting at -<e, E>."""
    r = op.ctx.nvars
    euler_coords, euler_mul = table.euler_coords, table.euler_mul
    minus_euler = Multiplier(
        tuple(tuple((k, -n) for k, n in row) for row in euler_mul.rows), euler_mul.den
    )
    terms, op_den = _scaled_terms(op)
    sources = _effective_degrees(r, d_max + max((sum(key[3]) for key, _ in terms), default=0))
    # partials first (rightmost block): factors (p_a + e_a - nu) on A_e at z = 1
    falling = _falling(table.p_mul, 0)
    initials = {e: zc.at_one() for e, zc in table.classes.items()}
    out = {}
    for (zp, mu, th, pa), coeff in terms:
        bound = d_max + sum(pa)
        for e0 in sources:
            if sum(e0) > bound:
                continue
            target = tuple(e0[a] - pa[a] + mu[a] for a in range(r))
            if any(x < 0 for x in target) or sum(target) > d_max:
                continue
            if sum(e0) > table.d_max:
                raise MissingDegree(f"table does not cover source degree {e0}")
            cls = falling(initials[e0], pa, e0)
            # then theta factors: z^2 d_z -> (w - E) and w += 1 each time
            w = -sum(euler_coords[a] * e0[a] for a in range(r))
            for k in range(th):
                cls = cls.times(_linear(minus_euler, 0, w + k, 0))
            # plain z powers only move w; at z = 1 they are invisible
            out[target] = out.get(target, _ZERO).plus(cls, coeff)
    return _unscaled(out, op_den)


def quot_landing_check(op: WeylOp, table: ITable, d_max):
    """True iff c_top times every residue B_d vanishes for d <= d_max."""
    images = _conjugated_images(op, table, d_max)
    by_ctop = _linear(table.ctop_mul, 0, 0, 0)
    rows = []
    for d in _effective_degrees(op.ctx.nvars, d_max):
        landed = d not in images or not images[d].times(by_ctop).support()
        rows.append({"degree": d, "lands": landed})
    return {"all_land": all(r["lands"] for r in rows), "rows": rows}


def homogeneity_check(table: ITable, d_max):
    """Each A_d is homogeneous of degree -<d, euler class> with deg z = 1."""
    coords, basis = table.euler_coords, table.ring.basis
    rows = []
    for d in _effective_degrees(len(coords), d_max):
        expected = -sum(x * y for x, y in zip(coords, d))
        ok = all(
            sum(basis[i]) + ze == expected
            for (i, ze), v in table.classes[d].coeffs.items()
            if v
        )
        rows.append({"degree": d, "expected": expected, "homogeneous": ok})
    return {"all_homogeneous": all(r["homogeneous"] for r in rows), "rows": rows}
