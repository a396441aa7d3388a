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
"""

from __future__ import annotations

from fractions import Fraction

from tglab.errors import (
    MissingDegree,
    NonEffectiveDegree,
    UnsupportedOperator,
)
from tglab.cohomring import CohomologyRing
from tglab.intlinalg import IntegerMatrix, row_reduce
from tglab.weylops import WeylOp


# A z-class is a dict (basis monomial, z exponent) -> Fraction.


def _zc_add(a, b):
    out = dict(a)
    for k, v in b.items():
        out[k] = out.get(k, Fraction(0)) + v
    return {k: v for k, v in out.items() if v}


def _zc_scale(a, c):
    if not c:
        return {}
    c = Fraction(c)
    return {k: v * c for k, v in a.items() if v}


def _zc_zshift(a, n):
    return {(mono, ze + n): v for (mono, ze), v in a.items()}


def _zc_mul(ring, a, b):
    """Product of two z-classes."""
    out = {}
    for (m1, z1), v1 in a.items():
        for (m2, z2), v2 in b.items():
            for m3, v3 in ring.monomial_product(m1, m2).items():
                key = (m3, z1 + z2)
                term = v1 * v2 * v3
                out[key] = out[key] + term if key in out else term
    return {k: v for k, v in out.items() if v}


def _unit(ring):
    return tuple(0 for _ in range(ring.fan.n_rays))


def _zc_linear(ring, cls, m):
    """The z-class cls + m z."""
    out = {(mono, 0): v for mono, v in cls.items()}
    if m:
        out[(_unit(ring), 1)] = Fraction(m)
    return out


def _invert_linear(ring, cls, m):
    """(cls + m z)^{-1} = sum_k (-1)^k cls^k / (m z)^{k+1} for nilpotent cls
    and m != 0, exactly."""
    inv = {}
    power = ring.one()
    k = 0
    while power:
        c = Fraction((-1) ** k, m ** (k + 1))
        for mono, v in power.items():
            inv[(mono, -(k + 1))] = v * c
        power = ring.mul(power, cls)
        k += 1
    return inv


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


def basis_classes(ring: CohomologyRing, kernel_matrix: IntegerMatrix):
    """The classes p_a dual to the kernel basis columns, a = 0..r-1."""
    r = kernel_matrix.cols
    return _classes_from_coords(
        ring, kernel_matrix, [tuple(int(b == a) for b in range(r)) for a in range(r)]
    )


def i_function(
    ring: CohomologyRing,
    kernel_matrix: IntegerMatrix,
    m: int,
    d_max: int,
):
    """Table of coefficients A_d for all effective degrees with |d| <= d_max,
    keyed in lex order.

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
    bundle_cls = _classes_from_coords(ring, kernel_matrix, bundle_rows)
    divisor_cls = [ring.divisor_class(theta) for theta in range(m)]
    pairing_rows = bundle_rows + [tuple(row) for row in rows[:m]]
    inverses = {}  # (theta, m) -> (D_theta + m z)^{-1}

    def exponents(d):
        """(<d, c1(L_j)> for each bundle j, then d_theta for each ray)."""
        return tuple(sum(x * y for x, y in zip(row, d)) for row in pairing_rows)

    def inverse(theta, mm):
        key = (theta, mm)
        if key not in inverses:
            inverses[key] = _invert_linear(ring, divisor_cls[theta], mm)
        return inverses[key]

    def _step(acc, old, new):
        """acc times A_new / A_old for the exponents old and new; a theta
        range that grows past m = 0 from below is never passed in."""
        for j in range(c):
            for mm in range(old[j] + 1, new[j] + 1):
                acc = _zc_mul(ring, acc, _zc_linear(ring, bundle_cls[j], mm))
        for theta in range(m):
            lo, hi = old[c + theta], new[c + theta]
            for mm in range(hi + 1, lo + 1):
                acc = _zc_mul(ring, acc, _zc_linear(ring, divisor_cls[theta], mm))
            for mm in range(lo + 1, hi + 1):
                acc = _zc_mul(ring, acc, inverse(theta, mm))
        return acc

    def divides_by_zero(old, new):
        return any(old[c + t] < 0 <= new[c + t] for t in range(m))

    zero = tuple(0 for _ in range(r))
    degrees = _effective_degrees(r, d_max)
    table = {zero: {(_unit(ring), 0): Fraction(1)}}
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
    return {d: table[d] for d in degrees}
def _apply_operator_graded(ring, kernel_matrix, op: WeylOp, table, d_max, p_cls=None):
    """Degreewise image of the operator on the z-graded I-series.

    Returns a dict target degree -> z-class.  Operators must be free of
    z^2 d/dz.  Sources outside N^r contribute zero; sources inside N^r but
    beyond the table raise MissingDegree.  ``p_cls`` are the basis classes
    (``basis_classes``), computed here when not given.
    """
    r = op.ctx.nvars
    if p_cls is None:
        p_cls = basis_classes(ring, kernel_matrix)
    out = {}
    for (zp, mu, th, pa), coeff in op.terms.items():
        if th:
            raise UnsupportedOperator("z-graded action does not handle z^2 d/dz")
        for d in _effective_degrees(r, d_max):
            e = tuple(d[a] + pa[a] - mu[a] for a in range(r))
            if any(x < 0 for x in e):
                continue
            if e not in table:
                raise MissingDegree(
                    f"table does not cover source degree {e} needed for target {d}"
                )
            val = _zc_zshift(_zc_scale(table[e], coeff), zp)
            for a in range(r):
                # partials act first: falling factors (p_a / z + e_a - nu)
                for nu in range(pa[a]):
                    val = _zc_zshift(
                        _zc_mul(ring, val, _zc_linear(ring, p_cls[a], e[a] - nu)), -1
                    )
            out[d] = _zc_add(out.get(d, {}), val)
    return out


def annihilation_check(op: WeylOp, ring, kernel_matrix, table, d_max, p_cls=None):
    """B_d residues of the operator against the table, all degrees up to
    d_max; returns per-degree zero flags.  ``p_cls`` as in
    ``_apply_operator_graded``."""
    images = _apply_operator_graded(ring, kernel_matrix, op, table, d_max, p_cls)
    report = []
    for d in _effective_degrees(op.ctx.nvars, d_max):
        bd = images.get(d, {})
        report.append({"degree": d, "is_zero": not bd, "residue_terms": len(bd)})
    return {"all_zero": all(row["is_zero"] for row in report), "rows": report}


def _apply_operator_conjugated(ring, kernel_matrix, euler_cls, op, table, d_max, p_cls=None):
    """Degreewise image in the constant-z gauge; handles z^2 d/dz.

    State terms are (degree e, scalar z-offset w, class); the section term
    is q^(T+e) z^(w - E) class with w starting at -<e, E>.  ``p_cls`` as in
    ``_apply_operator_graded``.
    """
    r = op.ctx.nvars
    euler_coords = [
        sum(kernel_matrix.entries[i][a] for i in range(kernel_matrix.rows))
        for a in range(r)
    ]
    if p_cls is None:
        p_cls = basis_classes(ring, kernel_matrix)
    initials = {}  # e -> A_e at z = 1

    def initial(e):
        if e not in initials:
            at_one = {}
            for (mono, ze), v in table[e].items():
                at_one[mono] = at_one.get(mono, Fraction(0)) + v
            initials[e] = {k: v for k, v in at_one.items() if v}
        return initials[e]

    out = {}
    for (zp, mu, th, pa), coeff in op.terms.items():
        for e0 in _effective_degrees(r, d_max + sum(x for x in pa)):
            target = tuple(e0[a] - pa[a] + mu[a] for a in range(r))
            if any(x < 0 for x in target) or sum(target) > d_max:
                continue
            if e0 not in table:
                raise MissingDegree(f"table does not cover source degree {e0}")
            cls = ring.scale(initial(e0), coeff)
            e = list(e0)
            w = -Fraction(sum(euler_coords[a] * e0[a] for a in range(r)))
            # partials first (rightmost block)
            for a in range(r):
                for _ in range(pa[a]):
                    factor = ring.add(p_cls[a], ring.scale(ring.one(), e[a]))
                    cls = ring.mul(cls, factor)
                    e[a] -= 1
            # then theta factors: z^2 d_z -> (w - E) and w += 1 each time
            for _ in range(th):
                factor = ring.add(ring.scale(ring.one(), w), ring.scale(euler_cls, -1))
                cls = ring.mul(cls, factor)
                w += 1
            # plain z powers only move w; at z = 1 they are invisible
            for a in range(r):
                e[a] += mu[a]
            out[target] = ring.add(out.get(target, {}), cls)
    return out


def quot_landing_check(
    op: WeylOp, ring, kernel_matrix, c_top, euler_cls, table, d_max, p_cls=None
):
    """True iff c_top times every residue B_d vanishes for d <= d_max.
    ``p_cls`` as in ``_apply_operator_graded``."""
    images = _apply_operator_conjugated(
        ring, kernel_matrix, euler_cls, op, table, d_max, p_cls
    )
    rows = []
    for d in _effective_degrees(op.ctx.nvars, d_max):
        bd = images.get(d, {})
        landed = ring.mul(c_top, bd) == {}
        rows.append({"degree": d, "lands": landed})
    return {"all_land": all(r["lands"] for r in rows), "rows": rows}


def homogeneity_check(ring, kernel_matrix, table, d_max):
    """Each A_d is homogeneous of degree -<d, euler class> with deg z = 1."""
    r = kernel_matrix.cols
    euler_coords = [
        sum(kernel_matrix.entries[i][a] for i in range(kernel_matrix.rows))
        for a in range(r)
    ]
    rows = []
    for d in _effective_degrees(r, d_max):
        expected = -sum(euler_coords[a] * d[a] for a in range(r))
        ok = all(
            sum(mono) + ze == expected
            for (mono, ze), v in table[d].items()
            if v
        )
        rows.append({"degree": d, "expected": expected, "homogeneous": ok})
    return {"all_homogeneous": all(r["homogeneous"] for r in rows), "rows": rows}
