"""I-function tables and the operator checks against them.

The I-series is the cohomology-valued sum over effective degrees d of
q^d A_d(z), with A_d the telescoped ratio of linear factors.  Operators in
q, z and z q d/dq act degreewise: q shifts the degree, a paired
z q_a d/dq_a multiplies the degree-e coefficient by (class_a + z e_a),
and everything is exact in H* tensor Q[z, 1/z].

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
    c = Fraction(c)
    return {k: v * c for k, v in a.items() if v * c}


def _zc_zshift(a, n):
    return {(mono, ze + n): v for (mono, ze), v in a.items()}


def _zc_mul_class(ring, a, cls):
    out = {}
    for (mono, ze), v in a.items():
        prod = ring.mul({mono: v}, cls)
        for m2, v2 in prod.items():
            key = (m2, ze)
            out[key] = out.get(key, Fraction(0)) + v2
    return {k: v for k, v in out.items() if v}


def _zc_one(ring):
    unit = tuple(0 for _ in range(ring.fan.n_rays))
    return {(unit, 0): Fraction(1)}


def _invert_linear(ring, cls, mz: Fraction, max_extra: int):
    """(cls + mz * z)^{-1} for nilpotent cls and mz != 0, exactly."""
    inv = {}
    power = _zc_one(ring)
    for k in range(max_extra + 1):
        contrib = _zc_zshift(_zc_scale(power, Fraction(-1) ** k / mz ** (k + 1)), -(k + 1))
        inv = _zc_add(inv, contrib)
        power = _zc_mul_class(ring, power, cls)
        if not power:
            break
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


def i_function(
    ring: CohomologyRing,
    kernel_matrix: IntegerMatrix,
    m: int,
    d_max: int,
):
    """Table of coefficients A_d for all effective degrees with |d| <= d_max.

    kernel_matrix rows 0..m-1 give the basis coordinates of the ray
    classes; rows m.. give minus the bundle first Chern classes.
    """
    r = kernel_matrix.cols
    t = kernel_matrix.rows
    c = t - m
    for j in range(c):
        if any(-kernel_matrix.entries[m + j][a] < 0 for a in range(r)):
            raise NonEffectiveDegree(
                "a bundle class pairs negatively with an effective degree"
            )
    top = ring.top_degree
    table = {}
    for d in _effective_degrees(r, d_max):
        acc = _zc_one(ring)
        for j in range(c):
            dl = sum(-kernel_matrix.entries[m + j][a] * d[a] for a in range(r))
            cls = _class_from_coords(ring, kernel_matrix, tuple(
                -kernel_matrix.entries[m + j][a] for a in range(r)
            ))
            for mm in range(1, dl + 1):
                acc = _zc_add(
                    _zc_mul_class(ring, acc, cls), _zc_zshift(_zc_scale(acc, mm), 1)
                )
        for theta in range(m):
            dtheta = sum(kernel_matrix.entries[theta][a] * d[a] for a in range(r))
            cls = ring.divisor_class(theta)
            if dtheta >= 0:
                for mm in range(1, dtheta + 1):
                    inv = _invert_linear(ring, cls, Fraction(mm), top)
                    acc = _zc_convolve(ring, acc, inv)
            else:
                for mm in range(dtheta + 1, 1):
                    acc = _zc_add(
                        _zc_mul_class(ring, acc, cls), _zc_zshift(_zc_scale(acc, mm), 1)
                    )
        table[d] = acc
    return table


def _class_from_coords(ring: CohomologyRing, kernel_matrix: IntegerMatrix, coords):
    """A class with the given kernel-dual coordinates, written through the
    ray divisor classes: solve sum t_i row_i = coords over Q.  The ray rows
    of a kernel basis have full rank, so the system is consistent."""
    m_rays = ring.fan.n_rays
    aug = [
        [kernel_matrix.entries[i][a] for i in range(m_rays)] + [coords[a]]
        for a in range(kernel_matrix.cols)
    ]
    pivots, reduced = row_reduce(aug, m_rays + 1)
    tvec = [0] * m_rays
    for row, col in zip(reduced, pivots):
        tvec[col] = row[m_rays]
    return ring.combination(tvec)


def _zc_convolve(ring, a, b):
    out = {}
    for (m1, z1), v1 in a.items():
        for (m2, z2), v2 in b.items():
            prod = ring.mul({m1: Fraction(1)}, {m2: Fraction(1)})
            for m3, v3 in prod.items():
                key = (m3, z1 + z2)
                out[key] = out.get(key, Fraction(0)) + v1 * v2 * v3
    return {k: v for k, v in out.items() if v}


def _apply_operator_graded(ring, kernel_matrix, op: WeylOp, table, d_max):
    """Degreewise image of the operator on the z-graded I-series.

    Returns a dict target degree -> z-class.  Operators must be free of
    z^2 d/dz.  Sources outside N^r contribute zero; sources inside N^r but
    beyond the table raise MissingDegree.
    """
    r = op.ctx.nvars
    p_cls = [
        _class_from_coords(ring, kernel_matrix, tuple(int(b == a) for b in range(r)))
        for a in range(r)
    ]
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
            val = _zc_scale(table[e], coeff)
            val = _zc_zshift(val, zp)
            for a in range(r):
                # partials act first: falling factors (p_a / z + e_a - nu)
                for nu in range(pa[a]):
                    val = _zc_add(
                        _zc_zshift(_zc_mul_class(ring, val, p_cls[a]), -1),
                        _zc_scale(val, e[a] - nu),
                    )
            out[d] = _zc_add(out.get(d, {}), val)
    return out


def annihilation_check(op: WeylOp, ring, kernel_matrix, table, d_max):
    """B_d residues of the operator against the table, all degrees up to
    d_max; returns per-degree zero flags."""
    images = _apply_operator_graded(ring, kernel_matrix, op, table, d_max)
    report = []
    for d in _effective_degrees(op.ctx.nvars, d_max):
        bd = images.get(d, {})
        report.append({"degree": d, "is_zero": not bd, "residue_terms": len(bd)})
    return {"all_zero": all(row["is_zero"] for row in report), "rows": report}


def _apply_operator_conjugated(ring, kernel_matrix, euler_cls, op, table, d_max):
    """Degreewise image in the constant-z gauge; handles z^2 d/dz.

    State terms are (degree e, scalar z-offset w, class); the section term
    is q^(T+e) z^(w - E) class with w starting at -<e, E>.
    """
    r = op.ctx.nvars
    euler_coords = [
        sum(kernel_matrix.entries[i][a] for i in range(kernel_matrix.rows))
        for a in range(r)
    ]
    p_cls = [
        _class_from_coords(ring, kernel_matrix, tuple(int(b == a) for b in range(r)))
        for a in range(r)
    ]

    def initial(e):
        at_one = {}
        for (mono, ze), v in table[e].items():
            at_one[mono] = at_one.get(mono, Fraction(0)) + v
        return {k: v for k, v in at_one.items() if v}

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


def quot_landing_check(op: WeylOp, ring, kernel_matrix, c_top, euler_cls, table, d_max):
    """True iff c_top times every residue B_d vanishes for d <= d_max."""
    images = _apply_operator_conjugated(ring, kernel_matrix, euler_cls, op, table, d_max)
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
