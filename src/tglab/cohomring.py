"""Stanley-Reisner cohomology rings of smooth complete toric varieties.

The ring is Q[x_1..x_m] modulo the linear relations (rows of the ray
matrix) and the squarefree monomials of minimal non-faces.  The finite
monomial basis and all normal forms come from graded exact linear algebra;
there is no Groebner machinery.  Classes are plain dicts mapping basis
monomials (exponent tuples) to rationals.

For repeated products the ring also keeps its structure constants: the
integer matrix of each basis element over one common denominator, built
once per ring object from the stored normal forms.  ``multiplier(c)``
combines them into the integer matrix of cup product with c.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from itertools import combinations, combinations_with_replacement
from math import gcd, lcm

from tglab.errors import FanNotSmoothComplete
from tglab.intlinalg import IntegerMatrix, row_reduce
from tglab.rationalcone import nullspace
from tglab.toricfan import Fan, adjoint_coefficients


def _monomials(m, d):
    """Exponent tuples of degree d in m variables, lexicographic."""
    if d == 0:
        return [tuple(0 for _ in range(m))]
    out = []
    for combo in combinations_with_replacement(range(m), d):
        exp = [0] * m
        for i in combo:
            exp[i] += 1
        out.append(tuple(exp))
    return sorted(set(out), reverse=True)


def minimal_nonfaces(fan: Fan):
    """Minimal ray index sets that span no cone of the fan."""
    cones = [frozenset(c) for c in fan.max_cones]
    nonfaces = []
    for size in range(1, fan.n_rays + 1):
        for subset in combinations(range(fan.n_rays), size):
            s = frozenset(subset)
            if any(s <= c for c in cones):
                continue
            if any(nf < s for nf in nonfaces):
                continue
            nonfaces.append(s)
    return sorted(tuple(sorted(s)) for s in nonfaces)


class Multiplier:
    """Cup product with one class as an integer matrix over the basis:
    b_i * c = sum(n * b_k for k, n in rows[i]) / den, with den >= 1."""

    __slots__ = ("rows", "den")

    def __init__(self, rows: tuple, den: int = 1):
        self.rows = rows
        self.den = den

    @classmethod
    def reduced(cls, rows, den):
        """From rows of dicts k -> n: zeros dropped, gcd taken out."""
        rows = [{k: n for k, n in row.items() if n} for row in rows]
        g = gcd(den, *(n for row in rows for n in row.values()))
        return cls(
            tuple(tuple((k, n // g) for k, n in sorted(row.items())) for row in rows), den // g
        )

    @property
    def is_zero(self) -> bool:
        return not any(self.rows)

    def then(self, other: "Multiplier") -> "Multiplier":
        """The multiplier of the product of the two classes."""
        rows = []
        for row in self.rows:
            acc = {}
            for j, n in row:
                for k, v in other.rows[j]:
                    acc[k] = acc.get(k, 0) + n * v
            rows.append(acc)
        return Multiplier.reduced(rows, self.den * other.den)


class CohomologyRing:
    """Finite presentation of the rational cohomology of a toric variety."""

    def __init__(self, fan: Fan, basis: tuple, basis_by_degree: dict, nf_table: dict):
        self.fan = fan
        self.basis = basis                      # monomial exponent tuples, all degrees
        self.basis_by_degree = basis_by_degree  # degree -> list of basis monomials
        self.nf_table = nf_table                # monomial -> {basis monomial: coeff}
        self.point_monomial = ()                # both set by build_ring
        self.point_scale = Fraction(1)

    @property
    def dimension(self) -> int:
        return len(self.basis)

    @property
    def top_degree(self) -> int:
        return self.fan.dim

    def one(self):
        unit = tuple(0 for _ in range(self.fan.n_rays))
        return {unit: Fraction(1)}

    def normal_form(self, monomial):
        deg = sum(monomial)
        if deg > self.top_degree:
            return {}
        return dict(self.nf_table[monomial])

    def divisor_class(self, i):
        exp = [0] * self.fan.n_rays
        exp[i] = 1
        return self.normal_form(tuple(exp))

    def combination(self, coeffs):
        """Class sum(coeffs[i] * D_i)."""
        out = {}
        for i, c in enumerate(coeffs):
            if not c:
                continue
            for mono, v in self.divisor_class(i).items():
                out[mono] = out.get(mono, Fraction(0)) + Fraction(c) * v
        return {k: v for k, v in out.items() if v}

    def monomial_product(self, m1, m2):
        """Normal form of the product of two monomials, as the stored dict:
        callers must not change it."""
        if sum(m1) + sum(m2) > self.top_degree:
            return {}
        return self.nf_table[tuple(a + b for a, b in zip(m1, m2))]

    def mul(self, c1, c2):
        out = {}
        for m1, v1 in c1.items():
            for m2, v2 in c2.items():
                for mono, v in self.monomial_product(m1, m2).items():
                    term = v1 * v2 * v
                    out[mono] = out[mono] + term if mono in out else term
        return {k: v for k, v in out.items() if v}

    def scale(self, c, factor):
        if not factor:
            return {}
        factor = Fraction(factor)
        return {k: v * factor for k, v in c.items() if v}

    def add(self, c1, c2):
        out = dict(c1)
        for k, v in c2.items():
            out[k] = out.get(k, Fraction(0)) + v
        return {k: v for k, v in out.items() if v}

    def integrate(self, c) -> Fraction:
        """Coefficient on the point class (the top basis monomial scaled so
        that a smooth cone's divisor product integrates to one)."""
        return c.get(self.point_monomial, Fraction(0)) / self.point_scale

    @cached_property
    def basis_index(self) -> dict:
        """Basis monomial -> its position in ``basis``."""
        return {mono: i for i, mono in enumerate(self.basis)}

    @cached_property
    def structure_constants(self):
        """(products, den): b_i * b_j = sum(n * b_k for k, n in
        products[i][j]) / den, with one den for the whole ring.  Built on
        first use and kept with the ring."""
        index = self.basis_index
        nfs = [[self.monomial_product(b1, b2) for b2 in self.basis] for b1 in self.basis]
        den = lcm(*(v.denominator for row in nfs for nf in row for v in nf.values()))
        products = tuple(
            tuple(
                tuple(
                    (index[mono], v.numerator * (den // v.denominator)) for mono, v in nf.items()
                )
                for nf in row
            )
            for row in nfs
        )
        return products, den

    def multiplier(self, c) -> Multiplier:
        """The integer matrix of cup product with the class c."""
        products, den = self.structure_constants
        cden = lcm(*(v.denominator for v in c.values()))
        coeffs = [
            (self.basis_index[mono], v.numerator * (cden // v.denominator))
            for mono, v in c.items()
        ]
        rows = []
        for row in products:
            acc = {}
            for j, cj in coeffs:
                for k, n in row[j]:
                    acc[k] = acc.get(k, 0) + cj * n
            rows.append(acc)
        return Multiplier.reduced(rows, den * cden)


def build_ring(fan: Fan) -> CohomologyRing:
    """Compute the monomial basis and normal forms by graded elimination."""
    diag = fan.diagnostics
    if not (diag.is_fan and diag.smooth and diag.complete):
        raise FanNotSmoothComplete("cohomology ring needs a smooth complete fan")
    m, n = fan.n_rays, fan.dim
    A = fan.ray_matrix()
    nonfaces = minimal_nonfaces(fan)
    basis_by_degree = {}
    nf_table = {}
    for d in range(n + 2):
        monos = _monomials(m, d)
        index = {mono: i for i, mono in enumerate(monos)}
        rows = []
        if d >= 1:
            for k in range(n):
                for mu in _monomials(m, d - 1):
                    row = [0] * len(monos)
                    for i in range(m):
                        if A.entries[k][i]:
                            exp = list(mu)
                            exp[i] += 1
                            row[index[tuple(exp)]] += A.entries[k][i]
                    rows.append(row)
        for nf in nonfaces:
            size = len(nf)
            if size > d:
                continue
            for mu in _monomials(m, d - size):
                exp = list(mu)
                for i in nf:
                    exp[i] += 1
                row = [0] * len(monos)
                row[index[tuple(exp)]] = 1
                rows.append(row)
        pivots, rref = row_reduce(rows, len(monos))
        free_cols = [j for j in range(len(monos)) if j not in pivots]
        if d > n and free_cols:
            raise FanNotSmoothComplete("ring does not vanish above the top degree")
        basis_by_degree[d] = [monos[j] for j in free_cols]
        for j, mono in enumerate(monos):
            if j in pivots:
                row = rref[pivots.index(j)]
                nf_table[mono] = {
                    monos[k]: -row[k] for k in free_cols if row[k]
                }
            else:
                nf_table[mono] = {mono: Fraction(1)}
    basis = tuple(mono for d in range(n + 1) for mono in basis_by_degree[d])
    ring = CohomologyRing(
        fan=fan,
        basis=basis,
        basis_by_degree={d: list(v) for d, v in basis_by_degree.items() if d <= n},
        nf_table=nf_table,
    )
    if len(basis_by_degree[n]) != 1:
        raise FanNotSmoothComplete("top graded piece is not one-dimensional")
    if ring.dimension != len(fan.max_cones):
        raise FanNotSmoothComplete("ring dimension != number of maximal cones")
    # Point class: the divisor product over the rays of the first maximal cone.
    exp = [0] * m
    for i in fan.max_cones[0]:
        exp[i] += 1
    pt = ring.normal_form(tuple(exp))
    top_mono = basis_by_degree[n][0]
    ring.point_monomial = top_mono
    ring.point_scale = pt[top_mono]
    return ring


def chern_data(ring: CohomologyRing, d: IntegerMatrix):
    """First Chern classes of the bundle rows, their product, and the
    difference class sum D_i - sum c1(L_j)."""
    c1 = []
    for j in range(d.rows):
        c1.append(ring.combination(d.row(j)))
    ctop = ring.one()
    for cls in c1:
        ctop = ring.mul(ctop, cls)
    euler = ring.combination(adjoint_coefficients(ring.fan, d))
    return {"c1": c1, "c_top": ctop, "euler_class": euler}


def twisted_pairing(ring: CohomologyRing, c_top, g1, g2) -> Fraction:
    return ring.integrate(ring.mul(ring.mul(g1, g2), c_top))


def kernel_of_multiplication(ring: CohomologyRing, c):
    """Basis of ker(m_c) as coefficient vectors over the monomial basis.

    Column j of m_c is the image of basis element j: row j of the
    multiplier, transposed.  The multiplier's denominator scales the
    matrix, which leaves its kernel alone, so it is not read."""
    size = len(ring.basis)
    mat = [[0] * size for _ in range(size)]
    for j, row in enumerate(ring.multiplier(c).rows):
        for k, n in row:
            mat[k][j] = n
    return nullspace(mat, size)


def reduced_ring(ring: CohomologyRing, c_top):
    """Quotient by ker(m_{c_top}): representative basis monomials, the
    projection, and the induced (nondegenerate) pairing matrix."""
    kern = kernel_of_multiplication(ring, c_top)
    pivots, rref = row_reduce(kern, len(ring.basis))
    keep = [j for j in range(len(ring.basis)) if j not in pivots]

    def project(cls):
        vec = [cls.get(b, Fraction(0)) for b in ring.basis]
        for row_i, p in enumerate(pivots):
            if vec[p]:
                f = vec[p]
                vec = [a - f * b for a, b in zip(vec, rref[row_i])]
        return {ring.basis[j]: vec[j] for j in keep if vec[j]}

    reps = [ring.basis[j] for j in keep]
    pairing = [
        [
            twisted_pairing(ring, c_top, {bi: Fraction(1)}, {bj: Fraction(1)})
            for bj in reps
        ]
        for bi in reps
    ]
    nondegenerate = len(row_reduce(pairing, len(reps))[0]) == len(reps)
    return {
        "basis": reps,
        "project": project,
        "pairing_matrix": pairing,
        "nondegenerate": nondegenerate,
        "kernel_rank": len(kern),
    }


def grading_mu(ring: CohomologyRing, c: int):
    """Diagonal weights (monomial degree) - (dim - rank)/2 per basis element."""
    shift = Fraction(ring.fan.dim - c, 2)
    return [Fraction(sum(b)) - shift for b in ring.basis]
