"""Laurent-polynomial families, their Kaehler-moduli restriction, Jacobian
quotients, face critical systems and the good-parameter classifier.

The Jacobian quotient dimension uses the weight filtration by dilates of
the Newton polytope, swept in one pass that reduces each gradient row
once into one fraction-free integer echelon; the parameter classifier
combines that dimension test with a finite-field search for torus
solutions of the face critical systems.  That search runs on each
system's own subtorus, of dimension the rank of its exponent differences,
and vectorizes the modular arithmetic with numpy, imported inside the
search only; everything else is exact.  What does not depend on the
parameter (polytope, faces, volume, the cutoff and the semigroup members)
lives in a NewtonData, the one way to give B, the cutoff and the cone
sets, which one caller builds and shares across its samples.  Each member
comes with its weight rounded up, which is its least grading in the
doubled cone, read off a scan of a dilate of the polytope in
`semigroups.graded_slice_points`.  The member list grows with the sweep:
the dilates grow geometrically and end on the cutoff, so a sweep that
stabilizes early never scans the top dilate.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from math import gcd, lcm, prod
from operator import itemgetter

from tglab.errors import StabilizationFailed, ZeroCoefficient
from tglab.intlinalg import IntegerMatrix, smith_normal_form
from tglab.polytopes import LatticePolytope, faces, normalized_volume
from tglab.semigroups import AffineSemigroup, doubled_semigroup, graded_slice_points


class LaurentPoly:
    """Sparse Laurent polynomial with Fraction coefficients."""

    __slots__ = ("nvars", "coeffs")

    def __init__(self, nvars, coeffs=None):
        self.nvars = nvars
        self.coeffs = {}
        if coeffs:
            for k, v in coeffs.items():
                v = Fraction(v)
                if v:
                    self.coeffs[tuple(k)] = self.coeffs.get(tuple(k), Fraction(0)) + v
            self.coeffs = {k: v for k, v in self.coeffs.items() if v}

    @staticmethod
    def monomial(nvars, exps, coeff=1):
        return LaurentPoly(nvars, {tuple(exps): Fraction(coeff)})

    def __add__(self, other):
        out = dict(self.coeffs)
        for k, v in other.coeffs.items():
            out[k] = out.get(k, Fraction(0)) + v
        return LaurentPoly(self.nvars, out)

    def __sub__(self, other):
        out = dict(self.coeffs)
        for k, v in other.coeffs.items():
            out[k] = out.get(k, Fraction(0)) - v
        return LaurentPoly(self.nvars, out)

    def __mul__(self, other):
        out = {}
        for k1, v1 in self.coeffs.items():
            for k2, v2 in other.coeffs.items():
                k = tuple(a + b for a, b in zip(k1, k2))
                out[k] = out.get(k, Fraction(0)) + v1 * v2
        return LaurentPoly(self.nvars, out)

    def scale(self, c):
        return LaurentPoly(self.nvars, {k: v * Fraction(c) for k, v in self.coeffs.items()})

    def log_derivative(self, k):
        """y_k d/dy_k."""
        return LaurentPoly(
            self.nvars, {e: v * e[k] for e, v in self.coeffs.items() if e[k]}
        )

    def is_zero(self):
        return not self.coeffs

    def __eq__(self, other):
        return (
            isinstance(other, LaurentPoly)
            and self.nvars == other.nvars
            and self.coeffs == other.coeffs
        )

    def __repr__(self):
        if not self.coeffs:
            return "0"
        bits = []
        for e, v in sorted(self.coeffs.items()):
            bits.append(f"{v}*y^{e}")
        return " + ".join(bits)


def build_family(B: IntegerMatrix) -> LaurentPoly:
    """First component of the family: -sum_i lambda_i y^{b_i}, a Laurent
    polynomial in (y_1..y_s, lambda_1..lambda_t)."""
    s, t = B.rows, B.cols
    out = LaurentPoly(s + t)
    for i in range(t):
        exps = list(B.col(i)) + [0] * t
        exps[s + i] = 1
        out = out - LaurentPoly.monomial(s + t, exps)
    return out


def restrict_to_km(B: IntegerMatrix, M: IntegerMatrix, m: int) -> LaurentPoly:
    """The affine family over the Kaehler moduli torus:
    -sum_{i<=m} q^{m_i} y^{b_i} + sum_{i>m} q^{m_i} y^{b_i} in (y, q)."""
    s, t = B.rows, B.cols
    r = M.rows
    out = LaurentPoly(s + r)
    for i in range(t):
        exps = list(B.col(i)) + list(M.col(i))
        sign = -1 if i < m else 1
        out = out + LaurentPoly.monomial(s + r, exps, sign)
    return out


def substitute_km_parameters(family: LaurentPoly, s: int, t: int, M: IntegerMatrix, m: int, q_values):
    """Evaluate the abstract family at lambda_i = (+-1) q^{m_i}; returns a
    Laurent polynomial in y only.  Used to check the two parameterizations
    agree (signs included)."""
    r = M.rows
    out = LaurentPoly(s)
    for e, v in family.coeffs.items():
        ye, lame = e[:s], e[s:]
        coef = v
        for i in range(t):
            if lame[i]:
                sign = 1 if i < m else -1
                monoval = Fraction(1)
                for a in range(r):
                    monoval *= Fraction(q_values[a]) ** M.entries[a][i]
                coef *= (sign * monoval) ** lame[i]
        out = out + LaurentPoly.monomial(s, ye, coef)
    return out


def newton_polytope(B: IntegerMatrix) -> LatticePolytope:
    """Hull of the origin and the exponent columns."""
    pts = [tuple(0 for _ in range(B.rows))] + [B.col(i) for i in range(B.cols)]
    return LatticePolytope.from_points(pts)


class NewtonData:
    """The lambda-independent data of the family of B, built once and
    shared by every parameter sample of one call: the Newton polytope and
    the lcm e of its facet offsets, its faces and normalized volume, the
    slice cutoff (4 e diam(B) unless given), and one list of semigroup
    members that grows with the sweep (`members_up_to`), which needs the
    unimodular cones of the total-space fan.  Each is computed on first
    use, so a sample that stops at a bad face never scans a member."""

    def __init__(self, B: IntegerMatrix, cutoff: int | None = None, *, cone_index_sets):
        self.B = B
        self.cone_index_sets = tuple(map(tuple, cone_index_sets))
        self._cutoff = cutoff
        self._members = []
        self._scanned = -1  # the members are complete up to this grading

    @cached_property
    def polytope(self) -> LatticePolytope:
        return newton_polytope(self.B)

    @cached_property
    def e(self) -> int:
        return lcm(1, *(f.offset for f in self.polytope.facets if f.offset > 0))

    @cached_property
    def faces(self) -> list:
        return faces(self.polytope)

    @cached_property
    def volume(self) -> int:
        return normalized_volume(self.polytope.points)

    @cached_property
    def cutoff(self) -> int:
        if self._cutoff is not None:
            return self._cutoff
        diam = max(1, max((abs(x) for row in self.B.entries for x in row), default=1))
        return 4 * self.e * diam

    @cached_property
    def _doubled(self) -> AffineSemigroup:
        return doubled_semigroup(self.B)

    @cached_property
    def _certified(self):
        return AffineSemigroup(self.B, cone_index_sets=self.cone_index_sets).certified

    def members_up_to(self, bound: int) -> list:
        """The semigroup members as (least grading, point) pairs, sorted by
        grading then lex and complete at least up to grading
        min(bound, cutoff); one list, shared by every sample.

        The least grading of u is ceil(w(u)), w(u) = min {l : u in l*Q} for
        the Newton polytope Q, and the scan of the dilate k * Q in
        `graded_slice_points` gives every point of least grading <= k.  The
        list grows by a scan at the least ceil(cutoff / 2^i) >= bound, so a
        sweep that stops at bound b scans no dilate above 2b, one that runs
        on ends on a scan at the cutoff, and only the points of gradings not
        seen before are certified and appended.  Only points a subcone
        certifies are kept, and nothing here checks that the subcones tile
        the cone; when they do not, the list misses points.  On F3 with -K
        (`w_set_convexity` is False) it misses 286 points at cutoff 12
        (ROADMAP item 2).
        """
        if self._scanned < min(bound, self.cutoff):
            dilate = self.cutoff
            while bound <= (half := -(-dilate // 2)) < dilate:
                dilate = half
            new = [
                (j, p)
                for j, p in graded_slice_points(self._doubled, dilate)
                if j > self._scanned and self._certified(p)
            ]
            self._members += sorted(new, key=itemgetter(0))
            self._scanned = dilate
        return self._members


def _parameter(B: IntegerMatrix, lam) -> list:
    """lam as Fractions, one per column of B and none zero."""
    lam = [Fraction(x) for x in lam]
    if len(lam) != B.cols:
        raise ValueError("need one coefficient per column")
    if any(x == 0 for x in lam):
        raise ZeroCoefficient("parameter on the torus boundary")
    return lam


def jacobian_quotient_dim(newton: NewtonData, lam, stabilization_window: int = 3):
    """Dimension of C[NB] / (y_k df/dy_k) at the parameter lam.

    Degree slices of the weight filtration are swept until the dimension is
    constant across the window; raises StabilizationFailed (with the slice
    history attached) otherwise.  Slice k is the members of weight <= k
    modulo the rows y^u y_k df/dy_k for the members u of weight <= k - 1.
    A row's targets u + b_i have weight <= w(u) + 1 (u in w(u) Q, b_i in Q,
    Q convex), so it is the same at every k past w(u), and each slice only
    reduces its new rows into one echelon.  The targets of slice k have
    weight <= k, so slice k reads only `newton.members_up_to(k)`, whose
    order gives the column ids.  The rows are integers: lam is
    scaled by the lcm of its denominators, which leaves the rank alone.
    """
    B = newton.B
    lam = _parameter(B, lam)
    den = lcm(*(x.denominator for x in lam))
    lam = [x.numerator * (den // x.denominator) for x in lam]
    # y_k df/dy_k = -sum_i b_{ki} lam_i y^{b_i}
    gens = []
    for k in range(B.rows):
        g = {}
        for i in range(B.cols):
            if B.entries[k][i]:
                col = B.col(i)
                g[col] = g.get(col, 0) - B.entries[k][i] * lam[i]
        gens.append([(e, c) for e, c in g.items() if c])
    index = {}  # member point -> column, its place in the member list
    pivots = {}  # leading column -> primitive integer row (dict column -> coeff)
    fed = size = 0
    history = []
    for bound in range(1, newton.cutoff + 1):
        members = newton.members_up_to(bound)
        index.update((members[i][1], i) for i in range(len(index), len(members)))
        while size < len(members) and members[size][0] <= bound:
            size += 1
        while fed < size and members[fed][0] < bound:
            u = members[fed][1]
            fed += 1
            for g in gens:
                row = {}
                for e, c in g:
                    col = index.get(tuple(a + b for a, b in zip(u, e)))
                    if col is not None:
                        row[col] = c
                _reduce_into(pivots, row)
        history.append(size - len(pivots))
        if len(history) >= stabilization_window and len(set(history[-stabilization_window:])) == 1:
            return {"dim": history[-1], "slices": history}
    dims = ", ".join(map(str, history))
    raise StabilizationFailed(
        f"no stabilization within {newton.cutoff} slices: dimensions {dims}", partial=history
    )


def _reduce_into(pivots: dict, row: dict) -> None:
    """Reduce the integer row fraction-free against the echelon ``pivots``,
    dividing out its content at each step, and add what is left as a pivot.
    A row leads with its last column, its heaviest member: those targets
    are mostly new, so a new row meets few pivots."""
    while row:
        g = gcd(*row.values())
        row = {c: v // g for c, v in row.items()} if g > 1 else row
        col = max(row)
        prow = pivots.get(col)
        if prow is None:
            pivots[col] = row
            return
        g = gcd(row[col], prow[col])
        a, b = prow[col] // g, row[col] // g
        new = {c: a * v for c, v in row.items()}
        for c, v in prow.items():
            new[c] = new.get(c, 0) - b * v
        row = {c: v for c, v in new.items() if v}


def face_critical_system(B: IntegerMatrix, face_indices, lam):
    """Equations of the critical system of the face: the face part of f and
    its log derivatives.  Indices refer to the generator list (0, b_1..b_t)
    of the Newton polytope; the face must avoid the origin, index 0."""
    if 0 in face_indices:
        raise ValueError("a face through the origin has no critical system here")
    s = B.rows
    lam = [Fraction(x) for x in lam]
    f = LaurentPoly(s)
    for idx in sorted(face_indices):
        f = f + LaurentPoly.monomial(s, B.col(idx - 1), lam[idx - 1])
    return [f] + [f.log_derivative(k) for k in range(s)]


PRIMES = (101, 103)  # of the finite-field face search


def _fp_witness(eqs, s, p):
    """A common zero of the Laurent equations on the torus (F_p^*)^s, or None.

    None also when a coefficient has a denominator divisible by p.  The
    search runs on the system's own torus: every monomial lies in e0 + L,
    with L spanned by the exponent differences, and the Smith form of the
    difference matrix gives a unimodular U with U L inside Z^d x 0,
    d = rank L.  Substitute y = w^U, so that y^e = w^{U e}.  Divided by
    y^e0 the equations involve w_1..w_d alone, so they have a zero on
    (F_p^*)^s exactly when they have one with w_{d+1..s} = 1, where
    y^e = w^{(U e)_{1..d}}; the search is over those (p-1)^d points.  They
    are indexed by exponents of a primitive root g, w_j = g^{k_j}, so a
    monomial is ``table[k . (U e)_{1..d} mod (p-1)]``, and the search takes
    the first k in lex order that zeroes every equation.  That zero is
    lifted back to y = w^U and checked against the equations mod p.
    """
    import numpy as np

    terms = []  # per equation: (exponent, coefficient mod p)
    for poly in eqs:
        row = []
        for e, c in poly.coeffs.items():
            den = c.denominator % p
            if den == 0:
                return None  # prime unusable for this parameter
            row.append((e, c.numerator * pow(den, -1, p) % p))
        terms.append(row)
    exps = [e for row in terms for e, _ in row] or [(0,) * s]
    e0 = exps[0]
    snf = smith_normal_form(
        IntegerMatrix.from_rows([[e[i] - e0[i] for e in exps] for i in range(s)])
    )
    d = sum(1 for x in snf.diagonal if x)
    U = snf.U.entries
    n = p - 1
    g = next(g for g in range(1, p) if len({pow(g, i, p) for i in range(n)}) == n)
    table = np.array([pow(g, i, p) for i in range(n)], dtype=np.int64)
    ks = np.indices((n,) * d, dtype=np.int64).reshape(d, n**d).T
    ok = np.ones(n**d, dtype=bool)
    for row in terms:
        acc = np.zeros(n**d, dtype=np.int64)
        for e, c in row:
            f = [sum(U[j][i] * e[i] for i in range(s)) % n for j in range(d)]
            acc = (acc + c * table[ks @ np.array(f, dtype=np.int64) % n]) % p
        ok &= acc == 0
        if not ok.any():
            return None
    k = [int(x) for x in ks[np.flatnonzero(ok)[0]]]
    point = tuple(pow(g, sum(k[j] * U[j][i] for j in range(d)) % n, p) for i in range(s))
    for row in terms:
        if sum(c * prod(pow(y, a, p) for y, a in zip(point, e)) for e, c in row) % p:
            raise RuntimeError(f"lifted F_{p} point {point} is not a common zero")
    return point


def classify_parameter(newton: NewtonData, lam, stabilization_window: int = 3):
    """good / non_tame_suspected / bad_suspected with the evidence recorded.

    good means the Jacobian quotient dimension equals the normalized volume
    and no proper face avoiding the origin has a torus witness over the
    test primes.  Only those faces are searched: a face through the origin
    never decides the verdict.  The face search is a sound-but-incomplete
    heuristic: for each such face it looks for a common zero of the face's
    critical system on (F_p^*)^s, reduced to the face's own torus of
    dimension at most s - 1 (see `_fp_witness`), and every point it reports
    has been checked against the equations mod p.  One NewtonData serves
    every sample of the same B.
    """
    B = newton.B
    lam = _parameter(B, lam)
    s = B.rows
    vol = newton.volume
    evidence = {"volume": vol}
    for face in newton.faces:
        if 0 in face.indices:
            continue  # through the origin, the whole polytope included
        eqs = face_critical_system(B, face.indices, lam)
        if all(e.is_zero() for e in eqs):
            continue
        # A single-monomial equation with a nonzero coefficient has no torus
        # zero over any field, so the face can be skipped exactly.
        if any(len(e.coeffs) == 1 for e in eqs if not e.is_zero()):
            continue
        for p in PRIMES:
            wit = _fp_witness(eqs, s, p)
            if wit is not None:
                evidence["bad_face_witness"] = {"face": sorted(face.indices), "prime": p,
                                                "point": wit}
                return {"verdict": "bad_suspected", "evidence": evidence}
    jac = jacobian_quotient_dim(newton, lam, stabilization_window=stabilization_window)
    evidence["jacobian_dim"] = jac["dim"]
    if jac["dim"] != vol:
        evidence["dimension_mismatch"] = True
        return {"verdict": "non_tame_suspected", "evidence": evidence}
    return {"verdict": "good", "evidence": evidence}
