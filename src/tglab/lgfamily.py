"""Laurent-polynomial families, their Kaehler-moduli restriction, Jacobian
quotients, face critical systems and the good-parameter classifier.

A family is a dict from exponent tuples to coefficients, zeros dropped.
The Jacobian quotient dimension uses the weight filtration by dilates of
the Newton polytope, swept in one pass that reduces each gradient row
once into one fraction-free integer echelon, until WINDOW = 3 slices in a
row have one dimension or the cutoff is reached; the parameter classifier
combines that dimension test with a finite-field search for torus
solutions of the face critical systems.  A face system is its exponent
list and one coefficient row per equation; the search scales each row to
coprime integers, so no test prime is unusable, and runs on the system's
own subtorus, of dimension the rank of its exponent differences, with the
modular arithmetic vectorized by numpy, imported inside the search only;
everything else is exact.  What does not depend on the parameter
(the cutoff, the semigroup members and a record per searched face with
its torus projection) lives in a NewtonData, beside the Newton polytope
that the fan keeps with its faces and volume; NewtonData is the
one way to give the total-space fan (whose rays are B) and the cutoff,
which one caller builds and shares across its samples.  Each member comes
with its weight rounded up, which is its least grading in the doubled
cone, read off a scan of a dilate of the polytope in
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
from tglab.polytopes import LatticePolytope
from tglab.rationalcone import _primitive
from tglab.semigroups import graded_slice_points
from tglab.toricfan import Fan


def _collect(terms) -> dict:
    """Sum (exponent, coefficient) terms into a dict, zero sums dropped."""
    out = {}
    for e, c in terms:
        out[e] = out.get(e, 0) + c
    return {e: c for e, c in out.items() if c}


def build_family(B: IntegerMatrix) -> dict:
    """First component of the family: -sum_i lambda_i y^{b_i}, a Laurent
    polynomial in (y_1..y_s, lambda_1..lambda_t) as exponent -> coefficient."""
    t = B.cols
    return _collect((B.col(i) + tuple(int(i == j) for j in range(t)), -1) for i in range(t))


def restrict_to_km(B: IntegerMatrix, M: IntegerMatrix, m: int) -> dict:
    """The affine family over the Kaehler moduli torus:
    -sum_{i<=m} q^{m_i} y^{b_i} + sum_{i>m} q^{m_i} y^{b_i} in (y, q), as
    exponent -> coefficient."""
    return _collect((B.col(i) + M.col(i), -1 if i < m else 1) for i in range(B.cols))


class NewtonData:
    """The lambda-independent data of the family of B, the ray matrix of
    ``fan``, built once and shared by every parameter sample of one call:
    the lcm e of the facet offsets of the fan's Newton polytope, whose
    volume and faces the fan keeps, the faces the F_p search reads with
    their torus projections, the slice cutoff (4 e diam(B) unless given),
    and one list of semigroup members that grows with the sweep
    (`members_up_to`), the cone points in the fan's support.  Each is
    computed on first use, so a sample that stops at a bad face never scans
    a member."""

    def __init__(self, fan: Fan, cutoff: int | None = None):
        self.fan = fan
        self.B = fan.ray_matrix()
        self._cutoff = cutoff
        self._members = []
        self._scanned = -1  # the members are complete up to this grading

    @property
    def polytope(self) -> LatticePolytope:
        return self.fan.newton_polytope

    @cached_property
    def e(self) -> int:
        return lcm(1, *(f.offset for f in self.polytope.facets if f.offset > 0))

    @cached_property
    def searched_faces(self) -> list:
        """(sorted indices, `torus_projection`) of each face the F_p search
        reads, in face order.  A face through the origin never decides the
        verdict.  An equation with one monomial has no torus zero, and
        since every lambda_j is nonzero the monomials of an equation do not
        depend on lambda: so a lone point is dropped, and so is a face with
        a coordinate in which only one of its points is nonzero."""
        out = []
        for face in self.polytope.faces:
            if 0 in face.indices:
                continue
            exponents, rows = face_critical_system(self.B, face.indices, [1] * self.B.cols)
            if all(sum(1 for c in row if c) != 1 for row in rows):
                out.append((sorted(face.indices), torus_projection(exponents)))
        return out

    @cached_property
    def cutoff(self) -> int:
        if self._cutoff is not None:
            return self._cutoff
        diam = max(1, max((abs(x) for row in self.B.entries for x in row), default=1))
        return 4 * self.e * diam

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
        seen before are tested and appended.  The members are the cone
        points in the support of the fan (`Fan.contains`; the fan is smooth,
        so such a point is a nonnegative integer sum of one cone's rays).
        The list is complete only when `w_set_convexity(fan)` holds, and
        nothing here checks it; when it fails, the list misses points.  On
        F3 with -K it misses 286 points at cutoff 12 (ROADMAP item 1).
        """
        if self._scanned < min(bound, self.cutoff):
            dilate = self.cutoff
            while bound <= (half := -(-dilate // 2)) < dilate:
                dilate = half
            new = [
                (j, p)
                for j, p in graded_slice_points(self.polytope, dilate)
                if j > self._scanned and self.fan.contains(p)
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


# The sweep stops when this many consecutive slices have one dimension.  It
# stands in for the end point of the Newton spectrum (Kouchnirenko, Invent.
# Math. 32, 1976), which would tell where the dimension is final.
WINDOW = 3


def jacobian_quotient_dim(newton: NewtonData, lam):
    """Dimension of C[NB] / (y_k df/dy_k) at the parameter lam.

    Degree slices of the weight filtration are swept until the last WINDOW
    slices have one dimension; raises StabilizationFailed (with the slice
    history attached) when the cutoff comes first.  Slice k is the members of weight <= k
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
        if len(history) >= WINDOW and len(set(history[-WINDOW:])) == 1:
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
    """The critical system of the face: the face part of f and its log
    derivatives, as (exponents, rows).  The exponents are the face's
    columns b_j in index order; row 0 holds the lambda_j and row 1 + k the
    e_jk lambda_j, the coefficients of y_k d/dy_k.  Indices refer to the
    generator list (0, b_1..b_t) of the Newton polytope; the face must
    avoid the origin, index 0."""
    if 0 in face_indices:
        raise ValueError("a face through the origin has no critical system here")
    indices = sorted(face_indices)
    exponents = [B.col(j - 1) for j in indices]
    lam = [Fraction(lam[j - 1]) for j in indices]
    return exponents, [lam] + [[e[k] * x for e, x in zip(exponents, lam)] for k in range(B.rows)]


def torus_projection(exponents) -> tuple:
    """The rows U_1..U_d of the unimodular U in the Smith form of the
    exponent differences e - e_0, d their rank: U maps their lattice L
    into Z^d x 0, so y^e / y^e0 = w^{(U (e - e0))_{1..d}} under y = w^U."""
    e0 = exponents[0]
    snf = smith_normal_form(
        IntegerMatrix.from_rows([[e[i] - e0[i] for e in exponents] for i in range(len(e0))])
    )
    return tuple(snf.U.entries[:sum(1 for x in snf.diagonal if x)])


PRIMES = (101, 103)  # of the finite-field face search


def _fp_witness(exponents, rows, p, projection):
    """A common zero on the torus (F_p^*)^s of the equations sum_j
    row[j] y^{exponents[j]}, one per row, or None.

    Each row is first scaled to coprime integers, which keeps its zeros, so
    every prime can be used.  The search runs on the system's own torus:
    `projection` is U_1..U_d from `torus_projection`, with U unimodular and
    U L inside Z^d x 0 for the lattice L of the exponent differences.
    Substitute y = w^U, so that y^e = w^{U e}.  Divided by y^e0 the
    equations involve w_1..w_d alone, so they have a zero on (F_p^*)^s
    exactly when they have one with w_{d+1..s} = 1, where
    y^e = w^{(U e)_{1..d}}; the search is over those (p-1)^d points.  They
    are indexed by exponents of a primitive root g, w_j = g^{k_j}, so a
    monomial is ``table[k . (U e)_{1..d} mod (p-1)]``, and the search takes
    the first k in lex order that zeroes every equation.  That zero is
    lifted back to y = w^U and checked against the equations mod p.
    """
    import numpy as np

    s, d, n = len(exponents[0]), len(projection), p - 1
    reduced = [
        np.array([sum(u * a for u, a in zip(U_j, e)) % n for U_j in projection], dtype=np.int64)
        for e in exponents
    ]
    rows = [[c % p for c in _primitive(row)] for row in rows]
    g = next(g for g in range(1, p) if len({pow(g, i, p) for i in range(n)}) == n)
    table = np.array([pow(g, i, p) for i in range(n)], dtype=np.int64)
    ks = np.indices((n,) * d, dtype=np.int64).reshape(d, n**d).T
    ok = np.ones(n**d, dtype=bool)
    for row in rows:
        acc = np.zeros(n**d, dtype=np.int64)
        for f, c in zip(reduced, row):
            if c:
                acc = (acc + c * table[ks @ f % n]) % p
        ok &= acc == 0
        if not ok.any():
            return None
    k = [int(x) for x in ks[np.flatnonzero(ok)[0]]]
    point = tuple(pow(g, sum(k_j * U_j[i] for k_j, U_j in zip(k, projection)) % n, p)
                  for i in range(s))
    values = [prod(pow(y, a, p) for y, a in zip(point, e)) for e in exponents]
    for row in rows:
        if sum(c * v for c, v in zip(row, values)) % p:
            raise RuntimeError(f"lifted F_{p} point {point} is not a common zero")
    return point


def classify_parameter(newton: NewtonData, lam):
    """good / non_tame_suspected / bad_suspected with the evidence recorded.

    good means the Jacobian quotient dimension equals the normalized volume
    and no face in `newton.searched_faces` has a torus witness over the
    test primes.  The face search is a sound-but-incomplete heuristic: for
    each such face it looks for a common zero of the face's critical
    system on (F_p^*)^s, reduced to the face's own torus of dimension at
    most s - 1 (see `_fp_witness`), and every point it reports has been
    checked against the equations mod p.  A rescaled lam gets the same
    verdict.  One NewtonData serves every sample of the same B.
    """
    B = newton.B
    lam = _parameter(B, lam)
    vol = newton.polytope.volume
    evidence = {"volume": vol}
    for indices, projection in newton.searched_faces:
        exponents, rows = face_critical_system(B, indices, lam)
        for p in PRIMES:
            wit = _fp_witness(exponents, rows, p, projection)
            if wit is not None:
                evidence["bad_face_witness"] = {"face": indices, "prime": p, "point": wit}
                return {"verdict": "bad_suspected", "evidence": evidence}
    jac = jacobian_quotient_dim(newton, lam)
    evidence["jacobian_dim"] = jac["dim"]
    if jac["dim"] != vol:
        evidence["dimension_mismatch"] = True
        return {"verdict": "non_tame_suspected", "evidence": evidence}
    return {"verdict": "good", "evidence": evidence}
