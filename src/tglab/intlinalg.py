"""Exact integer linear algebra.

Smith normal form with unimodular transforms, saturated kernel lattices,
the section-matrix systems (C, L, M, D) attached to a surjective integer
matrix, and ``row_reduce``, the one Gauss-Jordan elimination over Q that
nullspaces, linear solves, inverses and ranks everywhere in the package go
through.  All arithmetic uses Python integers and Fractions, so nothing
here can overflow or round.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import NamedTuple

from tglab.errors import DimensionMismatch, NotARelation, NotSurjective


class IntegerMatrix:
    """Immutable dense integer matrix, row-major; equal and hashed by value."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, rows: int, cols: int, entries: tuple):
        if len(entries) != rows:
            raise DimensionMismatch("row count does not match entries")
        for row in entries:
            if len(row) != cols:
                raise DimensionMismatch("column count does not match entries")
        self.rows = rows
        self.cols = cols
        self.entries = entries  # tuple of row tuples

    def __eq__(self, other):
        return (
            isinstance(other, IntegerMatrix)
            and (self.rows, self.cols, self.entries) == (other.rows, other.cols, other.entries)
        )

    def __hash__(self):
        return hash((self.rows, self.cols, self.entries))

    @staticmethod
    def from_rows(rows) -> "IntegerMatrix":
        entries = tuple(tuple(int(x) for x in row) for row in rows)
        nrows = len(entries)
        ncols = len(entries[0]) if entries else 0
        return IntegerMatrix(nrows, ncols, entries)

    @staticmethod
    def identity(n: int) -> "IntegerMatrix":
        return IntegerMatrix.from_rows(
            [[1 if i == j else 0 for j in range(n)] for i in range(n)]
        )

    def row(self, i: int) -> tuple:
        return self.entries[i]

    def col(self, j: int) -> tuple:
        return tuple(self.entries[i][j] for i in range(self.rows))

    def transpose(self) -> "IntegerMatrix":
        return IntegerMatrix.from_rows(
            [[self.entries[i][j] for i in range(self.rows)] for j in range(self.cols)]
        )

    def mul(self, other: "IntegerMatrix") -> "IntegerMatrix":
        if self.cols != other.rows:
            raise DimensionMismatch("matrix product shape mismatch")
        out = []
        for i in range(self.rows):
            row = []
            for j in range(other.cols):
                row.append(sum(self.entries[i][k] * other.entries[k][j] for k in range(self.cols)))
            out.append(row)
        return IntegerMatrix.from_rows(out)

    def mul_vec(self, vec) -> tuple:
        if self.cols != len(vec):
            raise DimensionMismatch("matrix-vector shape mismatch")
        return tuple(
            sum(self.entries[i][k] * vec[k] for k in range(self.cols)) for i in range(self.rows)
        )

    def add(self, other: "IntegerMatrix") -> "IntegerMatrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise DimensionMismatch("matrix sum shape mismatch")
        return IntegerMatrix.from_rows(
            [
                [self.entries[i][j] + other.entries[i][j] for j in range(self.cols)]
                for i in range(self.rows)
            ]
        )

    def submatrix(self, row_idx, col_idx) -> "IntegerMatrix":
        row_idx, col_idx = list(row_idx), list(col_idx)
        return IntegerMatrix(
            len(row_idx),
            len(col_idx),
            tuple(tuple(self.entries[i][j] for j in col_idx) for i in row_idx),
        )

    def det(self) -> int:
        """Determinant by fraction-free (Bareiss) elimination."""
        if self.rows != self.cols:
            raise DimensionMismatch("determinant of a non-square matrix")
        n = self.rows
        if n == 0:
            return 1
        m = [list(r) for r in self.entries]
        sign = 1
        prev = 1
        for k in range(n - 1):
            if m[k][k] == 0:
                pivot = next((i for i in range(k + 1, n) if m[i][k] != 0), None)
                if pivot is None:
                    return 0
                m[k], m[pivot] = m[pivot], m[k]
                sign = -sign
            for i in range(k + 1, n):
                for j in range(k + 1, n):
                    m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
                m[i][k] = 0
            prev = m[k][k]
        return sign * m[n - 1][n - 1]

    def to_lists(self):
        return [list(r) for r in self.entries]


_ZERO = Fraction(0)


def row_reduce(rows, ncols):
    """Reduced row echelon form over Q: ``(pivot columns, reduced rows)``.

    ``rows`` are sequences of ``ncols`` ints or Fractions.  The reduced
    rows are the nonzero rows of the echelon form, as lists of Fractions
    with 1 in their pivot column and 0 in every other pivot column; the
    form is unique, so it does not depend on how the elimination runs.
    To solve ``A x = b``, reduce ``[A | b]``: the system is consistent iff
    column ``ncols - 1`` is not a pivot.  Elimination is fraction-free on
    primitive integer rows; the only division is the last one, by each
    row's pivot.
    """
    mat = []
    for row in rows:
        den = lcm(*(x.denominator for x in row))
        ints = [int(x * den) for x in row] if den != 1 else [int(x) for x in row]
        g = gcd(*ints)
        if g:
            mat.append([x // g for x in ints] if g > 1 else ints)
    pivots = []
    for col in range(ncols):
        pr = len(pivots)
        piv = next((i for i in range(pr, len(mat)) if mat[i][col]), None)
        if piv is None:
            continue
        mat[pr], mat[piv] = mat[piv], mat[pr]
        prow = mat[pr]
        pv = prow[col]
        for i, row in enumerate(mat):
            f = row[col]
            if f and i != pr:
                new = [pv * a - f * b for a, b in zip(row, prow)]
                g = gcd(*new)
                mat[i] = [x // g for x in new] if g > 1 else new
        pivots.append(col)
    reduced = []
    for row, col in zip(mat, pivots):
        pv = row[col]
        reduced.append([Fraction(x, pv) if x else _ZERO for x in row])
    return pivots, reduced


class SmithDecomposition(NamedTuple):
    """U * A * V = D with U, V unimodular and D = diag(d_1 | d_2 | ...)."""

    U: IntegerMatrix
    D: IntegerMatrix
    V: IntegerMatrix

    @property
    def diagonal(self):
        return [self.D.entries[i][i] for i in range(min(self.D.rows, self.D.cols))]


class RelationLattice(NamedTuple):
    """Saturated integer kernel lattice; columns of ``basis`` span ker(B)."""

    basis: IntegerMatrix

    @property
    def rank(self) -> int:
        return self.basis.cols


class SectionSystem(NamedTuple):
    """Matrices C, L, M, D with M*L = I, B*C = I, B*L = 0, M*C = 0 and
    C*B + L*M = I."""

    B: IntegerMatrix
    C: IntegerMatrix
    L: IntegerMatrix
    M: IntegerMatrix
    Dmat: IntegerMatrix

    def verify(self) -> bool:
        B, C, L, M = self.B, self.C, self.L, self.M
        s, t = B.rows, B.cols
        r = t - s
        ok = B.mul(C).entries == IntegerMatrix.identity(s).entries
        ok = ok and M.mul(L).entries == IntegerMatrix.identity(r).entries
        ok = ok and all(x == 0 for row in B.mul(L).entries for x in row)
        ok = ok and all(x == 0 for row in M.mul(C).entries for x in row)
        ok = ok and C.mul(B).add(L.mul(M)).entries == IntegerMatrix.identity(t).entries
        ok = ok and self.Dmat.entries == C.mul(B).transpose().entries
        return ok


def smith_normal_form(A: IntegerMatrix) -> SmithDecomposition:
    """Smith normal form with minimal-absolute-value pivoting.

    Returns unimodular U (rows x rows) and V (cols x cols) with
    U*A*V = D, D diagonal with nonnegative entries and d_i | d_{i+1}.
    """
    nr, nc = A.rows, A.cols
    m = [list(r) for r in A.entries]
    u = [[1 if i == j else 0 for j in range(nr)] for i in range(nr)]
    v = [[1 if i == j else 0 for j in range(nc)] for i in range(nc)]

    def swap_rows(i, j):
        m[i], m[j] = m[j], m[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        for row in m:
            row[i], row[j] = row[j], row[i]
        for row in v:
            row[i], row[j] = row[j], row[i]

    def add_row(src, dst, k):
        # row_dst += k * row_src
        for j in range(nc):
            m[dst][j] += k * m[src][j]
        for j in range(nr):
            u[dst][j] += k * u[src][j]

    def add_col(src, dst, k):
        for row in m:
            row[dst] += k * row[src]
        for row in v:
            row[dst] += k * row[src]

    def negate_row(i):
        m[i] = [-x for x in m[i]]
        u[i] = [-x for x in u[i]]

    t = 0
    while t < min(nr, nc):
        # Find the nonzero entry of minimal absolute value in the trailing block.
        best = None
        for i in range(t, nr):
            for j in range(t, nc):
                if m[i][j] != 0 and (best is None or abs(m[i][j]) < abs(m[best[0]][best[1]])):
                    best = (i, j)
        if best is None:
            break
        swap_rows(t, best[0])
        swap_cols(t, best[1])
        if m[t][t] < 0:
            negate_row(t)
        dirty = False
        for i in range(t + 1, nr):
            if m[i][t] != 0:
                q = m[i][t] // m[t][t]
                add_row(t, i, -q)
                if m[i][t] != 0:
                    dirty = True
        for j in range(t + 1, nc):
            if m[t][j] != 0:
                q = m[t][j] // m[t][t]
                add_col(t, j, -q)
                if m[t][j] != 0:
                    dirty = True
        if dirty:
            continue  # smaller pivot appeared; redo this step
        # Enforce divisibility of the remaining block by the pivot.
        offender = None
        for i in range(t + 1, nr):
            for j in range(t + 1, nc):
                if m[i][j] % m[t][t] != 0:
                    offender = i
                    break
            if offender is not None:
                break
        if offender is not None:
            add_row(offender, t, 1)
            continue
        t += 1

    d = IntegerMatrix.from_rows(m)
    return SmithDecomposition(IntegerMatrix.from_rows(u), d, IntegerMatrix.from_rows(v))


def kernel_lattice(B: IntegerMatrix) -> RelationLattice:
    """Saturated basis of ker(B) over Z.

    The kernel columns come from the unimodular V of the Smith form, so the
    basis spans ker(B) as a direct summand of Z^t (saturation for free).
    """
    snf = smith_normal_form(B)
    diag = snf.diagonal
    zero_cols = [j for j in range(B.cols) if j >= len(diag) or diag[j] == 0]
    basis = snf.V.submatrix(range(B.cols), zero_cols)
    return RelationLattice(basis)


def section_system(B: IntegerMatrix) -> SectionSystem:
    """Factor B = N1 * (I_s | 0) * N2 and return the section matrices.

    L is the kernel-lattice basis, M a retraction onto it, C a section of B
    and Dmat = (C*B)^T.  Raises :class:`NotSurjective` when the columns of
    B do not generate Z^s.
    """
    s, t = B.rows, B.cols
    snf = smith_normal_form(B)
    diag = snf.diagonal
    if len(diag) < s or any(d != 1 for d in diag[:s]):
        raise NotSurjective("columns do not generate Z^s (Smith diagonal != 1)")
    r = t - s
    # U*B*V = (I_s | 0)  =>  B = U^-1 (I_s|0) V^-1, so N1 = U^-1, N2 = V^-1.
    # L = last r columns of V, C = (first s columns of V) * U, M = last r rows of V^-1.
    L = snf.V.submatrix(range(t), range(s, t))
    C = snf.V.submatrix(range(t), range(s)).mul(snf.U)
    Vinv = _unimodular_inverse(snf.V)
    M = Vinv.submatrix(range(s, t), range(t))
    Dmat = C.mul(B).transpose()
    system = SectionSystem(B=B, C=C, L=L, M=M, Dmat=Dmat)
    if not system.verify():
        raise AssertionError("section-system identities failed; this is a bug")
    return system


def _unimodular_inverse(V: IntegerMatrix) -> IntegerMatrix:
    """Inverse of a unimodular integer matrix, as an integer matrix."""
    n = V.rows
    aug = [list(V.entries[i]) + [int(i == j) for j in range(n)] for i in range(n)]
    pivots, reduced = row_reduce(aug, 2 * n)
    inverse = [row[n:] for row in reduced]
    if pivots != list(range(n)) or any(x.denominator != 1 for row in inverse for x in row):
        raise ValueError("matrix is not unimodular")
    return IntegerMatrix.from_rows(inverse)


def extend_relation(l, d: IntegerMatrix, A: IntegerMatrix | None = None) -> tuple:
    """Extend a relation of A to a relation of the total-space matrix A'.

    Appends l_{m+j} = -sum_i l_i d_{ji}.  When A is supplied, A*l = 0 is
    checked first and :class:`NotARelation` raised on failure.
    """
    l = tuple(int(x) for x in l)
    if A is not None:
        if A.cols != len(l):
            raise DimensionMismatch("relation length does not match matrix")
        if any(x != 0 for x in A.mul_vec(l)):
            raise NotARelation("A*l != 0")
    if d.cols != len(l):
        raise DimensionMismatch("bundle matrix column count != relation length")
    tail = tuple(-sum(l[i] * d.entries[j][i] for i in range(len(l))) for j in range(d.rows))
    return l + tail


def homogenize(B: IntegerMatrix) -> IntegerMatrix:
    """The (s+1) x (t+1) matrix with first row all ones and column 0 = e_1.

    Deleting row 0 and column 0 recovers B.
    """
    s, t = B.rows, B.cols
    top = tuple([1] * (t + 1))
    rows = [top]
    for i in range(s):
        rows.append((0,) + B.entries[i])
    return IntegerMatrix.from_rows(rows)
