"""Integer linear algebra: Smith form, kernels, sections, homogenization,
and the exact elimination kernel, checked against sympy as an oracle."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy import Matrix
from sympy.matrices.normalforms import smith_normal_form as sympy_snf

from tglab.errors import DimensionMismatch, NotARelation, NotSurjective
from tglab.intlinalg import (
    IntegerMatrix,
    _unimodular_inverse,
    extend_relation,
    homogenize,
    kernel_lattice,
    row_reduce,
    section_system,
    smith_normal_form,
)
from tglab.rationalcone import nullspace


def snf_invariants_hold(A):
    s = smith_normal_form(A)
    assert s.U.mul(A).mul(s.V).entries == s.D.entries
    assert abs(s.U.det()) == 1
    assert abs(s.V.det()) == 1
    diag = s.diagonal
    for a, b in zip(diag, diag[1:]):
        if a != 0:
            assert b % a == 0
        else:
            assert b == 0
    return s


def test_snf_identity():
    s = snf_invariants_hold(IntegerMatrix.identity(3))
    assert s.diagonal == [1, 1, 1]


def test_snf_two_by_two():
    s = snf_invariants_hold(IntegerMatrix.from_rows([[2, 4], [6, 8]]))
    assert s.diagonal == [2, 4]


def test_snf_single_row():
    s = snf_invariants_hold(IntegerMatrix.from_rows([[1, -1]]))
    assert s.diagonal == [1]


def test_snf_random_shapes():
    rng = random.Random(7)
    for _ in range(25):
        rows = rng.randint(1, 4)
        cols = rng.randint(1, 6)
        A = IntegerMatrix.from_rows(
            [[rng.randint(-5, 5) for _ in range(cols)] for _ in range(rows)]
        )
        snf_invariants_hold(A)


def test_kernel_p1_o2():
    B = IntegerMatrix.from_rows([[1, -1, 0], [2, 0, 1]])
    k = kernel_lattice(B)
    assert k.rank == 1
    col = k.column(0)
    assert col in ((1, 1, -2), (-1, -1, 2))
    assert B.mul_vec(col) == (0, 0)


def test_kernel_injective():
    assert kernel_lattice(IntegerMatrix.identity(2)).rank == 0


def test_kernel_p2():
    B = IntegerMatrix.from_rows([[1, 0, -1], [0, 1, -1]])
    k = kernel_lattice(B)
    assert k.rank == 1
    assert k.column(0) in ((1, 1, 1), (-1, -1, -1))


def test_section_system_single_row():
    ss = section_system(IntegerMatrix.from_rows([[1, -1]]))
    assert ss.verify()


def test_section_system_identity_case():
    ss = section_system(IntegerMatrix.identity(3))
    assert ss.verify()
    assert ss.L.cols == 0
    assert ss.M.rows == 0


def test_section_system_not_surjective():
    with pytest.raises(NotSurjective):
        section_system(IntegerMatrix.from_rows([[2]]))


def test_extend_relation_p1():
    d = IntegerMatrix.from_rows([(2, 0)])
    A = IntegerMatrix.from_rows([[1, -1]])
    assert extend_relation((1, 1), d, A) == (1, 1, -2)


def test_extend_relation_zero():
    d = IntegerMatrix.from_rows([(2, 0)])
    assert extend_relation((0, 0), d) == (0, 0, 0)


def test_extend_relation_p2():
    d = IntegerMatrix.from_rows([(1, 0, 0)])
    A = IntegerMatrix.from_rows([[1, 0, -1], [0, 1, -1]])
    assert extend_relation((1, 1, 1), d, A) == (1, 1, 1, -1)


def test_extend_relation_rejects_non_relations():
    d = IntegerMatrix.from_rows([(2, 0)])
    A = IntegerMatrix.from_rows([[1, -1]])
    with pytest.raises(NotARelation):
        extend_relation((1, 2), d, A)


def test_extend_relation_is_lattice_isomorphism():
    # injectivity and rank preservation on a rank-2 example
    A = IntegerMatrix.from_rows([[1, 0, -1, 0], [0, 1, 0, -1]])
    d = IntegerMatrix.from_rows([(1, 0, 1, 0)])
    basis = kernel_lattice(A).basis
    ext = [extend_relation(basis.col(a), d, A) for a in range(basis.cols)]
    ext_matrix = IntegerMatrix.from_rows(
        [[ext[a][i] for a in range(len(ext))] for i in range(A.cols + d.rows)]
    )
    assert ext_matrix.rank() == basis.cols
    seen = set()
    for a in range(len(ext)):
        assert ext[a] not in seen
        seen.add(ext[a])


def test_matrix_equality_is_by_value():
    rows = [[1, -1, 0], [2, 0, 1]]
    a, b = IntegerMatrix.from_rows(rows), IntegerMatrix.from_rows(rows)
    assert a == b and hash(a) == hash(b)
    assert a != a.transpose() and a != IntegerMatrix.from_rows([[1, -1, 0], [2, 0, 2]])
    assert IntegerMatrix.zero(0, 2) != IntegerMatrix.zero(0, 3)
    assert a != rows


@pytest.mark.parametrize("rows, cols, entries", [(2, 2, ((1, 2),)), (1, 2, ((1, 2, 3),))],
                         ids=["row-count", "column-count"])
def test_matrix_shape_is_checked(rows, cols, entries):
    with pytest.raises(DimensionMismatch):
        IntegerMatrix(rows, cols, entries)


def test_homogenize_single_row():
    H = homogenize(IntegerMatrix.from_rows([[1, -1]]))
    assert H.entries == ((1, 1, 1), (0, 1, -1))


def test_homogenize_empty():
    H = homogenize(IntegerMatrix(0, 0, ()))
    assert H.entries == ((1,),)


def test_homogenize_p1_o2():
    B = IntegerMatrix.from_rows([[1, -1, 0], [2, 0, 1]])
    H = homogenize(B)
    cols = [H.col(j) for j in range(4)]
    assert cols == [(1, 0, 0), (1, 1, 2), (1, -1, 0), (1, 0, 1)]
    # deleting row 0 and column 0 recovers B
    assert H.submatrix(range(1, 3), range(1, 4)).entries == B.entries


# Differential tests against sympy on random small matrices.

ORACLE = settings(max_examples=40, deadline=None)
ints = st.integers(-5, 5)
rationals = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4))


@st.composite
def matrices(draw, entries=ints, rows=st.integers(0, 4), cols=st.integers(1, 5)):
    nrows, ncols = draw(rows), draw(cols)
    return draw(st.lists(st.lists(entries, min_size=ncols, max_size=ncols),
                         min_size=nrows, max_size=nrows)), ncols


def _sympy(rows, ncols):
    return Matrix(len(rows), ncols, [x for row in rows for x in row])


def _fraction(x):
    return Fraction(int(x.p), int(x.q))


@ORACLE
@given(st.one_of(matrices(), matrices(rationals)))
def test_row_reduce_matches_sympy_rref(mat):
    rows, ncols = mat
    pivots, reduced = row_reduce(rows, ncols)
    rref, sym_pivots = _sympy(rows, ncols).rref()
    assert pivots == list(sym_pivots)
    assert reduced == [[_fraction(rref[i, j]) for j in range(ncols)] for i in range(len(pivots))]


@ORACLE
@given(st.one_of(matrices(), matrices(rationals)))
def test_nullspace_matches_sympy(mat):
    rows, ncols = mat
    basis = nullspace(rows, ncols)
    sym_basis = _sympy(rows, ncols).nullspace()
    assert len(basis) == len(sym_basis)
    for v in basis:
        assert all(isinstance(x, int) for x in v)
        assert all(sum(a * b for a, b in zip(row, v)) == 0 for row in rows)
    if basis:
        ours = Matrix(basis)
        assert ours.rank() == len(basis)
        assert Matrix.vstack(ours, *[v.T for v in sym_basis]).rank() == len(basis)


@ORACLE
@given(matrices(rationals), st.data())
def test_augmented_solve_matches_sympy(mat, data):
    rows, ncols = mat
    rhs = data.draw(st.lists(rationals, min_size=len(rows), max_size=len(rows)))
    pivots, reduced = row_reduce([row + [b] for row, b in zip(rows, rhs)], ncols + 1)
    A, b = _sympy(rows, ncols), Matrix(len(rows), 1, rhs)
    try:
        sol, params = A.gauss_jordan_solve(b)
    except ValueError:
        assert ncols in pivots
        return
    assert ncols not in pivots
    # Free variables at 0 give the particular solution.
    sol = sol.subs({p: 0 for p in params})
    ours = [Fraction(0)] * ncols
    for row, col in zip(reduced, pivots):
        ours[col] = row[ncols]
    assert ours == [_fraction(sol[j]) for j in range(ncols)]


@st.composite
def unimodular(draw):
    n = draw(st.integers(0, 4))
    m = [[int(i == j) for j in range(n)] for i in range(n)]
    if n:
        for _ in range(draw(st.integers(0, 8))):
            i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
            c = draw(st.integers(-3, 3))
            if i == j:
                m[i] = [-x for x in m[i]]
            else:
                m[i] = [a + c * b for a, b in zip(m[i], m[j])]
            if draw(st.booleans()):
                m[i], m[j] = m[j], m[i]
    return IntegerMatrix(n, n, tuple(tuple(r) for r in m))


@ORACLE
@given(unimodular())
def test_unimodular_inverse_matches_sympy(V):
    inv = _unimodular_inverse(V)
    expected = _sympy(V.entries, V.cols).inv()
    assert inv.entries == tuple(tuple(int(x) for x in expected.row(i)) for i in range(V.rows))
    assert V.mul(inv).entries == IntegerMatrix.identity(V.rows).entries


@ORACLE
@given(st.integers(0, 5).flatmap(lambda n: matrices(ints, st.just(n), st.just(n))))
def test_det_matches_sympy(mat):
    rows, n = mat
    assert IntegerMatrix(n, n, tuple(map(tuple, rows))).det() == _sympy(rows, n).det()


@ORACLE
@given(matrices(rows=st.integers(1, 4)))
def test_smith_diagonal_matches_sympy(mat):
    rows, ncols = mat
    ours = smith_normal_form(IntegerMatrix.from_rows(rows)).diagonal
    theirs = sympy_snf(_sympy(rows, ncols))
    assert ours == [abs(int(theirs[i, i])) for i in range(len(ours))]


@ORACLE
@given(matrices(rows=st.integers(1, 3), cols=st.integers(2, 6)))
def test_kernel_basis_is_saturated(mat):
    """Saturated: the Smith invariants of the basis are all 1."""
    rows, ncols = mat
    basis = kernel_lattice(IntegerMatrix.from_rows(rows)).basis
    if basis.cols == 0:
        return
    diag = sympy_snf(_sympy(basis.entries, basis.cols))
    assert [abs(diag[i, i]) for i in range(basis.cols)] == [1] * basis.cols
