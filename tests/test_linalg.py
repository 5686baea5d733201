"""Property tests of the exact linear algebra on sparse Gaussian-rational
matrices, against a naive dense Gauss-Jordan elimination."""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from rinehart.linalg import (
    matvec,
    nullspace,
    rank,
    rref,
    solve,
    solve_columns,
)
from rinehart.scalars import Scalar

MAX_DIM = 12

components = st.one_of(
    st.integers(-4, 4),
    st.fractions(min_value=-4, max_value=4, max_denominator=5),
)
nonzero = st.builds(Scalar, components, components).filter(bool)


@st.composite
def sparse_matrices(draw, max_dim=MAX_DIM):
    """Matrices with at most 40 % nonzero cells, some with a blanked row
    and column, some with a row and a column that are multiples of others
    (so that rank deficiency and kernels are common)."""
    rows = draw(st.integers(1, max_dim))
    cols = draw(st.integers(1, max_dim))
    cells = draw(st.sets(
        st.tuples(st.integers(0, rows - 1), st.integers(0, cols - 1)),
        max_size=int(0.4 * rows * cols),
    ))
    mat = [[Scalar(0)] * cols for _ in range(rows)]
    for i, j in sorted(cells):
        mat[i][j] = draw(nonzero)
    if rows > 1 and draw(st.booleans()):
        src, dst = draw(st.permutations(range(rows)))[:2]
        f = draw(nonzero)
        mat[dst] = [f * x for x in mat[src]]
    if cols > 1 and draw(st.booleans()):
        src, dst = draw(st.permutations(range(cols)))[:2]
        f = draw(nonzero)
        for row in mat:
            row[dst] = f * row[src]
    blank_row = draw(st.none() | st.integers(0, rows - 1))
    if blank_row is not None:
        mat[blank_row] = [Scalar(0)] * cols
    blank_col = draw(st.none() | st.integers(0, cols - 1))
    if blank_col is not None:
        for row in mat:
            row[blank_col] = Scalar(0)
    return mat


def naive_rref(a):
    """Dense Gauss-Jordan: scale and subtract whole rows."""
    mat = [list(row) for row in a]
    rows, cols = len(mat), len(mat[0])
    pivots = []
    r = 0
    for c in range(cols):
        pivot = next((i for i in range(r, rows) if mat[i][c]), None)
        if pivot is None:
            continue
        mat[r], mat[pivot] = mat[pivot], mat[r]
        inv = Scalar(1) / mat[r][c]
        mat[r] = [x * inv for x in mat[r]]
        for i in range(rows):
            if i != r:
                f = mat[i][c]
                mat[i] = [x - f * y for x, y in zip(mat[i], mat[r])]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return mat, pivots


def is_zero_vector(v):
    return all(not x for x in v)


@settings(max_examples=150, deadline=None)
@given(a=sparse_matrices())
def test_rref_is_reduced_echelon_form_and_matches_dense(a):
    snapshot = [list(row) for row in a]
    mat, pivots = rref(a)
    assert a == snapshot
    assert (mat, pivots) == naive_rref(a)
    assert pivots == sorted(set(pivots))
    for r, c in enumerate(pivots):
        assert mat[r][c] == 1
        assert is_zero_vector(mat[r][:c])
        assert all(not mat[i][c] for i in range(len(mat)) if i != r)
    for row in mat[len(pivots):]:
        assert is_zero_vector(row)


@settings(max_examples=150, deadline=None)
@given(a=sparse_matrices())
def test_rank_and_nullspace(a):
    cols = len(a[0])
    r = rank(a)
    assert r == len(naive_rref(a)[1])
    basis = nullspace(a)
    assert len(basis) == cols - r
    for v in basis:
        assert len(v) == cols
        assert is_zero_vector(matvec(a, v))
    if basis:
        assert rank(basis) == len(basis)


@settings(max_examples=150, deadline=None)
@given(a=sparse_matrices(), data=st.data())
def test_solve(a, data):
    cols = len(a[0])
    if data.draw(st.booleans()):
        x0 = data.draw(st.lists(st.builds(Scalar, components, components),
                                min_size=cols, max_size=cols))
        b = matvec(a, x0)
    else:
        b = data.draw(st.lists(st.builds(Scalar, components, components),
                               min_size=len(a), max_size=len(a)))
    x = solve(a, b)
    inconsistent = rank([row + [bi] for row, bi in zip(a, b)]) > rank(a)
    assert (x is None) == inconsistent
    if x is not None:
        assert matvec(a, x) == b


@settings(max_examples=150, deadline=None)
@given(a=sparse_matrices(), data=st.data())
def test_solve_columns(a, data):
    """Each column solves or is None exactly when it is inconsistent; a
    repeated column (inconsistent or not) gets the same answer."""
    cols = len(a[0])
    entries = st.builds(Scalar, components, components)
    bs = []
    for _ in range(data.draw(st.integers(0, 4))):
        if bs and data.draw(st.booleans()):
            bs.append(list(data.draw(st.sampled_from(bs))))
        elif data.draw(st.booleans()):
            x0 = data.draw(st.lists(entries, min_size=cols, max_size=cols))
            bs.append(matvec(a, x0))
        else:
            bs.append(data.draw(st.lists(entries, min_size=len(a), max_size=len(a))))
    xs = solve_columns(a, bs)
    assert len(xs) == len(bs)
    for b, x in zip(bs, xs):
        inconsistent = rank([row + [bi] for row, bi in zip(a, b)]) > rank(a)
        assert (x is None) == inconsistent
        if x is not None:
            assert matvec(a, x) == b
        assert x == solve(a, b)


def test_solve_columns_repeated_inconsistent_column():
    """The second copy of an inconsistent column holds no pivot of the
    augmented matrix, yet it is inconsistent too."""
    a = [[Scalar(1), Scalar(0)], [Scalar(0), Scalar(0)]]
    bad = [Scalar(0), Scalar(1)]
    good = [Scalar(3), Scalar(0)]
    assert solve_columns(a, [bad, bad, good, bad]) == [
        None, None, [Scalar(3), Scalar(0)], None,
    ]
    assert solve_columns(a, []) == []


def test_rref_keeps_exact_fractions():
    a = [[Scalar(2), Scalar(1)], [Scalar(1), Scalar(3)]]
    mat, pivots = rref([row + [Scalar(1)] for row in a])
    assert pivots == [0, 1]
    assert (mat[0][2], mat[1][2]) == (Scalar(Fraction(2, 5)), Scalar(Fraction(1, 5)))

