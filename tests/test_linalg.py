"""Property tests of the exact sparse linear algebra on Gaussian-rational
matrices, against a naive dense Gauss-Jordan elimination."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rinehart.linalg import (
    Echelon,
    nullspace,
    rank,
    rref,
    solve,
    solve_columns,
)
from rinehart.scalars import ONE, ZERO, Scalar

MAX_DIM = 12
TWO = Scalar(2)

# Every value a Scalar component can take: the ints -4..4 and the
# fractions in [-4, 4] with denominator at most 5, 0 first so that
# shrinking goes to 0.  The strategies draw a Scalar as a pair of indices
# into it, plain ints, and the test bodies build it with `scalar`:
# drawing Fractions and Scalars through Hypothesis cost most of this
# file's time.
COMPONENTS = tuple(sorted(
    {Fraction(p, q) for q in range(1, 6) for p in range(-4 * q, 4 * q + 1)},
    key=lambda x: (x.denominator, abs(x), x < 0)))
component = st.integers(0, len(COMPONENTS) - 1)
entries = st.tuples(component, component)
nonzero = entries.filter(any)  # (0, 0) is the one zero


def scalar(t) -> Scalar:
    """The Scalar of an index pair drawn from ``entries``."""
    return Scalar(COMPONENTS[t[0]], COMPONENTS[t[1]])


@st.composite
def sparse_matrices(draw, max_dim=MAX_DIM):
    """Recipes (see `matrix`) of matrices with at most 40 % nonzero cells,
    some with a blanked row and column, some with a row and a column that
    are multiples of others (so that rank deficiency and kernels are
    common)."""
    rows = draw(st.integers(1, max_dim))
    cols = draw(st.integers(1, max_dim))
    cells = draw(st.sets(
        st.tuples(st.integers(0, rows - 1), st.integers(0, cols - 1)),
        max_size=int(0.4 * rows * cols),
    ))
    values = {cell: draw(nonzero) for cell in sorted(cells)}
    row_copy = col_copy = None
    if rows > 1 and draw(st.booleans()):
        row_copy = (*draw(st.permutations(range(rows)))[:2], draw(nonzero))
    if cols > 1 and draw(st.booleans()):
        col_copy = (*draw(st.permutations(range(cols)))[:2], draw(nonzero))
    blank_row = draw(st.none() | st.integers(0, rows - 1))
    blank_col = draw(st.none() | st.integers(0, cols - 1))
    return rows, cols, values, row_copy, col_copy, blank_row, blank_col


def matrix(recipe):
    """The Scalar matrix of a `sparse_matrices` recipe: the drawn cells,
    then the row and the column copied as multiples, then the blanks."""
    rows, cols, values, row_copy, col_copy, blank_row, blank_col = recipe
    mat = [[Scalar(0)] * cols for _ in range(rows)]
    for (i, j), t in values.items():
        mat[i][j] = scalar(t)
    if row_copy is not None:
        src, dst, f = row_copy
        f = scalar(f)
        mat[dst] = [f * x for x in mat[src]]
    if col_copy is not None:
        src, dst, f = col_copy
        f = scalar(f)
        for row in mat:
            row[dst] = f * row[src]
    if blank_row is not None:
        mat[blank_row] = [Scalar(0)] * cols
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


def matvec(a, v) -> list:
    return [sum((c * x for c, x in zip(row, v) if c and x), Scalar(0)) for row in a]


def is_zero_vector(v):
    return all(not x for x in v)


def rows_of(a):
    """The rows of a dense matrix as sparse vectors."""
    return [{j: c for j, c in enumerate(row) if c} for row in a]


def cols_of(a):
    """The columns of a dense matrix as sparse vectors keyed by row."""
    return [{i: row[j] for i, row in enumerate(a) if row[j]} for j in range(len(a[0]))]


def sparse(v):
    return {i: c for i, c in enumerate(v) if c}


def dense(x, n):
    """A sparse solution {j: c} as a dense list of length n (None stays)."""
    return None if x is None else [x.get(j, Scalar(0)) for j in range(n)]


def dense_rank(a):
    return rank(rows_of(a))


def dense_nullspace(a):
    return [dense(v, len(a[0])) for v in nullspace(cols_of(a))]


def dense_solve_columns(a, bs):
    return [dense(x, len(a[0])) for x in solve_columns(cols_of(a), [sparse(b) for b in bs])]


def dense_solve(a, b):
    return dense(solve(cols_of(a), sparse(b)), len(a[0]))


@settings(max_examples=150, deadline=None)
@given(recipe=sparse_matrices())
def test_rref_is_reduced_echelon_form_and_matches_dense(recipe):
    a = matrix(recipe)
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
@given(recipe=sparse_matrices())
def test_rank_and_nullspace(recipe):
    a = matrix(recipe)
    cols = len(a[0])
    r = dense_rank(a)
    assert r == len(naive_rref(a)[1])
    basis = dense_nullspace(a)
    assert len(basis) == cols - r
    for v in basis:
        assert len(v) == cols
        assert is_zero_vector(matvec(a, v))
    if basis:
        assert dense_rank(basis) == len(basis)


@settings(max_examples=150, deadline=None)
@given(recipe=sparse_matrices(), data=st.data())
def test_solve(recipe, data):
    a = matrix(recipe)
    cols = len(a[0])
    if data.draw(st.booleans()):
        x0 = data.draw(st.lists(entries, min_size=cols, max_size=cols))
        b = matvec(a, list(map(scalar, x0)))
    else:
        b = list(map(scalar, data.draw(st.lists(entries, min_size=len(a), max_size=len(a)))))
    x = dense_solve(a, b)
    inconsistent = dense_rank([row + [bi] for row, bi in zip(a, b)]) > dense_rank(a)
    assert (x is None) == inconsistent
    if x is not None:
        assert matvec(a, x) == b


@settings(max_examples=150, deadline=None)
@given(recipe=sparse_matrices(), data=st.data())
def test_solve_columns(recipe, data):
    """Each column solves or is None exactly when it is inconsistent; a
    repeated column (inconsistent or not) gets the same answer."""
    a = matrix(recipe)
    cols = len(a[0])
    bs = []
    for _ in range(data.draw(st.integers(0, 4))):
        if bs and data.draw(st.booleans()):
            bs.append(list(bs[data.draw(st.integers(0, len(bs) - 1))]))
        elif data.draw(st.booleans()):
            x0 = data.draw(st.lists(entries, min_size=cols, max_size=cols))
            bs.append(matvec(a, list(map(scalar, x0))))
        else:
            b = data.draw(st.lists(entries, min_size=len(a), max_size=len(a)))
            bs.append(list(map(scalar, b)))
    xs = dense_solve_columns(a, bs)
    assert len(xs) == len(bs)
    for b, x in zip(bs, xs):
        inconsistent = dense_rank([row + [bi] for row, bi in zip(a, b)]) > dense_rank(a)
        assert (x is None) == inconsistent
        if x is not None:
            assert matvec(a, x) == b
        assert x == dense_solve(a, b)


def test_solve_columns_repeated_inconsistent_column():
    """The second copy of an inconsistent column holds no pivot of the
    augmented matrix, yet it is inconsistent too."""
    a = [[Scalar(1), Scalar(0)], [Scalar(0), Scalar(0)]]
    bad = [Scalar(0), Scalar(1)]
    good = [Scalar(3), Scalar(0)]
    assert dense_solve_columns(a, [bad, bad, good, bad]) == [
        None, None, [Scalar(3), Scalar(0)], None,
    ]
    assert dense_solve_columns(a, []) == []


def test_rref_keeps_exact_fractions():
    a = [[Scalar(2), Scalar(1)], [Scalar(1), Scalar(3)]]
    mat, pivots = rref([row + [Scalar(1)] for row in a])
    assert pivots == [0, 1]
    assert (mat[0][2], mat[1][2]) == (Scalar(Fraction(2, 5)), Scalar(Fraction(1, 5)))



# ---------- the sparse kernel on keys shaped like TensorVec keys ----------

TENSOR_KEYS = [((e0, e1), mask, idx)
               for e0 in (-1, 0, 1) for e1 in (0, 2) for mask in (0, 1, 3) for idx in (0, 1)]


@st.composite
def sparse_systems(draw):
    """Recipes (see `system`) of key rows, sparse vectors and targets keyed
    like ``TensorVec.terms``.

    The vectors include empty ones and repeated (rescaled) ones, so
    dependencies are common; the targets include combinations of the
    vectors, random vectors (mostly outside the span) and repeats of
    earlier targets, inconsistent ones included.
    """
    keys = draw(st.lists(st.sampled_from(TENSOR_KEYS), min_size=1, max_size=8, unique=True))
    key_set = st.sets(st.sampled_from(tuple(keys)), max_size=len(keys))

    def fresh():
        return ("fresh", {k: draw(nonzero) for k in draw(key_set)})

    vectors = []
    for _ in range(draw(st.integers(0, 9))):
        kind = draw(st.sampled_from(("fresh", "empty", "repeat")))
        if kind == "repeat" and vectors:
            vectors.append(("repeat", draw(st.integers(0, len(vectors) - 1)), draw(nonzero)))
        else:
            vectors.append(("fresh", {}) if kind == "empty" else fresh())
    targets = []
    for _ in range(draw(st.integers(0, 5))):
        kind = draw(st.sampled_from(("span", "fresh", "repeat")))
        if kind == "repeat" and targets:
            targets.append(("repeat", draw(st.integers(0, len(targets) - 1))))
        elif kind == "span":
            targets.append(("span", [draw(entries) for _ in vectors]))
        else:
            targets.append(fresh())
    return sorted(keys), vectors, targets


def system(recipe):
    """Keys, vectors and targets of a `sparse_systems` recipe, with Scalar
    entries: a repeat is a multiple of an earlier vector or a copy of an
    earlier target, and a span target is a combination of every vector."""
    keys, vector_recipes, target_recipes = recipe
    vectors = []
    for kind, *args in vector_recipes:
        if kind == "repeat":
            i, f = args
            f = scalar(f)
            vectors.append({k: f * c for k, c in vectors[i].items()})
        else:
            vectors.append({k: scalar(t) for k, t in args[0].items()})
    targets = []
    for kind, arg in target_recipes:
        if kind == "repeat":
            targets.append(dict(targets[arg]))
        elif kind == "span":
            b = {}
            for v, t in zip(vectors, arg):
                c = scalar(t)
                for k, x in v.items():
                    b[k] = b.get(k, Scalar(0)) + c * x
            targets.append({k: c for k, c in b.items() if c})
        else:
            targets.append({k: scalar(t) for k, t in arg.items()})
    return keys, vectors, targets


def as_columns(keys, vectors):
    """Dense matrix with one row per key and one column per vector."""
    return [[v.get(k, Scalar(0)) for v in vectors] for k in keys]


def oracle_nullspace(keys, vectors):
    """The kernel basis of the dense reduced echelon form: one vector per
    free column f, with 1 at f and minus column f at the pivots."""
    n = len(vectors)
    if not n:
        return []
    red, pivots = naive_rref(as_columns(keys, vectors))
    out = []
    for f in range(n):
        if f in pivots:
            continue
        v = [Scalar(0)] * n
        v[f] = Scalar(1)
        for r, p in enumerate(pivots):
            v[p] = -red[r][f]
        out.append(v)
    return out


def oracle_solve_columns(keys, vectors, targets):
    """Reduce [A | b_1 ... b_k] once; b is inconsistent iff a row past the
    rank of A is nonzero in its column; free coordinates are zero."""
    n = len(vectors)
    if not targets:
        return []
    red, pivots = naive_rref(as_columns(keys, vectors + targets))
    rank_a = sum(1 for p in pivots if p < n)
    out = []
    for col in range(n, n + len(targets)):
        if any(red[r][col] for r in range(rank_a, len(keys))):
            out.append(None)
            continue
        x = [Scalar(0)] * n
        for r in range(rank_a):
            x[pivots[r]] = red[r][col]
        out.append(x)
    return out


@settings(max_examples=200, deadline=None)
@given(recipe=sparse_systems())
def test_sparse_kernel_matches_the_dense_oracle(recipe):
    keys, vectors, targets = system(recipe)
    n = len(vectors)
    snapshot = [dict(v) for v in vectors + targets]
    want_rank = len(naive_rref(as_columns(keys, vectors))[1]) if n else 0
    assert rank(vectors) == want_rank
    assert [dense(x, n) for x in nullspace(vectors)] == oracle_nullspace(keys, vectors)
    assert [dense(x, n) for x in solve_columns(vectors, targets)] == oracle_solve_columns(
        keys, vectors, targets)
    assert vectors + targets == snapshot


# ---------- rank's disjoint-support shortcut ----------

@st.composite
def rank_inputs(draw):
    """Sparse vectors keyed like ``TensorVec.terms``, shuffled, with index
    pairs for entries (see `rank_vectors`): a run with pairwise disjoint
    supports (often the whole input), possibly vectors that overlap it,
    empty dicts, and explicit zero entries, a Scalar (0, 0) or an int 0,
    in any of them."""
    keys = draw(st.lists(st.sampled_from(TENSOR_KEYS), min_size=1, max_size=10, unique=True))
    pool = list(keys)
    vectors = []
    while pool and draw(st.booleans()):
        size = draw(st.integers(1, min(3, len(pool))))
        vectors.append({k: draw(nonzero) for k in pool[:size]})
        pool = pool[size:]
    for _ in range(draw(st.integers(0, 3))):
        support = draw(st.sets(st.sampled_from(tuple(keys)), min_size=1, max_size=4))
        vectors.append({k: draw(nonzero) for k in support})
    vectors += [{} for _ in range(draw(st.integers(0, 2)))]
    for v in vectors:
        if draw(st.booleans()):
            v[draw(st.sampled_from(tuple(keys)))] = draw(st.sampled_from(((0, 0), 0)))
    return keys, draw(st.permutations(vectors))


def rank_vectors(vectors):
    """The vectors of `rank_inputs` with a Scalar for each index pair; an
    int 0 stays an int."""
    return [{k: scalar(t) if t != 0 else t for k, t in v.items()} for v in vectors]


def _disjoint(vectors):
    supports = [{k for k, c in v.items() if c} for v in vectors]
    return sum(map(len, supports)) == len(set().union(*supports))


@settings(max_examples=200, deadline=None)
@given(system=rank_inputs(), lazy=st.booleans())
def test_rank_matches_the_dense_oracle(system, lazy):
    """rank counts nonzero vectors with disjoint supports and eliminates
    otherwise; either way it is the dense rank, for a list or a generator,
    and it leaves its input alone."""
    keys, vectors = system
    vectors = rank_vectors(vectors)
    snapshot = [dict(v) for v in vectors]
    scalars = [{k: Scalar.of(c) for k, c in v.items()} for v in vectors]
    want = len(naive_rref(as_columns(keys, scalars))[1]) if vectors else 0
    got = rank(v for v in vectors) if lazy else rank(vectors)
    assert got == want
    if _disjoint(vectors):
        assert got == sum(1 for v in vectors if any(v.values()))
    assert vectors == snapshot


def test_rank_examples():
    one, two = Scalar(1), Scalar(2)
    assert rank([]) == 0 and rank(iter([])) == 0
    assert rank([{}, {"a": Scalar(0)}, {"b": 0}]) == 0
    assert rank([{"a": one}, {"b": two, "a": 0}, {"c": one, "d": one}]) == 3
    assert rank([{"a": one, "b": one}, {"b": two, "c": one}]) == 2  # overlap, independent
    assert rank([{"a": one, "b": one}, {"a": two, "b": two}]) == 1  # overlap, dependent
    assert rank({"k": one} for _ in range(3)) == 1


@pytest.mark.parametrize("vectors,want,eliminates", [
    # zero entries are no support: a zero at a key another vector holds
    # is no overlap, and a vector of zeros counts nothing
    ([{"a": ONE, "b": ZERO}, {"b": TWO}], 2, False),
    ([{"a": ONE, "b": 0}, {"c": TWO, "a": ZERO}, {"b": ONE}], 3, False),
    ([{"a": ZERO, "b": 0}, {}, {"a": ONE}], 1, False),
    ([{"a": ZERO}, {"a": 0}, {}], 0, False),
    # every coefficient nonzero: the vector is its own support
    ([{"a": ONE, "b": TWO}, {"c": ONE}], 2, False),
    # overlapping supports still eliminate, explicit zeros or not
    ([{"a": ONE, "b": ONE}, {"b": TWO, "c": ONE}], 2, True),
    ([{"a": ONE, "b": ONE}, {"a": TWO, "b": TWO, "c": ZERO}], 1, True),
    ([{"a": ONE}, {"b": ZERO}, {"a": TWO}], 1, True),
])
@pytest.mark.parametrize("lazy", [False, True])
def test_rank_shortcut_cases(monkeypatch, vectors, want, eliminates, lazy):
    """rank's disjoint-support pass on zero and nonzero entries: whether it
    builds an `Echelon`, for a list and for a generator read once (an
    overlap found late still eliminates every vector)."""
    import rinehart.linalg as linalg

    built = []

    class Watched(Echelon):
        __slots__ = ()

        def __init__(self, track=False):
            built.append(track)
            super().__init__(track)

    monkeypatch.setattr(linalg, "Echelon", Watched)
    got = rank(v for v in vectors) if lazy else rank(vectors)
    assert (got, bool(built)) == (want, eliminates)


# ---------- solve_columns' lookup over one-term vectors ----------

def echelon_solve_columns(vectors, targets):
    """solve_columns through `Echelon` alone: the reference of the lookup."""
    ech = Echelon(track=True)
    for v in vectors:
        ech.add(v)
    return [None if rest else x for rest, x in map(ech.reduce, targets)]


class Counted(Echelon):
    """An `Echelon` that counts its constructions in ``built``."""

    __slots__ = ()
    built = []

    def __init__(self, track=False):
        Counted.built.append(track)
        super().__init__(track)


@st.composite
def one_term_systems(draw):
    """Recipes of one-term vectors at distinct keys, in drawn (not sorted)
    key order, with nonzero coefficients, unit or not; and targets whose
    entries, zeros among them, sit at basis keys and at keys outside the
    basis, empty targets included.  ``spoil`` adds a vector at a repeated
    key or one of two terms, which the lookup must refuse."""
    keys = draw(st.lists(st.sampled_from(TENSOR_KEYS), min_size=2, max_size=10, unique=True))
    basis = [(k, draw(nonzero)) for k in keys[:draw(st.integers(0, len(keys)))]]
    key_set = st.sets(st.sampled_from(tuple(keys)))
    targets = [{k: draw(entries) for k in draw(key_set)}
               for _ in range(draw(st.integers(0, 5)))]
    kind = draw(st.sampled_from((None, "repeat", "two terms")))
    if kind is None:
        return basis, targets, None
    if kind == "repeat" and basis:
        extra = [draw(st.sampled_from(basis))[0]]
    else:  # two terms, also for a repeat with no key to repeat
        extra = draw(st.lists(st.sampled_from(tuple(keys)), min_size=2, max_size=2,
                              unique=True))
    at = draw(st.integers(0, len(basis)))
    return basis, targets, (at, {k: draw(nonzero) for k in extra})


@settings(max_examples=200, deadline=None)
@given(recipe=one_term_systems())
def test_solve_columns_lookup_matches_echelon(recipe):
    """Over one-term vectors at distinct keys, solve_columns builds no
    `Echelon`, and gives what `Echelon` gives: the same values, Scalars,
    in the same (ascending basis index) order, and None for a target with
    a nonzero entry outside the basis.  A vector at a repeated key or with
    two terms sends the whole solve to `Echelon`."""
    import rinehart.linalg as linalg

    basis, target_recipes, spoil = recipe
    vectors = [{k: scalar(t)} for k, t in basis]
    if spoil:
        at, extra = spoil
        vectors.insert(at, {k: scalar(t) for k, t in extra.items()})
    targets = [{k: scalar(t) for k, t in b.items()} for b in target_recipes]
    want = echelon_solve_columns(vectors, targets)
    Counted.built.clear()
    linalg.Echelon, echelon = Counted, linalg.Echelon
    try:
        got = solve_columns(vectors, targets)
    finally:
        linalg.Echelon = echelon
    assert Counted.built == ([True] if spoil else [])
    assert [x if x is None else list(x.items()) for x in got] == [
        x if x is None else list(x.items()) for x in want]
    assert all(type(c) is Scalar for x in got if x for c in x.values())


def test_solve_columns_lookup_examples():
    three = Scalar(3)
    vectors = [{"b": TWO}, {"a": ONE}, {"c": Scalar(0, 1)}]
    assert solve_columns(vectors, [
        {"a": three, "b": ONE},  # coordinates in basis order, not target order
        {"c": ONE, "b": ZERO},  # an explicit zero is no entry
        {},
        {"d": ONE, "a": ONE},  # a key outside the basis
        {"d": ZERO},
    ]) == [{0: Scalar(Fraction(1, 2)), 1: three}, {2: Scalar(0, -1)}, {}, None, {}]
    assert solve_columns([], [{}, {"a": ONE}]) == [{}, None]


@pytest.mark.parametrize("vectors", [
    [{"a": ONE}, {"a": TWO}],  # a repeated key
    [{"a": ONE}, {"b": ONE, "c": TWO}],  # two terms
    [{"a": ONE}, {}],  # the zero vector
    [{"a": ONE}, {"b": ZERO}],  # a zero coefficient
])
def test_solve_columns_falls_back_to_echelon(monkeypatch, vectors):
    """Only one-term vectors at distinct keys with nonzero coefficients
    take the lookup; any other basis is solved by `Echelon`."""
    import rinehart.linalg as linalg

    targets = [{"a": TWO}, {"b": ONE}, {"c": ONE}, {}]
    want = echelon_solve_columns(vectors, targets)
    Counted.built.clear()
    monkeypatch.setattr(linalg, "Echelon", Counted)
    assert solve_columns(vectors, targets) == want
    assert Counted.built == [True]
