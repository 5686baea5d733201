"""Exact dense linear algebra over Gaussian rationals.

Matrices are plain lists of rows of Scalars.
"""

from __future__ import annotations

from .scalars import Scalar


def zeros(rows: int, cols: int) -> list:
    return [[Scalar(0)] * cols for _ in range(rows)]


def mat_copy(a) -> list:
    return [list(row) for row in a]


def matmul(a, b) -> list:
    rows, inner, cols = len(a), len(b), len(b[0]) if b else 0
    out = zeros(rows, cols)
    for i in range(rows):
        arow = a[i]
        orow = out[i]
        for k in range(inner):
            c = arow[k]
            if not c:
                continue
            brow = b[k]
            for j in range(cols):
                if brow[j]:
                    orow[j] = orow[j] + c * brow[j]
    return out


def matvec(a, v) -> list:
    return [sum((c * x for c, x in zip(row, v) if c and x), Scalar(0)) for row in a]


def rref(a) -> tuple[list, list[int]]:
    """Reduced row echelon form and pivot column indices.

    A pivot row is zero left of its pivot, so each elimination step
    touches the other rows only at the pivot row's nonzero columns.
    """
    mat = mat_copy(a)
    rows = len(mat)
    cols = len(mat[0]) if rows else 0
    pivots = []
    r = 0
    for c in range(cols):
        pivot = next((i for i in range(r, rows) if mat[i][c]), None)
        if pivot is None:
            continue
        mat[r], mat[pivot] = mat[pivot], mat[r]
        prow = mat[r]
        support = [j for j in range(c, cols) if prow[j]]
        inv = Scalar(1) / prow[c]
        for j in support:
            prow[j] = prow[j] * inv
        for i in range(rows):
            row = mat[i]
            f = row[c]
            if i != r and f:
                for j in support:
                    row[j] = row[j] - f * prow[j]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return mat, pivots


def rank(a) -> int:
    if not a or not a[0]:
        return 0
    return len(rref(a)[1])


def nullspace(a, cols: int | None = None) -> list[list]:
    """Basis of the right kernel, as coordinate vectors."""
    if not a:
        return [[Scalar(1 if i == j else 0) for j in range(cols or 0)]
                for i in range(cols or 0)]
    cols = cols if cols is not None else len(a[0])
    mat, pivots = rref(a)
    pivot_set = set(pivots)
    free = [c for c in range(cols) if c not in pivot_set]
    basis = []
    for fc in free:
        vec = [Scalar(0)] * cols
        vec[fc] = Scalar(1)
        for r, pc in enumerate(pivots):
            vec[pc] = -mat[r][fc]
        basis.append(vec)
    return basis


def solve_columns(a, bs) -> list:
    """One solution of A x = b for each b in ``bs`` (None where inconsistent).

    ``[A | b_1 ... b_k]`` is reduced once.  Column k is inconsistent iff a
    row past the last pivot of A is nonzero at ``cols + k``; a pivot test
    would miss a repeated inconsistent column, which gets no pivot.
    """
    rows = len(a)
    cols = len(a[0]) if rows else 0
    aug = [list(a[i]) + [b[i] for b in bs] for i in range(rows)]
    mat, pivots = rref(aug)
    rank_a = sum(1 for pc in pivots if pc < cols)
    out = []
    for k in range(cols, cols + len(bs)):
        if any(mat[r][k] for r in range(rank_a, rows)):
            out.append(None)
            continue
        x = [Scalar(0)] * cols
        for r in range(rank_a):
            x[pivots[r]] = mat[r][k]
        out.append(x)
    return out


def solve(a, b) -> list | None:
    """One solution of A x = b, or None when inconsistent."""
    return solve_columns(a, [b])[0]
