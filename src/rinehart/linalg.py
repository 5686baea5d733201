"""Exact sparse linear algebra over Gaussian rationals.

A vector is a dict ``{key: Scalar}`` of its nonzero entries, with any
hashable keys, e.g. those of ``TensorVec.terms``.  `Echelon` is the one
elimination kernel; `nullspace` and the dense adapter `rref` run through
it, `rank` does unless the supports are disjoint, and `solve_columns`
does unless every basis vector is one term at a key of its own, which it
solves by lookup.  Dense matrices are lists of rows.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush

from .scalars import ONE, ZERO, Scalar


def zeros(rows: int, cols: int) -> list:
    return [[ZERO] * cols for _ in range(rows)]


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


def _axpy(acc: dict, c: Scalar, vec: dict) -> None:
    """acc -= c·vec in place, dropping entries that cancel."""
    for k, v in vec.items():
        new = acc[k] - c * v if k in acc else -(c * v)
        if new:
            acc[k] = new
        else:
            del acc[k]


class Echelon:
    """Pivot rows spanning the vectors added so far.

    ``rows`` maps each pivot key to (position, row, coefficients).  A row
    is 1 at its pivot key, which it leaves out, and 0 at the pivot keys of
    lower positions, so subtracting rows by position clears every pivot
    key and a vector meets only the rows its keys lead to.  With ``track``
    the coefficients write each row over the added vectors, by index.
    """

    __slots__ = ("rows", "track", "added")

    def __init__(self, track: bool = False):
        self.rows: dict = {}
        self.track = track
        self.added = 0

    def reduce(self, vec: dict):
        """(rest, x) with vec = rest + Σ x[i]·(i-th added vector) and no
        pivot key in ``rest``; ``x`` is None unless tracking."""
        rest = {k: c for k, c in vec.items() if c}
        x = {} if self.track else None
        rows = self.rows
        heap = [(rows[k][0], k) for k in rest if k in rows]
        heapify(heap)
        while heap:
            key = heappop(heap)[1]
            c = rest.pop(key, None)
            if c is None:
                continue  # cancelled, or a repeated entry
            _, row, coeffs = rows[key]
            for k in row:
                if k not in rest and k in rows:
                    heappush(heap, (rows[k][0], k))
            _axpy(rest, c, row)
            if x is not None:
                _axpy(x, -c, coeffs)
        return rest, x

    def add(self, vec: dict):
        """``reduce(vec)``, keeping ``rest`` as a new pivot row; ``rest`` is
        empty exactly when vec lies in the span of the earlier vectors."""
        rest, x = self.reduce(vec)
        if rest:
            key = next(iter(rest))
            inv = ONE / rest[key]
            row = {k: c * inv for k, c in rest.items() if k != key}
            coeffs = None if x is None else {
                **{i: -(c * inv) for i, c in x.items()}, self.added: inv}
            self.rows[key] = (len(self.rows), row, coeffs)
        self.added += 1
        return rest, x


def rank(vectors) -> int:
    """Dimension of the span of the sparse vectors.  Nonzero vectors whose
    supports (their nonzero entries) are pairwise disjoint are independent,
    so their count is the rank; any overlap sends them all to `Echelon`.
    A vector whose coefficients are all nonzero, as every `Sparse` term map
    is, is its own support, with no filtering entry by entry."""
    vectors = list(vectors)
    seen = set()
    count = 0
    for v in vectors:
        support = v if all(v.values()) else [k for k, c in v.items() if c]
        before = len(seen)
        seen.update(support)
        if len(seen) != before + len(support):
            break
        count += bool(support)
    else:
        return count
    ech = Echelon()
    return sum(1 for v in vectors if ech.add(v)[0])


def nullspace(vectors) -> list[dict]:
    """Basis of the relations Σ x_j·vectors[j] = 0, as sparse ``{j: x_j}``:
    one per vector in the span of those before it, writing it (with
    coefficient 1) over the earlier independent ones."""
    ech = Echelon(track=True)
    out = []
    for j, v in enumerate(vectors):
        rest, x = ech.add(v)
        if not rest:
            out.append({**{i: -c for i, c in x.items()}, j: ONE})
    return out


def solve_columns(vectors, targets) -> list:
    """For each target b, sparse ``{j: x_j}`` with Σ x_j·vectors[j] = b, or
    None where b is outside the span.  Only vectors independent of those
    before them get a coordinate, as in a reduced echelon form.

    When every vector has one nonzero term and no two share a key, the
    solve is a lookup: x_j = b[key_j] / c_j, None for a nonzero entry of b
    at a key outside the basis, and the coordinates in ascending j, as
    `Echelon` lists them.  Any other basis goes through `Echelon`."""
    vectors = list(vectors)
    lookup = {}
    for j, v in enumerate(vectors):
        if len(v) != 1:
            break
        (key, c), = v.items()
        if not c or key in lookup:
            break
        lookup[key] = (j, c)
    else:
        return [_lookup_solve(lookup, b) for b in targets]
    ech = Echelon(track=True)
    for v in vectors:
        ech.add(v)
    return [None if rest else x for rest, x in map(ech.reduce, targets)]


def _lookup_solve(lookup: dict, b: dict):
    """`solve_columns` of b over one-term vectors {key: (j, c_j)}."""
    x = []
    for key, c in b.items():
        if c:
            hit = lookup.get(key)
            if hit is None:
                return None
            j, cj = hit
            x.append((j, c if cj == ONE else c / cj))
    x.sort()
    return dict(x)


def solve(vectors, b) -> dict | None:
    """One solution of Σ x_j·vectors[j] = b, or None when inconsistent."""
    return solve_columns(vectors, [b])[0]


def rref(a) -> tuple[list, list[int]]:
    """Reduced row echelon form of the dense matrix ``a`` and its pivot
    columns: those independent of the columns before them.  Row r of a
    later column holds its coordinate on the r-th pivot column."""
    cols = len(a[0]) if a else 0
    mat = zeros(len(a), cols)
    pivots = []
    ech = Echelon(track=True)
    for j in range(cols):
        rest, x = ech.add({i: row[j] for i, row in enumerate(a) if row[j]})
        if rest:
            mat[len(pivots)][j] = ONE
            pivots.append(j)
        else:
            for r, p in enumerate(pivots):
                mat[r][j] = x.get(p, ZERO)
    return mat, pivots
