"""Dense exact matrices in the general linear superalgebra gl(m+1, n).

Index α runs over 0..m+n: indices up to m are even, the rest odd; the
parity of an elementary matrix E_{α,β} is parity(α) + parity(β).
"""

from __future__ import annotations

from fractions import Fraction

from .linalg import matmul
from .scalars import Scalar


class GlMatrix:
    """Matrix of size (m+1+n) with block parity bookkeeping."""

    __slots__ = ("m", "n", "rows")

    def __init__(self, m: int, n: int, rows=None):
        self.m = m
        self.n = n
        d = self.dim
        if rows is None:
            rows = [[Scalar(0)] * d for _ in range(d)]
        else:
            rows = [[Scalar.of(c) for c in row] for row in rows]
            if len(rows) != d or any(len(r) != d for r in rows):
                raise ValueError("matrix size does not match gl(m+1, n)")
        self.rows = rows

    @property
    def dim(self) -> int:
        return self.m + 1 + self.n

    def index_parity(self, alpha: int) -> int:
        return 0 if alpha <= self.m else 1

    @staticmethod
    def zero(m: int, n: int) -> "GlMatrix":
        return GlMatrix(m, n)

    @staticmethod
    def elementary(m: int, n: int, a: int, b: int, coeff=1) -> "GlMatrix":
        out = GlMatrix(m, n)
        out.rows[a][b] = Scalar.of(coeff)
        return out

    def is_zero(self) -> bool:
        return all(not c for row in self.rows for c in row)

    def entry_parity(self, a: int, b: int) -> int:
        return (self.index_parity(a) + self.index_parity(b)) & 1

    def even_odd(self) -> tuple["GlMatrix", "GlMatrix"]:
        """The even and the odd part, split in one pass."""
        m = self.m
        ev, od = GlMatrix(m, self.n), GlMatrix(m, self.n)
        for a, row in enumerate(self.rows):
            for b, c in enumerate(row):
                if c:
                    (od if (a > m) != (b > m) else ev).rows[a][b] = c
        return ev, od

    def parity(self):
        """0 or 1 for parity-homogeneous matrices, None otherwise."""
        ev, od = self.even_odd()
        has_even = not ev.is_zero()
        has_odd = not od.is_zero()
        if has_even and has_odd:
            return None
        if has_odd:
            return 1
        if has_even:
            return 0
        return None

    def __add__(self, other):
        if not isinstance(other, GlMatrix):
            return NotImplemented
        self._check(other)
        return GlMatrix(
            self.m,
            self.n,
            [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(self.rows, other.rows)],
        )

    def __sub__(self, other):
        if not isinstance(other, GlMatrix):
            return NotImplemented
        self._check(other)
        return GlMatrix(
            self.m,
            self.n,
            [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(self.rows, other.rows)],
        )

    def __neg__(self):
        return GlMatrix(self.m, self.n, [[-x for x in row] for row in self.rows])

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, Scalar)):
            s = Scalar.of(other)
            return GlMatrix(self.m, self.n, [[x * s for x in row] for row in self.rows])
        return NotImplemented

    __rmul__ = __mul__

    def __eq__(self, other):
        if not isinstance(other, GlMatrix):
            return NotImplemented
        return self.m == other.m and self.n == other.n and self.rows == other.rows

    def _check(self, other: "GlMatrix"):
        if self.m != other.m or self.n != other.n:
            raise ValueError("gl dimension mismatch")

    def __repr__(self):
        from .parser import format_gl_matrix

        return f"<GlMatrix {format_gl_matrix(self)}>"


def _nonzero_parts(g: GlMatrix) -> list:
    """(part, parity) for the nonzero homogeneous parts of g."""
    return [(p, par) for par, p in enumerate(g.even_odd()) if not p.is_zero()]


def gl_bracket(x: GlMatrix, y: GlMatrix) -> GlMatrix:
    """XY - (-1)^{|X||Y|} YX on homogeneous parts, extended bilinearly."""
    x._check(y)
    m, n = x.m, x.n
    xparts = _nonzero_parts(x)
    yparts = _nonzero_parts(y) if xparts else []
    out = GlMatrix.zero(m, n)
    for xp, px in xparts:
        for yp, py in yparts:
            both_odd = px and py
            prod = matmul(xp.rows, yp.rows)
            back = matmul(yp.rows, xp.rows)
            for orow, prow, brow in zip(out.rows, prod, back):
                for j, (p, b) in enumerate(zip(prow, brow)):
                    if p or b:
                        orow[j] = orow[j] + (p + b if both_odd else p - b)
    return out
