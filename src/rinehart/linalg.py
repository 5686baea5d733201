"""Exact dense linear algebra over Gaussian rationals.

Matrices are plain lists of rows of Scalars.  Includes the eigenvalue
machinery used for weight decompositions: characteristic polynomials via
Faddeev-LeVerrier and Gaussian-rational root extraction through divisor
enumeration in Z[i].
"""

from __future__ import annotations

import math

from .scalars import Scalar


def identity(d: int) -> list:
    return [[Scalar(1 if i == j else 0) for j in range(d)] for i in range(d)]


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


def trace(a) -> Scalar:
    return sum((a[i][i] for i in range(len(a))), Scalar(0))


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


def charpoly(a) -> list[Scalar]:
    """Monic characteristic polynomial, ascending coefficients."""
    d = len(a)
    coeffs = [Scalar(1)]  # leading term, filled highest-first
    m = identity(d)
    for k in range(1, d + 1):
        m = matmul(a, m)
        ck = -(trace(m) / k)
        coeffs.append(ck)
        for i in range(d):
            m[i][i] = m[i][i] + ck
    coeffs.reverse()
    return coeffs


# ---------- Gaussian-integer divisor enumeration ----------

def _gmul(a, b):
    return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])


def _gdiv_exact(a, b):
    """a / b in Z[i] when exact, else None."""
    n = b[0] * b[0] + b[1] * b[1]
    re = a[0] * b[0] + a[1] * b[1]
    im = a[1] * b[0] - a[0] * b[1]
    if re % n or im % n:
        return None
    return (re // n, im // n)


def _factor_int(n: int) -> dict[int, int]:
    out: dict[int, int] = {}
    p = 2
    while p * p <= n:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
        p += 1 if p == 2 else 2
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def _gaussian_prime_over(p: int):
    """Gaussian primes above the rational prime p."""
    if p == 2:
        return [(1, 1)]
    if p % 4 == 3:
        return [(p, 0)]
    for x in range(1, p):
        y2 = p - x * x
        if y2 < x * x:
            break
        y = math.isqrt(y2)
        if y * y == y2:
            return [(x, y), (x, -y)]
    raise ArithmeticError(f"no Gaussian prime found over {p}")


_UNITS = ((1, 0), (-1, 0), (0, 1), (0, -1))


def gaussian_divisors(z) -> list:
    """All divisors of z ∈ Z[i] (z ≠ 0), including unit multiples."""
    if z == (0, 0):
        raise ValueError("zero has no divisor set")
    norm = z[0] * z[0] + z[1] * z[1]
    factors = []
    rest = z
    for p in _factor_int(norm):
        for g in _gaussian_prime_over(p):
            e = 0
            while True:
                q = _gdiv_exact(rest, g)
                if q is None:
                    break
                rest = q
                e += 1
            if e:
                factors.append((g, e))
    divisors = [(1, 0)]
    for g, e in factors:
        grown = []
        power = (1, 0)
        for _ in range(e + 1):
            grown.extend(_gmul(d, power) for d in divisors)
            power = _gmul(power, g)
        divisors = grown
    out = set()
    for d in divisors:
        for u in _UNITS:
            out.add(_gmul(d, u))
    return sorted(out)


def _clear_denominators(coeffs: list[Scalar]) -> list[tuple[int, int]]:
    lcm = 1
    for c in coeffs:
        for q in (c.re.denominator, c.im.denominator):
            g = _gcd(lcm, q)
            lcm = lcm // g * q
    return [(int(c.re * lcm), int(c.im * lcm)) for c in coeffs]


def _gcd(a, b):
    while b:
        a, b = b, a % b
    return a


def _poly_eval(coeffs: list[Scalar], x: Scalar) -> Scalar:
    out = Scalar(0)
    for c in reversed(coeffs):
        out = out * x + c
    return out


def rational_roots(coeffs: list[Scalar]) -> list[Scalar]:
    """Distinct Gaussian-rational roots of a polynomial, exact."""
    while coeffs and coeffs[-1].is_zero():
        coeffs = coeffs[:-1]
    if len(coeffs) <= 1:
        return []
    roots = []
    k = 0
    while coeffs[k].is_zero():
        k += 1
    if k:
        roots.append(Scalar(0))
        coeffs = coeffs[k:]
    zc = _clear_denominators(coeffs)
    seen = set()
    for u in gaussian_divisors(zc[0]):
        for v in gaussian_divisors(zc[-1]):
            cand = Scalar(*u) / Scalar(*v)
            key = (cand.re, cand.im)
            if key in seen:
                continue
            seen.add(key)
            if _poly_eval(coeffs, cand).is_zero():
                roots.append(cand)
    return roots


def rational_eigenvalues(a) -> list[Scalar]:
    """Gaussian-rational eigenvalues of an exact matrix."""
    if not a:
        return []
    return rational_roots(charpoly(a))
