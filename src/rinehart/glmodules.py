"""Finite-dimensional weight modules over gl(m+1, n).

A module stores each elementary matrix's action once, as sparse columns
over a basis with a parity vector: the form the tensor-module kernels
read.  Dense rows exist only in the config file format.  `rep_check`
validates every supercommutator relation, skipping the pairs that vanish
by support, and the parity homogeneity of each action.
"""

from __future__ import annotations

from .scalars import ONE, ZERO, Scalar
from .superpoly import Signature


class MuVector:
    """Shift parameters μ(0..m+n); the odd slots must vanish."""

    __slots__ = ("m", "n", "values")

    def __init__(self, m: int, n: int, values):
        values = tuple(Scalar.of(v) for v in values)
        sig = Signature(m, n)
        if len(values) != len(sig.directions()):
            raise ValueError("mu vector needs m+n+1 entries")
        for alpha in sig.directions():
            if sig.dir_parity(alpha) and values[alpha]:
                raise ValueError(f"mu({alpha}) must be 0 on the odd directions")
        self.m = m
        self.n = n
        self.values = values

    def __getitem__(self, alpha: int) -> Scalar:
        return self.values[alpha]

    def __eq__(self, other):
        if not isinstance(other, MuVector):
            return NotImplemented
        return (self.m, self.n, self.values) == (other.m, other.n, other.values)

    def __repr__(self):
        return f"MuVector({self.m}, {self.n}, {[str(v) for v in self.values]})"


class GlModule:
    """gl(m+1, n)-module by explicit actions; `sig` is Signature(m, n), the
    home of the gl index rule.

    ``columns[(a, b)][i]`` is E_{a,b} applied to the i-th basis vector: its
    nonzero entries as (row, coeff) pairs, rows ascending.  Callers must
    not mutate the lists.
    """

    __slots__ = ("m", "n", "sig", "dim", "parities", "columns")

    def __init__(self, m: int, n: int, dim: int, parities, columns):
        self.m = m
        self.n = n
        self.sig = Signature(m, n)
        self.dim = dim
        self.parities = tuple(parities)
        if len(self.parities) != dim or any(p not in (0, 1) for p in self.parities):
            raise ValueError("parity vector must list 0/1 per basis vector")
        self.columns = {}
        for a in self.sig.directions():
            for b in self.sig.directions():
                cols = columns.get((a, b))
                if cols is None:
                    raise ValueError(f"missing action E_{a}_{b}")
                if len(cols) != dim:
                    raise ValueError(f"action E_{a}_{b} needs {dim} columns")
                for col in cols:
                    rows = [u for u, c in col if c]
                    if rows != sorted(set(rows)) or len(rows) < len(col) or any(
                            not 0 <= u < dim for u in rows):
                        raise ValueError(f"action E_{a}_{b} needs nonzero entries "
                                         f"at ascending rows in 0..{dim - 1}")
                self.columns[(a, b)] = cols

    def column(self, a: int, b: int, idx: int):
        """E_{a,b} applied to the idx-th basis vector, as (row, coeff) pairs."""
        return self.columns[(a, b)][idx]


def natural_module(m: int, n: int) -> GlModule:
    """The defining module: E_{α,β} e_γ = δ_{β,γ} e_α."""
    sig = Signature(m, n)
    dirs = sig.directions()
    columns = {(a, b): [[(a, ONE)] if g == b else [] for g in dirs]
               for a in dirs for b in dirs}
    return GlModule(m, n, len(dirs), map(sig.dir_parity, dirs), columns)


def _entries(cols: list) -> list:
    """The nonzero entries of an action as (row, column, coeff) triples."""
    return [(k, j, e) for j, col in enumerate(cols) for k, e in col]


def _accumulate(acc: dict, x: list, y: list, sign: int) -> None:
    """acc += sign·x·y, x given by its sparse columns and y by its entries."""
    for k, j, e in y:
        for i, c in x[k]:
            old = acc.get((i, j), ZERO)
            acc[(i, j)] = old + c * e if sign > 0 else old - c * e


def rep_check(mod: GlModule) -> list:
    """The violations of parity homogeneity and of the supercommutator
    relations, as (kind, where, text) triples; [] for a representation.

    Each relation [E_ab, E_cd] = δ_bc E_ad - (-1)^{|ab||cd|} δ_da E_cb is
    checked on the stored columns, as a difference R(ab, cd) that must
    vanish.  With s = (-1)^{|ab||cd|} and s² = 1,

        R(cd, ab) = M_cd M_ab - s M_ab M_cd - δ_da M_cb + s δ_bc M_ad
                  = -s R(ab, cd),

    so each unordered pair {ab, cd} is evaluated once and both ordered
    pairs fail together; the violations list them in row-major order of
    (ab, cd), after the parity violations.  A parity violation names the
    action's first bad entry in row-major order.

    A pair whose R vanishes by support alone is skipped: M_ab M_cd is 0
    when no column of M_ab is a row of M_cd (bitmasks of each action's
    rows and columns), and a δ term is absent when its δ is 0 or its
    action has no entry.  With both products and both δ terms gone, R = 0
    exactly.
    """
    violations = []
    par = mod.parities
    gl_parity = mod.sig.gl_parity
    acts = mod.columns
    for (a, b), cols in acts.items():
        p = gl_parity(a, b)
        bad = min(((u, v) for v, col in enumerate(cols) for u, _ in col
                   if (par[u] + par[v]) % 2 != p), default=None)
        if bad is not None:
            violations.append(("parity", (a, b), f"entry ({bad[0]},{bad[1]}) breaks parity"))
    one = [[(u, ONE)] for u in range(mod.dim)]
    entries = {ab: _entries(cols) for ab, cols in acts.items()}
    row_mask, col_mask = {}, {}
    for ab, ent in entries.items():
        rm = cm = 0
        for k, j, _ in ent:
            rm |= 1 << k
            cm |= 1 << j
        row_mask[ab], col_mask[ab] = rm, cm
    pairs = list(acts)
    failing = set()
    for i, (a, b) in enumerate(pairs):
        mab, eab = acts[(a, b)], entries[(a, b)]
        rab, cab = row_mask[(a, b)], col_mask[(a, b)]
        pab = gl_parity(a, b)
        for j in range(i, len(pairs)):
            c, d = pairs[j]
            if not (cab & row_mask[(c, d)] or col_mask[(c, d)] & rab
                    or b == c and entries[(a, d)] or d == a and entries[(c, b)]):
                continue  # R(ab, cd) = 0 by support
            sign = -1 if pab and gl_parity(c, d) else 1
            diff = {}
            _accumulate(diff, mab, entries[(c, d)], 1)
            _accumulate(diff, acts[(c, d)], eab, -sign)
            if b == c:
                _accumulate(diff, one, entries[(a, d)], -1)
            if d == a:
                _accumulate(diff, one, entries[(c, b)], sign)
            if any(diff.values()):
                failing.update(((i, j), (j, i)))
    for i, j in sorted(failing):
        violations.append(
            ("commutator", (pairs[i], pairs[j]), "supercommutator relation fails"))
    return violations
