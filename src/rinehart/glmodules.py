"""Finite-dimensional weight modules over gl(m+1, n).

A module is given by one exact action matrix per elementary matrix,
with a parity vector over the basis.  `rep_check` validates every
supercommutator relation and the parity homogeneity of each action.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .linalg import zeros
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

    @staticmethod
    def zero(m: int, n: int) -> "MuVector":
        return MuVector(m, n, (0,) * (m + n + 1))

    def __getitem__(self, alpha: int) -> Scalar:
        return self.values[alpha]

    def __eq__(self, other):
        if not isinstance(other, MuVector):
            return NotImplemented
        return (self.m, self.n, self.values) == (other.m, other.n, other.values)

    def __repr__(self):
        return f"MuVector({self.m}, {self.n}, {[str(v) for v in self.values]})"


class GlModule:
    """gl(m+1, n)-module by explicit action matrices; `sig` is
    Signature(m, n), the home of the gl index rule."""

    __slots__ = ("m", "n", "sig", "dim", "parities", "act", "_columns")

    def __init__(self, m: int, n: int, dim: int, parities, act):
        self.m = m
        self.n = n
        self.sig = Signature(m, n)
        self.dim = dim
        self.parities = tuple(parities)
        if len(self.parities) != dim or any(p not in (0, 1) for p in self.parities):
            raise ValueError("parity vector must list 0/1 per basis vector")
        self.act = {}
        for a in self.sig.directions():
            for b in self.sig.directions():
                mat = act.get((a, b))
                if mat is None:
                    raise ValueError(f"missing action matrix E_{a}_{b}")
                mat = [[Scalar.of(c) for c in row] for row in mat]
                if len(mat) != dim or any(len(r) != dim for r in mat):
                    raise ValueError(f"action matrix E_{a}_{b} has the wrong size")
                self.act[(a, b)] = mat
        self._columns = {}

    def column(self, a: int, b: int, idx: int):
        """E_{a,b} applied to the idx-th basis vector, as (row, coeff) pairs.
        Each E_{a,b}'s columns are built on first use and then stored:
        callers must not mutate the list."""
        cols = self._columns.get((a, b))
        if cols is None:
            mat = self.act[(a, b)]
            cols = self._columns[(a, b)] = [
                [(u, mat[u][i]) for u in range(self.dim) if mat[u][i]]
                for i in range(self.dim)
            ]
        return cols[idx]


def natural_module(m: int, n: int) -> GlModule:
    """The defining module: E_{α,β} e_γ = δ_{β,γ} e_α."""
    sig = Signature(m, n)
    dim = len(sig.directions())
    act = {}
    for a in sig.directions():
        for b in sig.directions():
            mat = zeros(dim, dim)
            mat[a][b] = Scalar(1)
            act[(a, b)] = mat
    parities = tuple(map(sig.dir_parity, sig.directions()))
    return GlModule(m, n, dim, parities, act)


def zero_action_module(m: int, n: int, dim: int, parities=None) -> GlModule:
    """dim-dimensional module on which every E_{α,β} acts by zero."""
    dirs = Signature(m, n).directions()
    act = {(a, b): zeros(dim, dim) for a in dirs for b in dirs}
    return GlModule(m, n, dim, parities or (0,) * dim, act)


@dataclass
class RepReport:
    """Outcome of the representation-axiom check."""

    violations: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations


def _accumulate(acc: dict, x: dict, y: dict, sign: int) -> None:
    """acc += sign·x·y for sparse matrices {row: {column: entry}}."""
    for i, xrow in x.items():
        for k, c in xrow.items():
            for j, e in y.get(k, {}).items():
                old = acc.get((i, j), ZERO)
                acc[(i, j)] = old + c * e if sign > 0 else old - c * e


def rep_check(mod: GlModule) -> RepReport:
    """Verify parity homogeneity and every supercommutator relation.

    Each relation [E_ab, E_cd] = δ_bc E_ad - (-1)^{|ab||cd|} δ_da E_cb is
    checked on one sparse view of each action, as a difference that must
    vanish.
    """
    report = RepReport()
    par = mod.parities
    gl_parity = mod.sig.gl_parity
    acts = {
        ab: {u: {v: c for v, c in enumerate(row) if c} for u, row in enumerate(mat) if any(row)}
        for ab, mat in mod.act.items()
    }
    for (a, b), rows in acts.items():
        p = gl_parity(a, b)
        bad = next(((u, v) for u, row in rows.items() for v in row
                    if (par[u] + par[v]) % 2 != p), None)
        if bad is not None:
            report.violations.append(
                ("parity", (a, b), f"entry ({bad[0]},{bad[1]}) breaks parity")
            )
    one = {u: {u: ONE} for u in range(mod.dim)}
    pairs = list(acts)
    for (a, b) in pairs:
        mab = acts[(a, b)]
        pab = gl_parity(a, b)
        for (c, d) in pairs:
            mcd = acts[(c, d)]
            sign = -1 if pab and gl_parity(c, d) else 1
            diff = {}
            _accumulate(diff, mab, mcd, 1)
            _accumulate(diff, mcd, mab, -sign)
            if b == c:
                _accumulate(diff, acts[(a, d)], one, -1)
            if d == a:
                _accumulate(diff, acts[(c, b)], one, sign)
            if any(diff.values()):
                report.violations.append(
                    ("commutator", ((a, b), (c, d)), "supercommutator relation fails")
                )
    return report
