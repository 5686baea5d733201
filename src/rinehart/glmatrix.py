"""Sparse exact matrices in the general linear superalgebra gl(m+1, n).

A `GlMatrix` is a `Sparse` map (α, β) → coefficient of E_{α,β} over
`Signature(m, n)`, with α, β in `Signature.directions` and the parity of
E_{α,β} read from `Signature.gl_parity`.
"""

from __future__ import annotations

from .scalars import Scalar
from .superpoly import Signature, Sparse, _check_same_sig


class GlMatrix(Sparse):
    """Element of gl(m+1, n), keyed by the index pair (α, β) of E_{α,β}."""

    __slots__ = ()

    def _key_parity(self, key) -> int:
        return self.sig.gl_parity(*key)

    @staticmethod
    def _entry(sig: Signature, key, c):
        a, b = key
        dirs = sig.directions()
        if a not in dirs or b not in dirs:
            raise ValueError(f"E_{a}_{b} outside gl({sig.m + 1}, {sig.n})")
        return key, Scalar.of(c)

    @staticmethod
    def elementary(sig: Signature, a: int, b: int) -> "GlMatrix":
        return GlMatrix._one_term(sig, (a, b), 1)

    def __repr__(self):
        from .parser import format_gl_matrix

        return f"<GlMatrix {format_gl_matrix(self)}>"


def gl_bracket(x: GlMatrix, y: GlMatrix) -> GlMatrix:
    """Σ x_ab y_cd [E_ab, E_cd] with
    [E_ab, E_cd] = δ_bc E_ad - (-1)^{|ab||cd|} δ_da E_cb."""
    _check_same_sig(x, y)
    par = x.sig.gl_parity
    out = x._trusted(x.sig, {})
    for (a, b), cx in x.terms.items():
        pab = par(a, b)
        for (c, d), cy in y.terms.items():
            if b == c:
                out._iadd_term((a, d), cx * cy)
            if d == a:
                cc = cx * cy
                out._iadd_term((c, b), cc if pab and par(c, d) else -cc)
    return out
