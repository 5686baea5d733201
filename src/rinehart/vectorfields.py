"""Derivation superalgebras of Laurent-Grassmann algebras.

A vector field is a sparse map (exponent tuple, Grassmann mask, tag) →
scalar, where the tag is a basis derivation: ('d', i) for t_i d/dt_i,
('q', k) for ∂/∂ζ_k.  These free generators of Der(A) are the gl(m+1, n)
directions of `Signature`, and they pairwise supercommute as operators,
which the bracket exploits.  Constructors also accept the plain tag
('dt', i) for d/dt_i and store it as t_i^{-1}·(t_i d/dt_i) (`euler_key`);
`plain_coefficient_polys` reads a field back in the plain basis.

Built on top: algebra ⊕ derivations, `QPElement`, keyed like a field
with the algebra summand under the t_0-Euler tag ('d', 0), which acts on
t_0-free monomials as 0; so its bracket is `vf_bracket`, and its product
is one loop over term pairs.  The t_0-loop extension's bracket mixes the
two summands through the t_0-exponents, with that same pair loop.
"""

from __future__ import annotations

from .scalars import Scalar
from .superpoly import (
    Signature,
    Sparse,
    SuperPoly,
    WeightVector,
    _check_same_sig,
    delta,
    eps,
    mask_size,
    mono_apply,
    mono_mul,
    weight_of_poly,
)


def tag_parity(tag) -> int:
    return 1 if tag[0] == "q" else 0


def check_tag(sig: Signature, tag):
    kind, idx = tag
    if kind in ("d", "dt"):
        sig.tpos(idx)
    elif kind == "q":
        sig.check_zeta(idx)
    else:
        raise ValueError(f"unknown derivation tag {tag!r}")
    return tag


def euler_key(sig: Signature, exps, mask: int, tag):
    """The stored key of t^exps ζ_mask·tag: a plain d/dt_i is
    t_i^{-1}·(t_i d/dt_i); Euler and odd tags are kept as they are."""
    if tag[0] == "dt":
        p = sig.tpos(tag[1])
        return exps[:p] + (exps[p] - 1,) + exps[p + 1:], mask, ("d", tag[1])
    return exps, mask, tag


class VectorField(Sparse):
    """A-linear combination of basis derivations, keyed by (exps, mask, tag)
    with Euler and odd tags only: plain keys are rewritten by `euler_key`."""

    __slots__ = ()

    def __init__(self, sig: Signature, terms=None):
        self.sig = sig
        self.terms = {}
        for (exps, mask, tag), c in (terms or {}).items():
            self._iadd_term(euler_key(sig, exps, mask, tag), Scalar.of(c))

    @staticmethod
    def _key_parity(key) -> int:
        return (mask_size(key[1]) + tag_parity(key[2])) & 1

    # -- constructors --

    @staticmethod
    def basis(sig: Signature, tag, coeff=1) -> "VectorField":
        check_tag(sig, tag)
        return VectorField(sig, {(sig.zero_exps(), 0, tag): Scalar.of(coeff)})

    @staticmethod
    def term(sig: Signature, exps, mask: int, tag, coeff=1) -> "VectorField":
        check_tag(sig, tag)
        exps = tuple(exps)
        if len(exps) != sig.nvars:
            raise ValueError("exponent tuple has wrong length")
        return VectorField(sig, {(exps, mask, tag): Scalar.of(coeff)})

    @staticmethod
    def from_poly_tag(coeff_poly: SuperPoly, tag) -> "VectorField":
        sig = coeff_poly.sig
        check_tag(sig, tag)
        return VectorField(
            sig, {(exps, mask, tag): c for (exps, mask), c in coeff_poly.terms.items()}
        )

    # -- queries --

    def coefficient_polys(self) -> dict:
        """Map tag → coefficient polynomial, using the stored tags."""
        out: dict = {}
        for (exps, mask, tag), c in self.terms.items():
            poly = out.setdefault(tag, SuperPoly.zero(self.sig))
            poly._iadd_term((exps, mask), c)
        return {tag: p for tag, p in out.items() if p}

    def plain_coefficient_polys(self) -> dict:
        """Map ('dt', i)/('q', k) → coefficient polynomial in the plain basis:
        t_i d/dt_i = t_i·(d/dt_i), so an Euler coefficient gains a t_i."""
        out = {}
        for (kind, i), poly in self.coefficient_polys().items():
            if kind == "d":
                out[("dt", i)] = poly * SuperPoly.t_var(self.sig, i)
            else:
                out[(kind, i)] = poly
        return out

    def __hash__(self):
        return hash((self.sig, frozenset(self.terms.items())))

    def __repr__(self):
        from .parser import format_element

        return f"<VectorField {format_element(self)}>"

    # -- action on the algebra --

    def apply(self, f: SuperPoly) -> SuperPoly:
        _check_same_sig(self, f)
        sig = self.sig
        out = SuperPoly.zero(sig)
        for (exps, mask, tag), c in self.terms.items():
            for (e2, m2), c2 in f.terms.items():
                k, e3, m3 = mono_apply(tag, sig, exps, mask, e2, m2)
                if k:
                    out._iadd_term((e3, m3), c * c2 * k)
        return out


def vf_bracket(x: VectorField, y: VectorField) -> VectorField:
    """Supercommutator [aδ, bγ] = aδ(b)γ - (-1)^{|aδ||bγ|} bγ(a)δ, of x's
    type (a VectorField or a QPElement).

    The stored basis derivations supercommute, so the [δ,γ] term vanishes.
    """
    _check_same_sig(x, y)
    sig = x.sig
    out = x._trusted({})
    for (ea, ma, ta), ca in x.terms.items():
        pa = (mask_size(ma) + tag_parity(ta)) & 1
        for (eb, mb, tb), cb in y.terms.items():
            pb = (mask_size(mb) + tag_parity(tb)) & 1
            coef = ca * cb
            f, e2, m2 = mono_apply(ta, sig, ea, ma, eb, mb)
            if f:
                out._iadd_term((e2, m2, tb), coef * f)
            f, e2, m2 = mono_apply(tb, sig, eb, mb, ea, ma)
            if f:
                ksign = 1 if (pa & pb) else -1
                out._iadd_term((e2, m2, ta), coef * (ksign * f))
    return out


def weight_of(x) -> WeightVector:
    """Joint eigenvalue vector under (t_i-1)d/dt_i and ζ_k∂_k.

    For polynomials this is the multiplication weight, for vector fields
    the adjoint weight; raises on non-homogeneous input.
    """
    if isinstance(x, SuperPoly):
        return weight_of_poly(x)
    if not isinstance(x, VectorField):
        raise TypeError("weight_of expects a SuperPoly or VectorField")
    if x.is_zero():
        raise ValueError("the zero element has no weight")
    sig = x.sig
    weights = set()
    for tag, poly in x.plain_coefficient_polys().items():
        base = weight_of_poly(poly)
        if tag[0] == "dt":
            base = base - eps(sig, tag[1])
        else:
            base = base - delta(sig, tag[1])
        weights.add(base)
    if len(weights) != 1:
        raise ValueError("not homogeneous for the weight families")
    return weights.pop()


def degree_field(sig: Signature) -> VectorField:
    """Σ (t_i-1) d/dt_i + Σ ζ_k ∂_k; scales shifted-homogeneous elements
    by their total degree."""
    out = VectorField.zero(sig)
    one = SuperPoly.one(sig)
    for i in sig.tvars():
        coeff = SuperPoly.t_var(sig, i) - one
        out += VectorField.from_poly_tag(coeff, ("dt", i))
    for k in range(1, sig.n + 1):
        out += VectorField.from_poly_tag(SuperPoly.zeta(sig, k), ("q", k))
    return out


def special_partial(sig: Signature, kind: str, *, i=None, j=None, p=None,
                    p2=None, sbar=None, k=None, mask=None) -> VectorField:
    """Weight-homogeneous shifted-power derivations.

    Kinds (all coefficients are products of (t_q-1)-powers):
      'power_dt'         (t_j-1)^p · Π_{q≠j}(t_q-1)^{s_q} · d/dt_i
      'power_q'          (t_j-1)^p · ζ_mask · ∂_k
      'power_zeta_dt'    (t_i-1)^p · Π_{q≠i}(t_q-1)^{s_q} · ζ_mask · d/dt_i
      'double_power_zeta_dt'
                         (t_i-1)^p (t_j-1)^{p2} · Π_{q≠i,j}(t_q-1)^{s_q}
                           · ζ_mask · d/dt_i   with i ≠ j
    """
    one = SuperPoly.one(sig)

    def tpow(q, e):
        return (SuperPoly.t_var(sig, q) - one) ** e

    def rest(sb, skip):
        out = SuperPoly.one(sig)
        for q, e in zip(sig.tvars(), sb):
            if q in skip or not e:
                continue
            out = out * tpow(q, e)
        return out

    if kind == "power_dt":
        if p is None or p < 1:
            raise ValueError("needs a positive power p")
        coeff = tpow(j, p) * rest(sbar, {j})
        return VectorField.from_poly_tag(coeff, ("dt", i))
    if kind == "power_q":
        if p is None or p < 1:
            raise ValueError("needs a positive power p")
        coeff = tpow(j, p) * SuperPoly.zeta_mask(sig, mask or 0)
        return VectorField.from_poly_tag(coeff, ("q", k))
    if kind == "power_zeta_dt":
        if p is None or p < 1:
            raise ValueError("needs a positive power p")
        coeff = tpow(i, p) * rest(sbar, {i}) * SuperPoly.zeta_mask(sig, mask or 0)
        return VectorField.from_poly_tag(coeff, ("dt", i))
    if kind == "double_power_zeta_dt":
        if i == j:
            raise ValueError("the double-power kind needs i ≠ j")
        if None in (p, p2) or p < 1 or p2 < 1:
            raise ValueError("needs positive powers p and p2")
        coeff = (
            tpow(i, p) * tpow(j, p2) * rest(sbar, {i, j})
            * SuperPoly.zeta_mask(sig, mask or 0)
        )
        return VectorField.from_poly_tag(coeff, ("dt", i))
    raise ValueError(f"unknown special-partial kind {kind!r}")


# ---------- algebra ⊕ derivations ----------

class QPElement(Sparse):
    """Element a ⊕ x of Ȧ ⊕ Der(Ȧ) (dotted signature only), keyed like a
    field by (exps, mask, tag).  The algebra summand a is stored under the
    t_0-Euler tag ('d', 0), the tag of gl direction 0: a ⊕ 0 is the field
    a·t_0 d/dt_0, which kills every t_0-free monomial (`derive_mono`).  So
    the bracket is `vf_bracket` and the action on Ȧ is `apply`; `a` and
    `x` are copies of the two summands, for the formulas that need
    π(a ⊕ x) = a ⊕ 0."""

    __slots__ = ()

    def __init__(self, sig: Signature, terms=None):
        if sig.includes_t0:
            raise ValueError("algebra ⊕ derivations uses the dotted signature")
        Sparse.__init__(self, sig, terms)

    _key_parity = staticmethod(VectorField._key_parity)

    def apply(self, f: SuperPoly) -> SuperPoly:
        """{a ⊕ δ, f ⊕ 0} = δ(f), by `VectorField.apply`: a call, not an
        alias, so that perfbench/tracer.py's span for it counts this one."""
        return VectorField.apply(self, f)

    @property
    def a(self) -> SuperPoly:
        return SuperPoly(self.sig, {(e, m): c for (e, m, tag), c in self.terms.items()
                                    if tag == ("d", 0)})

    @property
    def x(self) -> VectorField:
        return VectorField(self.sig, {key: c for key, c in self.terms.items()
                                      if key[2] != ("d", 0)})

    @staticmethod
    def pair(a: SuperPoly, x: VectorField) -> "QPElement":
        """a ⊕ x."""
        return QPElement.from_poly(a) + QPElement.from_field(x)

    @staticmethod
    def from_poly(a: SuperPoly) -> "QPElement":
        return QPElement.along(a, ("d", 0))

    @staticmethod
    def from_field(x: VectorField) -> "QPElement":
        return QPElement(x.sig, x.terms)

    @staticmethod
    def along(p: SuperPoly, tag) -> "QPElement":
        """p·∂ for a basis tag; the t_0-Euler tag ('d', 0) gives p ⊕ 0."""
        sig = p.sig
        if tag != ("d", 0):
            check_tag(sig, tag)
        return QPElement(sig, {euler_key(sig, e, m, tag): c
                               for (e, m), c in p.terms.items()})

    @staticmethod
    def of(x) -> "QPElement":
        """An algebra element, a field or a QPElement as a QPElement."""
        if isinstance(x, QPElement):
            return x
        if isinstance(x, SuperPoly):
            return QPElement.from_poly(x)
        if isinstance(x, VectorField):
            return QPElement.from_field(x)
        raise TypeError("expected an algebra element, a field, or their sum")

    def __repr__(self):
        from .parser import format_element

        return f"<QPElement {format_element(self)}>"


def _add_products(out: QPElement, x: QPElement, y: QPElement, k_ab, k_a, k_b):
    """out += k_ab·ab ⊕ (k_a·aσ + k_b·(-1)^{|b||δ|} bδ) over the term pairs
    of x = a ⊕ δ and y = b ⊕ σ.  (1, 1, 1) is the product x·y, and
    (s - r, s, -r) is s·π(x)·y - r·x·π(y) in the loop bracket."""
    for (ex, mx, tx), cx in x.terms.items():
        for (ey, my, ty), cy in y.terms.items():
            if tx == ("d", 0):
                k, tag = (k_ab if ty == ("d", 0) else k_a), ty
                if not k:
                    continue
                sign, e, m = mono_mul(ex, mx, ey, my)
            elif ty == ("d", 0):
                k, tag = k_b, tx
                if not k:
                    continue
                sign, e, m = mono_mul(ey, my, ex, mx)
                if my.bit_count() & 1 and (mx.bit_count() + tag_parity(tx)) & 1:
                    sign = -sign
            else:
                continue
            if sign:
                out._iadd_term((e, m, tag), cx * cy * (sign * k))
    return out


def qp_product(x: QPElement, y: QPElement) -> QPElement:
    """(a ⊕ δ)·(b ⊕ σ) = ab ⊕ (aσ + (-1)^{|b||δ|} bδ), bilinearly."""
    _check_same_sig(x, y)
    return _add_products(QPElement.zero(x.sig), x, y, 1, 1, 1)


def qp_bracket(x: QPElement, y: QPElement) -> QPElement:
    """{a ⊕ δ, b ⊕ σ} = (δ(b) - (-1)^{|a||σ|} σ(a)) ⊕ [δ, σ]: the field
    bracket, as a ⊕ 0 is the field a·t_0 d/dt_0."""
    return vf_bracket(x, y)


# ---------- the t_0 loop extension ----------

class LoopElement(Sparse):
    """Element of C[t_0^{±1}] ⊗ (Ȧ ⊕ Der(Ȧ)), keyed by the t_0-exponent."""

    __slots__ = ()

    def __init__(self, sig: Signature, terms=None):
        if sig.includes_t0:
            raise ValueError("loop elements carry a dotted signature")
        self.sig = sig
        self.terms = {r: qp for r, qp in (terms or {}).items() if qp}

    @staticmethod
    def wrap(r0: int, qp: QPElement) -> "LoopElement":
        return LoopElement(qp.sig, {r0: qp})

    def __repr__(self):
        from .parser import format_element

        body = " + ".join(f"t0^{r}*({format_element(qp)})"
                          for r, qp in sorted(self.terms.items()))
        return f"<LoopElement {body or '0'}>"

    def parity(self):
        seen = {qp.parity() for qp in self.terms.values()}
        if len(seen) == 1:
            return seen.pop()
        return None


def loop_bracket(u: LoopElement, v: LoopElement) -> LoopElement:
    """[t_0^r ⊗ x, t_0^s ⊗ y] = t_0^{r+s} ⊗ ({x,y} - r·x·π(y) + s·π(x)·y),
    where π(a ⊕ δ) = a ⊕ 0; the two products are one `_add_products`."""
    _check_same_sig(u, v)
    out = LoopElement.zero(u.sig)
    for r, x in u.terms.items():
        for s, y in v.terms.items():
            out._iadd_term(r + s, _add_products(qp_bracket(x, y), x, y, s - r, s, -r))
    return out


def loop_apply_to_poly(u: LoopElement, f: SuperPoly) -> SuperPoly:
    """Action on the loop algebra: (t_0^r ⊗ x)(t_0^s ⊗ b) =
    t_0^{r+s} ⊗ (s·π(x)·b + {x, b})."""
    if not f.sig.includes_t0:
        raise ValueError("needs a full-signature element")
    if f.sig.dotted() != u.sig:
        raise ValueError("signature mismatch")
    out = SuperPoly.zero(f.sig)
    slices = f.t0_slices()
    for r, x in u.terms.items():
        a = x.a
        for s, b in slices.items():
            piece = x.apply(b)
            if s:
                piece = piece + a * b * s
            out += piece.embed_full(r + s)
    return out


def loop_der_correspond(u: LoopElement) -> VectorField:
    """Identify with a derivation of the full algebra: t_0^r ⊗ x ↦ t_0^r x,
    where the algebra summand's tag ('d', 0) becomes t_0 d/dt_0."""
    out = VectorField.zero(u.sig.full())
    for r, qp in u.terms.items():
        for (exps, mask, tag), c in qp.terms.items():
            out._iadd_term(((r,) + exps, mask, tag), c)
    return out
