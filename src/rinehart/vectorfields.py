"""Derivation superalgebras of Laurent-Grassmann algebras.

A vector field is a sparse map (exponent tuple, Grassmann mask, tag) →
scalar, where the tag is a basis derivation: ('d', i) for t_i d/dt_i,
('q', k) for ∂/∂ζ_k.  These free generators of Der(A) are the gl(m+1, n)
directions of `Signature`, and they pairwise supercommute as operators,
which the bracket exploits.  Constructors also accept the plain tag
('dt', i) for d/dt_i and store it as t_i^{-1}·(t_i d/dt_i) (`euler_key`);
`plain_coefficient_polys` reads a field back in the plain basis.

Built on top: the supercommutative product and bracket that live on
algebra ⊕ derivations, and the t_0-loop extension whose bracket mixes
the two summands through the t_0-exponents.  All three are loops over
term pairs that accumulate into one output, like `vf_bracket`.
"""

from __future__ import annotations

from fractions import Fraction

from .scalars import Scalar
from .superpoly import (
    Signature,
    Sparse,
    SuperPoly,
    WeightVector,
    _check_same_sig,
    delta,
    derive,
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
        out = SuperPoly.zero(self.sig)
        for (exps, mask, tag), c in self.terms.items():
            for (e2, m2), c2 in derive(tag, f).terms.items():
                sign, e3, m3 = mono_mul(exps, mask, e2, m2)
                if sign:
                    c3 = c * c2
                    out._iadd_term((e3, m3), c3 if sign > 0 else -c3)
        return out


def vf_bracket(x: VectorField, y: VectorField) -> VectorField:
    """Supercommutator [aδ, bγ] = aδ(b)γ - (-1)^{|aδ||bγ|} bγ(a)δ.

    The stored basis derivations supercommute, so the [δ,γ] term vanishes.
    """
    _check_same_sig(x, y)
    sig = x.sig
    out = VectorField.zero(sig)
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

class QPElement:
    """Element a ⊕ x of Ȧ ⊕ Der(Ȧ) (dotted signature only)."""

    __slots__ = ("a", "x")

    def __init__(self, a: SuperPoly, x: VectorField):
        if a.sig != x.sig:
            raise ValueError("signature mismatch")
        if a.sig.includes_t0:
            raise ValueError("algebra ⊕ derivations uses the dotted signature")
        self.a = a
        self.x = x

    @property
    def sig(self) -> Signature:
        return self.a.sig

    @staticmethod
    def from_poly(a: SuperPoly) -> "QPElement":
        return QPElement(a, VectorField.zero(a.sig))

    @staticmethod
    def from_field(x: VectorField) -> "QPElement":
        return QPElement(SuperPoly.zero(x.sig), x)

    @staticmethod
    def along(p: SuperPoly, tag) -> "QPElement":
        """p·∂ for a basis tag, where the t_0-Euler tag ('d', 0) (direction
        0 of gl(m+1, n)) is the algebra summand: p ⊕ 0."""
        if tag == ("d", 0):
            return QPElement.from_poly(p)
        return QPElement.from_field(VectorField.from_poly_tag(p, tag))

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

    def is_zero(self) -> bool:
        return self.a.is_zero() and self.x.is_zero()

    def __bool__(self) -> bool:
        return bool(self.a) or bool(self.x)

    def parity(self):
        """0 or 1 when homogeneous, None for 0 or mixed."""
        seen = {SuperPoly._key_parity(k) for k in self.a.terms}
        seen.update(VectorField._key_parity(k) for k in self.x.terms)
        return seen.pop() if len(seen) == 1 else None

    def __add__(self, other):
        if not isinstance(other, QPElement):
            return NotImplemented
        return QPElement(self.a + other.a, self.x + other.x)

    def __sub__(self, other):
        if not isinstance(other, QPElement):
            return NotImplemented
        return QPElement(self.a - other.a, self.x - other.x)

    def __neg__(self):
        return QPElement(-self.a, -self.x)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, Scalar)):
            return QPElement(self.a * other, self.x * other)
        return NotImplemented

    __rmul__ = __mul__

    def __eq__(self, other):
        if not isinstance(other, QPElement):
            return NotImplemented
        return self.a == other.a and self.x == other.x

    def __hash__(self):
        return hash((self.a, self.x))

    def __repr__(self):
        from .parser import format_element

        return f"<QPElement {format_element(self)}>"

    def act_on_poly(self, b: SuperPoly) -> SuperPoly:
        """Bracket against an algebra element: {a ⊕ δ, b ⊕ 0} = δ(b)."""
        return self.x.apply(b)


def _add_qp_fields(out: VectorField, x: QPElement, y: QPElement, ka: int, kb: int):
    """out += ka·Σ a·σ + kb·Σ (-1)^{|b||δ|} b·δ over the terms a of x.a, σ of
    y.x, b of y.a and δ of x.x: the field parts of ka·π(x)·y + kb·x·π(y)."""
    if ka:
        for (ea, ma), ca in x.a.terms.items():
            for (es, ms, ts), cs in y.x.terms.items():
                sign, e, m = mono_mul(ea, ma, es, ms)
                if sign:
                    out._iadd_term((e, m, ts), ca * cs * (sign * ka))
    if kb:
        for (eb, mb), cb in y.a.terms.items():
            odd_b = mb.bit_count() & 1
            for (ed, md, td), cd in x.x.terms.items():
                sign, e, m = mono_mul(eb, mb, ed, md)
                if sign:
                    if odd_b and (md.bit_count() + tag_parity(td)) & 1:
                        sign = -sign
                    out._iadd_term((e, m, td), cb * cd * (sign * kb))
    return out


def qp_product(x: QPElement, y: QPElement) -> QPElement:
    """(a ⊕ δ)·(b ⊕ σ) = ab ⊕ (aσ + (-1)^{|b||δ|} bδ), bilinearly."""
    _check_same_sig(x, y)
    return QPElement(x.a * y.a, _add_qp_fields(VectorField.zero(x.sig), x, y, 1, 1))


def qp_bracket(x: QPElement, y: QPElement) -> QPElement:
    """{a ⊕ δ, b ⊕ σ} = (δ(b) - (-1)^{|a||σ|} σ(a)) ⊕ [δ, σ], the algebra
    part term by term."""
    _check_same_sig(x, y)
    sig = x.sig
    a_out = SuperPoly.zero(sig)
    for (ed, md, td), cd in x.x.terms.items():
        for (eb, mb), cb in y.a.terms.items():
            f, e, m = mono_apply(td, sig, ed, md, eb, mb)
            if f:
                a_out._iadd_term((e, m), cd * cb * f)
    for (es, ms, ts), cs in y.x.terms.items():
        odd_s = (ms.bit_count() + tag_parity(ts)) & 1
        for (ea, ma), ca in x.a.terms.items():
            f, e, m = mono_apply(ts, sig, es, ms, ea, ma)
            if f:
                ksign = 1 if odd_s and ma.bit_count() & 1 else -1
                a_out._iadd_term((e, m), cs * ca * (ksign * f))
    return QPElement(a_out, vf_bracket(x.x, y.x))


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
    where π(x) = x.a ⊕ 0, so the two products add (s - r)·x.a·y.a to the
    algebra part and their `_add_qp_fields` terms to the field part."""
    _check_same_sig(u, v)
    out = LoopElement.zero(u.sig)
    for r, x in u.terms.items():
        for s, y in v.terms.items():
            z = qp_bracket(x, y)
            _add_qp_fields(z.x, x, y, s, -r)
            if s != r and x.a and y.a:
                z.a += x.a * y.a * (s - r)
            out._iadd_term(r + s, z)
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
        for s, b in slices.items():
            piece = x.act_on_poly(b)
            if s:
                piece = piece + x.a * b * s
            out += piece.embed_full(r + s)
    return out


def loop_der_correspond(u: LoopElement) -> VectorField:
    """Identify with a derivation of the full algebra:
    t_0^r ⊗ (a ⊕ 0) ↦ t_0^r · a · (t_0 d/dt_0) and t_0^r ⊗ (0 ⊕ δ) ↦ t_0^r δ."""
    full = u.sig.full()
    out = VectorField.zero(full)
    for r, qp in u.terms.items():
        for (exps, mask), c in qp.a.terms.items():
            out._iadd_term(((r,) + exps, mask, ("d", 0)), c)
        for (exps, mask, tag), c in qp.x.terms.items():
            out._iadd_term(((r,) + exps, mask, tag), c)
    return out
