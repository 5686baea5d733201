"""Derivation superalgebras of Laurent-Grassmann algebras.

A vector field is a sparse map (exponent tuple, Grassmann mask, tag) →
scalar, where the tag is a basis derivation: ('d', i) for t_i d/dt_i,
('q', k) for ∂/∂ζ_k.  These free generators of Der(A) are the gl(m+1, n)
directions of `Signature`, and they pairwise supercommute as operators,
which the bracket exploits.  The constructor also accepts the plain tag
('dt', i) for d/dt_i and stores it as t_i^{-1}·(t_i d/dt_i) (`euler_key`,
in the key hook `field_entry`); `plain_coefficient_polys` reads a field
back in the plain basis.

Built on top: algebra ⊕ derivations, `QPElement`, keyed like a field
with the algebra summand under the t_0-Euler tag ('d', 0), which acts on
t_0-free monomials as 0; so its bracket is `vf_bracket`, and its product
is one loop over term pairs.  The t_0-loop extension C[t_0^{±1}] ⊗
(Ȧ ⊕ Der(Ȧ)) is stored flat, as Der(A): t_0^r ⊗ (a ⊕ x) is the field
t_0^r·a·t_0 d/dt_0 + t_0^r·x, keyed alike.  `t0_slices` and `t0_embed`
move any element keyed (exps, mask[, label]) between the full signature and
its t_0 slices, and `_t0_iadd` adds a slice at t_0^r straight into a
full-signature output.  The loop bracket and the loop action on A are
computed slice by slice, the bracket mixing the two summands through the
t_0 exponents with that same pair loop, so a check can compare them with
`vf_bracket` and `VectorField.apply`.
"""

from __future__ import annotations

from .scalars import ONE, Scalar
from .superpoly import (
    Signature,
    Sparse,
    SuperPoly,
    WeightVector,
    _check_same_sig,
    derive_mono,
    mask_size,
    mono_apply,
    mono_mul,
    weight_of_poly,
)


def tag_parity(tag) -> int:
    return 1 if tag[0] == "q" else 0


def euler_key(sig: Signature, exps, mask: int, tag):
    """The stored key of t^exps ζ_mask·tag: a plain d/dt_i is
    t_i^{-1}·(t_i d/dt_i); Euler and odd tags are kept as they are."""
    if tag[0] == "dt":
        p = sig.tpos(tag[1])
        return exps[:p] + (exps[p] - 1,) + exps[p + 1:], mask, ("d", tag[1])
    return exps, mask, tag


def _tagged(sig: Signature, p: SuperPoly, tag) -> dict:
    """p·tag's terms for a checked tag, keyed as a field stores them
    (`euler_key` maps distinct keys to distinct keys)."""
    if tag[0] == "dt":
        return {euler_key(sig, e, m, tag): c for (e, m), c in p.terms.items()}
    return {(e, m, tag): c for (e, m), c in p.terms.items()}


def field_entry(sig: Signature, key, c):
    """The key hook of fields: t^exps ζ_mask·tag for a basis tag of sig,
    stored by `euler_key`."""
    exps, mask, tag = key
    sig.check_mono(exps, mask)
    return euler_key(sig, exps, mask, sig.check_tag(tag)), Scalar.of(c)


class VectorField(Sparse):
    """A-linear combination of basis derivations, keyed by (exps, mask, tag)
    with Euler and odd tags only: plain keys are rewritten by `euler_key`."""

    __slots__ = ()
    _entry = staticmethod(field_entry)

    @staticmethod
    def _key_parity(key) -> int:
        return (mask_size(key[1]) + tag_parity(key[2])) & 1

    # -- constructors --

    @staticmethod
    def basis(sig: Signature, tag, coeff=1) -> "VectorField":
        return VectorField._one_term(sig, (sig.zero_exps(), 0, tag), coeff)

    @staticmethod
    def from_poly_tag(coeff_poly: SuperPoly, tag) -> "VectorField":
        sig = coeff_poly.sig
        return VectorField._trusted(sig, _tagged(sig, coeff_poly, sig.check_tag(tag)))

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
        out = SuperPoly._trusted(sig, {})
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
    The parities of y's terms are read once, and ca·cb is formed only for
    a derivative that survives.
    """
    _check_same_sig(x, y)
    sig = x.sig
    out = x._trusted(x.sig, {})
    ys = [(eb, mb, tb, cb, (mask_size(mb) + tag_parity(tb)) & 1)
          for (eb, mb, tb), cb in y.terms.items()]
    for (ea, ma, ta), ca in x.terms.items():
        pa = (mask_size(ma) + tag_parity(ta)) & 1
        for eb, mb, tb, cb, pb in ys:
            f, e, m = derive_mono(ta, sig, eb, mb)
            if f:
                sign, e2, m2 = mono_mul(ea, ma, e, m)
                if sign:
                    out._iadd_term((e2, m2, tb), ca * cb * (f * sign))
            f, e, m = derive_mono(tb, sig, ea, ma)
            if f:
                sign, e2, m2 = mono_mul(eb, mb, e, m)
                if sign:
                    f *= sign
                    out._iadd_term((e2, m2, ta), ca * cb * (f if pa & pb else -f))
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
    for (kind, i), poly in x.plain_coefficient_polys().items():
        w = weight_of_poly(poly)
        hprime, h = list(w.hprime), list(w.h)
        if kind == "dt":  # lower by ε_i
            hprime[sig.tpos(i)] -= 1
        else:  # ("q", i): lower by δ_i
            h[i - 1] -= 1
        weights.add(WeightVector(tuple(hprime), tuple(h)))
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
    _full = False
    _key_parity = staticmethod(VectorField._key_parity)

    @staticmethod
    def _entry(sig: Signature, key, c):
        """A field's key, or t^exps ζ_mask under ('d', 0) for the algebra
        summand."""
        exps, mask, tag = key
        if tag == ("d", 0):
            sig.check_mono(exps, mask)
            return key, Scalar.of(c)
        return field_entry(sig, key, c)

    def apply(self, f: SuperPoly) -> SuperPoly:
        """{a ⊕ δ, f ⊕ 0} = δ(f), by `VectorField.apply`: a call, not an
        alias, so that perfbench/tracer.py's span for it counts this one."""
        return VectorField.apply(self, f)

    @property
    def a(self) -> SuperPoly:
        return SuperPoly._trusted(self.sig, {(e, m): c for (e, m, tag), c
                                             in self.terms.items() if tag == ("d", 0)})

    @property
    def x(self) -> VectorField:
        return VectorField._trusted(self.sig, {key: c for key, c in self.terms.items()
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
        out = QPElement.zero(x.sig)  # refuses a full signature
        out._iadd(x)
        return out

    @staticmethod
    def along(p: SuperPoly, tag) -> "QPElement":
        """p·∂ for a basis tag; the t_0-Euler tag ('d', 0) gives p ⊕ 0."""
        sig = p.sig
        if sig.includes_t0:
            QPElement(sig)  # raises: QPElement needs the t_0-free signature
        if tag != ("d", 0):
            sig.check_tag(tag)
        return QPElement._trusted(sig, _tagged(sig, p, tag))

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

def t0_slices(x) -> dict:
    """Split a full-signature element keyed (exps, mask[, label]) by its t_0
    exponent: {r: the t_0^r part over the t_0-free signature}.  A field's
    slices are QPElements, its t_0 d/dt_0 terms their algebra summands
    (both stored under ('d', 0)); every other type slices to itself."""
    if not x.sig.includes_t0:
        raise ValueError("t0_slices needs the full signature")
    parts: dict = {}
    for key, c in x.terms.items():
        exps = key[0]
        parts.setdefault(exps[0], {})[(exps[1:],) + key[1:]] = c
    cls = QPElement if type(x) is VectorField else type(x)
    dotted = x.sig.dotted()
    return {r: cls._trusted(dotted, terms) for r, terms in parts.items()}


def t0_embed(r: int, x):
    """t_0^r·x over the full signature, for a t_0-free element x keyed
    (exps, mask[, label]): a QPElement embeds as a field, every other type as
    itself.  The inverse of `t0_slices`."""
    if x.sig.includes_t0:
        raise ValueError("t0_embed needs the t_0-free signature")
    cls = VectorField if type(x) is QPElement else type(x)
    out = cls._trusted(x.sig.full(), {})
    _t0_iadd(out, r, x)
    return out


def _t0_iadd(out, r: int, x, c=ONE):
    """out += c·t_0^r·x in place, for a t_0-free x keyed (exps, mask[,
    label]) and a full-signature out: the inserts and cancellations of
    `Sparse._iadd` of x embedded at t_0^r, with no container built."""
    for key, cx in x.terms.items():
        out._iadd_term(((r,) + key[0],) + key[1:], cx if c is ONE else cx * c)


def loop_bracket(u: VectorField, v: VectorField) -> VectorField:
    """Bracket of the loop algebra C[t_0^{±1}] ⊗ (Ȧ ⊕ Der(Ȧ)), stored as
    Der(A): on the t_0 slices, [t_0^r ⊗ x, t_0^s ⊗ y] = t_0^{r+s} ⊗
    ({x,y} - r·x·π(y) + s·π(x)·y), where π(a ⊕ δ) = a ⊕ 0; the two
    products are one `_add_products`."""
    _check_same_sig(u, v)
    out = VectorField.zero(u.sig)
    ys = t0_slices(v)
    for r, x in t0_slices(u).items():
        for s, y in ys.items():
            _t0_iadd(out, r + s, _add_products(qp_bracket(x, y), x, y, s - r, s, -r))
    return out


def loop_apply_to_poly(u: VectorField, f: SuperPoly) -> SuperPoly:
    """Action of the loop algebra on A, on the t_0 slices: (t_0^r ⊗ x)(t_0^s
    ⊗ b) = t_0^{r+s} ⊗ (s·π(x)·b + {x, b})."""
    _check_same_sig(u, f)
    out = SuperPoly.zero(f.sig)
    bs = t0_slices(f)
    for r, x in t0_slices(u).items():
        a = x.a
        for s, b in bs.items():
            piece = x.apply(b)
            if s:
                piece = piece + a * b * s
            _t0_iadd(out, r + s, piece)
    return out
