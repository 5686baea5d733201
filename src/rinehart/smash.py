"""The smash-product Lie superalgebra on A # (C·1 ⊕ Der(A)).

Elements are sparse maps (a-monomial, b-monomial, tag) → scalar standing
for Σ a # b·∂ together with unit-tagged terms a # 1.  Since derivations
are primitive for the coproduct, the supercommutator of two such
elements closes back in this truncation: the would-be degree-two
enveloping terms combine into the derivation bracket.

Also here: the distinguished degree-zero centralizer elements built from
alternating Grassmann splittings, their identification with vanishing-
ideal-coefficient vector fields, and the projection of those fields onto
gl(m+1, n) through the degree-one Taylor data.
"""

from __future__ import annotations

from .glmatrix import GlMatrix
from .scalars import ONE, Scalar
from .superpoly import (
    Signature,
    Sparse,
    SuperPoly,
    _taylor01,
    mask_size,
    mono_apply,
    mono_mul,
    subsets_of_mask,
)
from .vectorfields import VectorField, field_entry, tag_parity

_MINUS_ONE = Scalar(-1)


def _term_parity(amask: int, bmask: int, tag) -> int:
    p = mask_size(amask) + mask_size(bmask)
    if tag is not None:
        p += tag_parity(tag)
    return p & 1


class SmashElement(Sparse):
    """Sparse element of A # (C ⊕ Der(A)), full signature, keyed by
    (a-exps, a-mask, b-exps, b-mask, tag); tag None is the unit 1.  The
    b-side b·∂ is stored like a `VectorField` term (`euler_key`)."""

    __slots__ = ()
    _full = True

    @staticmethod
    def _entry(sig: Signature, key, c):
        """a # b·∂ with b·∂ a field's key, or a # 1 (tag None, b = 1)."""
        aexps, amask, bexps, bmask, tag = key
        sig.check_mono(aexps, amask)
        if tag is None:
            if bexps != sig.zero_exps() or bmask:
                raise ValueError("unit-tagged terms carry no b-monomial")
            return key, Scalar.of(c)
        bkey, c = field_entry(sig, (bexps, bmask, tag), c)
        return (aexps, amask) + bkey, c

    @staticmethod
    def _key_parity(key) -> int:
        return _term_parity(key[1], key[3], key[4])

    # -- constructors --

    @staticmethod
    def from_field(x: VectorField) -> "SmashElement":
        """1 # x."""
        out = SmashElement.zero(x.sig)
        z = x.sig.zero_exps()
        for (exps, mask, tag), c in x.terms.items():
            out._iadd_term((z, 0, exps, mask, tag), c)
        return out

    @staticmethod
    def from_poly(a: SuperPoly) -> "SmashElement":
        """a # 1."""
        out = SmashElement.zero(a.sig)
        z = a.sig.zero_exps()
        for (exps, mask), c in a.terms.items():
            out._iadd_term((exps, mask, z, 0, None), c)
        return out

    # -- queries --

    def is_degree_zero(self) -> bool:
        """Whether every term a # b has Z^{m+1}-degree exp(a) + exp(b) = 0."""
        return all(x == -y for (ae, _am, be, _bm, _tag) in self.terms
                   for x, y in zip(ae, be))

    def __repr__(self):
        from .parser import format_smash

        return f"<SmashElement {format_smash(self)}>"


def _apply_mono(sig: Signature, ae, am, pe, pm, tag, ce, cm):
    """a·p·δ(c) for monomials a, p, c as (factor, exps, mask); factor 0
    when it vanishes."""
    f, e, m = mono_apply(tag, sig, pe, pm, ce, cm)
    if f:
        sign, e, m = mono_mul(ae, am, e, m)
        return f * sign, e, m
    return 0, e, m


def smash_commutator(u: SmashElement, v: SmashElement) -> SmashElement:
    """Lie superbracket of the associative smash product, termwise:

      [a # pδ, c # qγ] = a·p·δ(c) # qγ
                         - (-1)^{|A||B|} c·q·γ(a) # pδ
                         + (-1)^{|c||pδ|} (a·c) # [pδ, qγ]
      [a # pδ, c # 1]  = a·p·δ(c) # 1
      [a # 1,  c # qγ] = -(-1)^{|A||B|} c·q·γ(a) # 1
      [a # 1,  c # 1]  = 0

    [pδ, qγ] = p·δ(q)·γ - (-1)^{|pδ||qγ|} q·γ(p)·δ is `vf_bracket` of two
    single terms, computed inline with its terms in that order.
    """
    if u.sig != v.sig:
        raise ValueError("signature mismatch")
    sig = u.sig
    out = SmashElement.zero(sig)
    for (ae, am, pe, pm, ta), ca in u.terms.items():
        pa = _term_parity(am, pm, ta)
        p_par = ta is not None and (mask_size(pm) + tag_parity(ta)) & 1
        for (ce, cm, qe, qm, tb), cb in v.terms.items():
            pb = _term_parity(cm, qm, tb)
            coef = ca * cb
            big_sign = -1 if (pa & pb) else 1
            if ta is not None:
                f, e, m = _apply_mono(sig, ae, am, pe, pm, ta, ce, cm)
                if f:
                    out._iadd_term((e, m, qe, qm, tb), coef * f)
            if tb is not None:
                f, e, m = _apply_mono(sig, ce, cm, qe, qm, tb, ae, am)
                if f:
                    out._iadd_term((e, m, pe, pm, ta), coef * (-big_sign * f))
            if ta is not None and tb is not None:
                s_ac, e1, m1 = mono_mul(ae, am, ce, cm)
                if not s_ac:
                    continue
                if mask_size(cm) & p_par:
                    s_ac = -s_ac
                f, e2, m2 = mono_apply(ta, sig, pe, pm, qe, qm)
                g, e3, m3 = mono_apply(tb, sig, qe, qm, pe, pm)
                if not p_par & (mask_size(qm) + tag_parity(tb)):
                    g = -g
                if f and g and (e2, m2, tb) == (e3, m3, ta):
                    f, g = f + g, 0
                if f:
                    out._iadd_term((e1, m1, e2, m2, tb), coef * (s_ac * f))
                if g:
                    out._iadd_term((e1, m1, e3, m3, ta), coef * (s_ac * g))
    return out


def tau(imask: int, jmask: int) -> int:
    """Number of pairs (i ∈ I, j ∈ J) with i > j."""
    count = 0
    b = jmask
    while b:
        low = b & -b
        count += (imask >> low.bit_length()).bit_count()
        b ^= low
    return count


def make_X(sig: Signature, rbar, jmask: int, tag) -> SmashElement:
    """Degree-zero centralizer generator.

    With J ≠ ∅ this is Σ_{I⊆J} (-1)^{|I|+τ(I,J\\I)} t^{-r̄} ζ_I # t^{r̄} ζ_{J\\I} ∂;
    with J = ∅ it is t^{-r̄} # t^{r̄}∂ - 1 # ∂.  The tag ∂ must be an Euler
    or odd tag (a gl direction); a plain d/dt_i raises ValueError, and so
    does the t_0-free signature.
    """
    out = SmashElement.zero(sig)  # refuses the t_0-free signature
    out.terms.update(_x_terms(sig, rbar, jmask, tag))
    return out


def _x_terms(sig: Signature, rbar, jmask: int, tag) -> list:
    """The terms (key, c) of `make_X`, checked, with distinct keys and the
    shared ONE as every +1; `tensorqp.t_act` acts with them directly."""
    sig.dir_of(sig.check_tag(tag))
    rbar = tuple(rbar)
    sig.check_mono(rbar, jmask)
    if not (jmask or any(rbar)):
        return []  # 1 # ∂ - 1 # ∂
    neg = tuple(-r for r in rbar)
    out = []
    for imask in subsets_of_mask(jmask):
        rest = jmask ^ imask
        odd = (mask_size(imask) + tau(imask, rest)) & 1
        out.append(((neg, imask, rbar, rest, tag), _MINUS_ONE if odd else ONE))
    if jmask == 0:  # the correction -1 # ∂
        zero = sig.zero_exps()
        out.append(((zero, 0, zero, 0, tag), _MINUS_ONE))
    return out


def x_decompose(u: SmashElement) -> dict:
    """Exact generator coefficients of a centralizer element.

    Every generator contributes its Grassmann-free a-side term with
    coefficient +1 and a unique (r̄, J, ∂) key, so those terms determine
    the coefficients; the result is verified against u exactly.
    """
    sig = u.sig
    gens: dict = {}
    for (ae, am, be, bm, tag), c in u.terms.items():
        if tag is None or am:
            continue
        if ae != tuple(-x for x in be):
            continue
        if not any(be) and not bm:
            continue  # bare 1 # ∂ terms belong to the J = ∅ correction
        gens[(be, bm, tag)] = gens.get((be, bm, tag), Scalar(0)) + c
    gens = {k: c for k, c in gens.items() if c}
    residual = u
    for (rbar, jmask, tag), c in gens.items():
        residual = residual - make_X(sig, rbar, jmask, tag) * c
    if not residual.is_zero():
        raise ValueError("element is not a combination of centralizer generators")
    return gens


def psi_map(gens: dict, sig: Signature) -> VectorField:
    """Identify a centralizer element, given by its generator coefficients
    {(r̄, J, ∂): c} (`x_decompose` of a `SmashElement`), with its
    vanishing-ideal field:

      (t^{-r̄} # t^{r̄}∂ - ∂)          ↦ (t^{r̄} - 1) ∂
      Σ ± t^{-r̄}ζ_I # t^{r̄}ζ_{J\\I}∂  ↦ t^{r̄} ζ_J ∂
    """
    out = VectorField.zero(sig)
    one = SuperPoly.one(sig)
    for (rbar, jmask, tag), c in gens.items():
        if jmask == 0:
            coeff = SuperPoly.monomial(sig, rbar) - one
        else:
            coeff = SuperPoly.monomial(sig, rbar, jmask)
        out += VectorField.from_poly_tag(coeff * c, tag)
    return out


def theta_project(x: VectorField) -> GlMatrix:
    """Project a vanishing-ideal field onto gl(m+1, n).

    Groups the field's terms by their stored Euler or odd tag, in the
    order the tags first occur, and reads each coefficient's constant and
    degree-one Taylor data with `superpoly._taylor01`: the t_i - 1 rows,
    then the ζ_k rows, of the column of its derivation.  Raises, naming
    the first such tag, when a coefficient is not in the vanishing ideal
    (its constant term is nonzero).
    """
    sig = x.sig
    if not sig.includes_t0:
        raise ValueError("the gl projection uses the full signature")
    groups: dict = {}
    for (exps, mask, tag), c in x.terms.items():
        groups.setdefault(tag, []).append(((exps, mask), c))
    terms = {}
    for tag, group in groups.items():
        const, lin_t, lin_z = _taylor01(sig, group)
        if const:
            raise ValueError(f"coefficient of {tag} is not in the vanishing ideal")
        col = sig.dir_of(tag)
        for row, c in enumerate(lin_t + lin_z):
            if c:
                terms[(row, col)] = c
    return GlMatrix._trusted(sig, terms)
