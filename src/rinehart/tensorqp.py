"""Tensor modules over the Lie-Rinehart pair and their three actions.

A tensor vector is a sparse map (monomial, module-basis index) → scalar
living in Ȧ ⊗ Ω (dotted signature) or A ⊗ Ω (full signature).  A
`QPStructure` packages a gl(m+1, n)-module Ω and a shift vector μ̄, and
evaluates three actions on them by the twisted tensor-module formulas:
the algebra action φ, the twisted derivation action ψ, and the auxiliary
action φ̂ that feeds the 0-th matrix row.  Directions α of gl(m+1, n)
follow `Signature.dir_tag`; direction 0 is the algebra summand of
Ȧ ⊕ Der(Ȧ), which a `QPElement` stores under the t_0-Euler tag ('d', 0).

ψ on Ȧ ⊗ Ω and `shen_act` on the full A ⊗ Ω are one kernel, `_twisted`;
on Ȧ direction 0 is the algebra summand, and `derive_mono` makes its
derivative 0.  ψ and φ̂ (`QPStructure.psi_parts`, `phihat_parts`) take
parts (α, exps, mask, coeff), one per term c·t^e ζ_M·∂_α, so the
composite actions need not build QPElements, and the composites add each
summand into one output with `Sparse._iadd`, in the term order that sums
of containers would give: term order reaches `Echelon`'s pivot choice
and the reports.

On top of the triple: the seven compatibility axioms, the loop module on
C[t_0^{±1}] ⊗ M, the action of degree-zero centralizer generators, the
extraction of the joint kernel of the odd derivation actions, the
induced gl-representation on that kernel, and the comparison map sending
a ⊗ ω to the algebra action of a on ω.
"""

from __future__ import annotations

from functools import lru_cache

from . import linalg
from .glmodules import GlModule, MuVector
from .scalars import ONE, Scalar
from .smash import SmashElement, tau
from .superpoly import (
    Signature,
    Sparse,
    SuperPoly,
    derive_mono,
    mask_size,
    mono_mul,
    subsets_of_mask,
)
from .vectorfields import (
    LoopElement,
    QPElement,
    check_tag,
    qp_bracket,
    qp_product,
)


class TensorVec(Sparse):
    """Sparse element of (algebra) ⊗ Ω, keyed by (exps, mask, module index)."""

    __slots__ = ()

    @staticmethod
    def _key_parity(key, parities) -> int:
        return (mask_size(key[1]) + parities[key[2]]) & 1

    @staticmethod
    def basis(sig: Signature, exps, mask: int, idx: int, coeff=1) -> "TensorVec":
        return TensorVec(sig, {(tuple(exps), mask, idx): Scalar.of(coeff)})

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda kv: kv[0])

    def __repr__(self):
        from .parser import format_tensor

        return f"<TensorVec {format_tensor(self)}>"


class LoopTensor(Sparse):
    """Element of C[t_0^{±1}] ⊗ M, keyed by the t_0-exponent."""

    __slots__ = ()

    def __init__(self, sig: Signature, terms=None):
        if sig.includes_t0:
            raise ValueError("loop tensors carry the dotted signature inside")
        self.sig = sig
        self.terms = {k: v for k, v in (terms or {}).items() if v}

    @staticmethod
    def wrap(k: int, v: TensorVec) -> "LoopTensor":
        return LoopTensor(v.sig, {k: v})

    def __repr__(self):
        from .parser import format_tensor

        body = " + ".join(f"t0^{k}*({format_tensor(v)})"
                          for k, v in sorted(self.terms.items()))
        return f"<LoopTensor {body or '0'}>"


def full_to_loop(w: TensorVec) -> LoopTensor:
    """t_0^{k} t^{r̄'} ζ_I ⊗ v  ↦  t_0^k ⊗ (t^{r̄'} ζ_I ⊗ v)."""
    if not w.sig.includes_t0:
        raise ValueError("needs a full-signature tensor")
    dotted = w.sig.dotted()
    out = LoopTensor.zero(dotted)
    for (exps, mask, idx), c in w.terms.items():
        out._iadd_term(exps[0], TensorVec.basis(dotted, exps[1:], mask, idx, c))
    return out


def loop_to_full(lw: LoopTensor) -> TensorVec:
    full = lw.sig.full()
    out = TensorVec.zero(full)
    for k, v in lw.terms.items():
        for (exps, mask, idx), c in v.terms.items():
            out._iadd_term(((k,) + exps, mask, idx), c)
    return out


# ---------- the structure triple ----------

class QPStructure:
    """Module Ω, shift vector μ̄, and the actions φ, ψ, φ̂ on Ȧ ⊗ Ω.  ψ and
    φ̂ take an element (`psi`, `phihat`) or its parts (α, e, M, c), one per
    term c·t^e ζ_M·∂_α (`psi_parts`, `phihat_parts`)."""

    __slots__ = ("sig", "omega", "mu")

    def __init__(self, sig: Signature, omega: GlModule, mu: MuVector):
        if sig.includes_t0:
            raise ValueError("structures carry the dotted signature")
        if (omega.m, omega.n) != (sig.m, sig.n):
            raise ValueError("module is over the wrong gl(m+1, n)")
        if (mu.m, mu.n) != (sig.m, sig.n):
            raise ValueError("mu vector has the wrong shape")
        self.sig = sig
        self.omega = omega
        self.mu = mu

    def phi(self, a: SuperPoly, w: TensorVec) -> TensorVec:
        if a.sig != self.sig or w.sig != self.sig:
            raise ValueError("signature mismatch")
        return w.left_mul(a)

    def psi(self, x, w: TensorVec) -> TensorVec:
        return self.psi_parts(_alpha_parts(self.sig, x), w)

    def phihat(self, x, w: TensorVec) -> TensorVec:
        return self.phihat_parts(_alpha_parts(self.sig, x), w)

    def psi_parts(self, parts, w: TensorVec) -> TensorVec:
        if w.sig != self.sig:
            raise ValueError("signature mismatch")
        return _twisted(self.sig, self.mu, self.omega, parts, w)

    def phihat_parts(self, parts, w: TensorVec) -> TensorVec:
        """With a = c·t^e ζ_M, each term b ⊗ v of w goes to
        -(-1)^{|b||α|} a·b ⊗ E_{0α} v."""
        sig = self.sig
        if w.sig != sig:
            raise ValueError("signature mismatch")
        columns = self.omega.columns
        out = TensorVec.zero(sig)
        for alpha, ae, am, ca in parts:
            p_alpha = sig.dir_parity(alpha)
            cols = columns[0, alpha]
            for (be, bm, idx), cw in w.terms.items():
                col = cols[idx]
                sign, e2, m2 = mono_mul(ae, am, be, bm)
                if not (col and sign):
                    continue
                if not (mask_size(bm) & 1 and p_alpha):
                    sign = -sign
                c2 = (cw if ca is ONE else ca * cw) * sign
                for u, cu in col:
                    out._iadd_term((e2, m2, u), c2 * cu)
        return out


def _alpha_parts(sig: Signature, x):
    """The parts (α, exps, mask, coeff) of an algebra element, a field or
    a QPElement x; the algebra summand's tag ('d', 0) is direction 0."""
    x = QPElement.of(x)
    if x.sig != sig:
        raise ValueError("signature mismatch")
    return [(sig.dir_of(tag), exps, mask, c) for (exps, mask, tag), c in x.terms.items()]


@lru_cache(maxsize=64)
def _directions(sig: Signature) -> tuple:
    """(parity, tag) of each direction α."""
    return tuple((sig.dir_parity(a), sig.dir_tag(a)) for a in sig.directions())


@lru_cache(maxsize=1 << 12)
def _derivatives(sig: Signature, exps, mask: int) -> tuple:
    """∂_β(t^exps ζ_mask) = f·t^e ζ_m as (β, |β|, f, e, m), over the
    directions β that do not kill the monomial."""
    out = []
    for beta, (p_beta, tag) in enumerate(_directions(sig)):
        f, e, m = derive_mono(tag, sig, exps, mask)
        if f:
            out.append((beta, p_beta, f, e, m))
    return tuple(out)


def _twisted(sig: Signature, mu: MuVector, omega: GlModule, parts,
             w: TensorVec) -> TensorVec:
    """Twisted action of Σ c·t^e ζ_M·∂_α over the parts (α, e, M, c): with
    a = c·t^e ζ_M, each term b ⊗ v of w goes to a·(∂_α b + μ_α b) ⊗ v +
    Σ_β (-1)^{|β| + (|a|+|b|)|β| + |b||α|} ∂_β(a)·b ⊗ E_{βα} v.  Without
    t_0, ∂_0 is the algebra summand's ('d', 0), which `derive_mono` makes 0."""
    table = _directions(sig)
    columns = omega.columns
    out = TensorVec.zero(sig)
    for alpha, ae, am, ca in parts:
        p_alpha, tag = table[alpha]
        pa = mask_size(am) & 1
        mu_a = mu[alpha]
        dparts = _derivatives(sig, ae, am)
        for (be, bm, idx), cw in w.terms.items():
            coef = cw if ca is ONE else ca * cw
            pb = mask_size(bm) & 1
            # ∂_α b + μ_α b: an Euler ∂_α keeps b's monomial, an odd one moves it
            f, e, mask = derive_mono(tag, sig, be, bm)
            if mask != bm:
                main = ((f, e, mask), (mu_a, be, bm))
            else:
                main = ((mu_a + f if f else mu_a, be, bm),)
            for c2, e2, m2 in main:
                if not c2:
                    continue
                sign, e3, m3 = mono_mul(ae, am, e2, m2)
                if sign:
                    c3 = coef * c2
                    out._iadd_term((e3, m3, idx), c3 if sign > 0 else -c3)
            pab = (pa + pb) & 1
            for beta, p_beta, f, e, mask in dparts:
                col = columns[beta, alpha][idx]  # E_{βα} v, often 0
                if not col:
                    continue
                sign, e2, m2 = mono_mul(e, mask, be, bm)
                if not sign:
                    continue
                if ((pab & p_beta) + p_beta + (pb & p_alpha)) & 1:
                    sign = -sign
                c2 = coef * (f * sign)
                for u, cu in col:
                    out._iadd_term((e2, m2, u), c2 * cu)
    return out


# ---------- the seven compatibility axioms ----------

def _hom_parity(x) -> int:
    p = x.parity()
    if p is None:
        raise ValueError("axiom checks need parity-homogeneous inputs")
    return p


def qp_axiom_check(S: QPStructure, axiom: int, *, a=None, b=None,
                   x=None, y=None, w=None) -> tuple[TensorVec, TensorVec]:
    """Both sides of one numbered axiom evaluated on w."""
    if axiom == 1:
        lhs = S.phi(a * b, w)
        rhs = S.phi(a, S.phi(b, w))
    elif axiom == 2:
        px, py = _hom_parity(x), _hom_parity(y)
        lhs = S.psi(qp_bracket(x, y), w)
        rhs = S.psi(x, S.psi(y, w)) - (-1) ** (px * py) * S.psi(y, S.psi(x, w))
    elif axiom == 3:
        px, py = _hom_parity(x), _hom_parity(y)
        lhs = S.phihat(x, S.phihat(y, w)) - (-1) ** (px * py) * S.phihat(
            y, S.phihat(x, w)
        )
        rhs = S.phihat(qp_product(x, QPElement.from_poly(y.a)), w) - S.phihat(
            qp_product(QPElement.from_poly(x.a), y), w
        )
    elif axiom == 4:
        lhs = S.phihat(qp_product(QPElement.from_poly(a), x), w)
        rhs = S.phi(a, S.phihat(x, w))
    elif axiom == 5:
        px, pa = _hom_parity(x), _hom_parity(a)
        lhs = S.phihat(x, S.phi(a, w)) - (-1) ** (px * pa) * S.phi(a, S.phihat(x, w))
        rhs = TensorVec.zero(S.sig)
    elif axiom == 6:
        px, py = _hom_parity(x), _hom_parity(y)
        sign = (-1) ** (px * py)
        lhs = S.phihat(x, S.psi(y, w)) - sign * S.psi(y, S.phihat(x, w))
        rhs = (
            S.phihat(qp_bracket(x, y), w)
            - sign * S.phi(y.a, S.psi(x, w))
            + S.psi(qp_product(x, QPElement.from_poly(y.a)), w)
        )
    elif axiom == 7:
        px, pa = _hom_parity(x), _hom_parity(a)
        lhs = S.psi(x, S.phi(a, w)) - (-1) ** (px * pa) * S.phi(a, S.psi(x, w))
        rhs = S.phi(x.apply(a), w)
    else:
        raise ValueError("axioms are numbered 1..7")
    return lhs, rhs


def qp_axiom_suite(S: QPStructure, sampler, samples: int) -> dict:
    """Sample every axiom; report pass/fail and a first counterexample."""
    report = {}
    for axiom in range(1, 8):
        failure = None
        for case in range(samples):
            a = sampler.monomial(S.sig)
            b = sampler.monomial(S.sig)
            x = sampler.qp_homogeneous(S.sig)
            y = sampler.qp_homogeneous(S.sig)
            w = sampler.tensor(S.sig, S.omega)
            lhs, rhs = qp_axiom_check(S, axiom, a=a, b=b, x=x, y=y, w=w)
            if lhs != rhs:
                failure = _describe_case(axiom, case, a=a, b=b, x=x, y=y, w=w)
                break
        report[axiom] = {"pass": failure is None, "cases": samples,
                         "counterexample": failure}
    return report


def _describe_case(axiom, case, **kw) -> str:
    from .parser import format_element, format_tensor

    parts = []
    for name, val in kw.items():
        if val is None:
            continue
        if isinstance(val, TensorVec):
            parts.append(f"{name}={format_tensor(val)}")
        else:
            parts.append(f"{name}={format_element(val)}")
    return f"axiom {axiom} case {case}: " + ", ".join(parts)


# ---------- the twisted action on the full tensor module ----------

def shen_act(f: SuperPoly, alpha: int, w: TensorVec, mu: MuVector,
             omega: GlModule) -> TensorVec:
    """Full-signature twisted action of f·∂_α on A ⊗ Ω."""
    sig = f.sig
    if not sig.includes_t0:
        raise ValueError("the full tensor module uses the full signature")
    if w.sig != sig:
        raise ValueError("signature mismatch")
    if alpha not in sig.directions():
        raise ValueError("direction index out of range")
    parts = ((alpha, e, mask, c) for (e, mask), c in f.terms.items())
    return _twisted(sig, mu, omega, parts, w)


# ---------- loop module structure ----------

def loop_g_act(u: LoopElement, w: LoopTensor, S: QPStructure) -> LoopTensor:
    """(t_0^r ⊗ x)·(t_0^s ⊗ ω) = t_0^{r+s} ⊗ (ψ_x ω - r φ̂_x ω + s φ_{π(x)} ω)."""
    out = LoopTensor.zero(S.sig)
    for r, x in u.terms.items():
        a = x.a
        for s, v in w.terms.items():
            piece = S.psi(x, v)
            if r:
                piece = piece - r * S.phihat(x, v)
            if s and a:
                piece = piece + s * S.phi(a, v)
            out._iadd_term(r + s, piece)
    return out


def loop_a_act(f: SuperPoly, w: LoopTensor, S: QPStructure) -> LoopTensor:
    """(t_0^r ⊗ a)·(t_0^s ⊗ ω) = t_0^{r+s} ⊗ φ_a(ω) for full-signature f."""
    if not f.sig.includes_t0:
        raise ValueError("loop algebra elements use the full signature")
    out = LoopTensor.zero(S.sig)
    for r, a in f.t0_slices().items():
        for s, v in w.terms.items():
            out._iadd_term(r + s, S.phi(a, v))
    return out


def loop_smash_act(u: SmashElement, w: LoopTensor, S: QPStructure) -> LoopTensor:
    """Action of A # (C ⊕ Der A) on the loop module, termwise:

    (t^{r̄}ζ_I # t^{s̄}ζ_J ∂) ∗ (t_0^k ⊗ v) = t_0^{r_0+s_0+k} ⊗
       φ_{t^{r̄'}ζ_I}( ψ_{t^{s̄'}ζ_J∂} v - s_0 φ_{t^{s̄'}ζ_J} φ̂_∂ v
                       + k·[∂ = t_0-Euler]·φ_{t^{s̄'}ζ_J} v ).
    """
    if u.sig.dotted() != S.sig:
        raise ValueError("signature mismatch")
    out = LoopTensor.zero(S.sig)
    for (ae, am, be, bm, tag), c in u.terms.items():
        r0, rp = ae[0], ae[1:]
        apoly = SuperPoly.monomial(S.sig, rp, am)
        if tag is None:
            for k, v in w.terms.items():
                out._iadd_term(r0 + k, S.phi(apoly, v) * c)
            continue
        s0, sp = be[0], be[1:]
        bpoly = SuperPoly.monomial(S.sig, sp, bm)
        sub = QPElement.along(bpoly, tag)
        hat = QPElement.along(SuperPoly.one(S.sig), tag)
        for k, v in w.terms.items():
            inner = S.psi(sub, v)
            if s0:
                inner = inner - s0 * S.phi(bpoly, S.phihat(hat, v))
            if k and tag == ("d", 0):
                inner = inner + k * S.phi(bpoly, v)
            out._iadd_term(r0 + s0 + k, S.phi(apoly, inner) * c)
    return out


def t_act(rbar, jmask: int, tag, u: TensorVec, S: QPStructure) -> TensorVec:
    """Action of the centralizer generator (r̄, J, ∂) at t_0-degree zero:
    Σ_{J' ⊆ J} ± t^{-r̄'} ζ_{J'} · (ψ_{t^{r̄'} ζ_{J∖J'} ∂} u
    - r_0 t^{r̄'} ζ_{J∖J'} · φ̂_∂ u), for an Euler or odd tag ∂."""
    sig = S.sig
    rbar = tuple(rbar)
    if len(rbar) != sig.m + 1:
        raise ValueError("generator exponents live in the full signature")
    if tag != ("d", 0):
        check_tag(sig, tag)
    alpha = sig.dir_of(tag)
    r0, rp = rbar[0], rbar[1:]
    neg = tuple(-x for x in rp)
    z = sig.zero_exps()
    hat_u = S.phihat_parts(((alpha, z, 0, ONE),), u) if r0 else None
    out = TensorVec.zero(sig)
    for jp in subsets_of_mask(jmask):
        rest = jmask ^ jp
        sign = Scalar(-1) if (mask_size(jp) + tau(jp, rest)) & 1 else ONE
        inner = S.psi_parts(((alpha, rp, rest, ONE),), u)  # a fresh container
        if r0:
            inner._iadd(hat_u, Scalar(-r0), (rp, rest))
        out._iadd(inner, sign, (neg, jp))
    if jmask == 0:  # the J = ∅ generator carries the correction -1 # ∂
        out._iadd(S.psi_parts(((alpha, z, 0, Scalar(-1)),), u))
    return out


def t_act_gens(gens: dict, u: TensorVec, S: QPStructure) -> TensorVec:
    """Extend t_act linearly over generator-coefficient dictionaries."""
    out = TensorVec.zero(S.sig)
    for (rbar, jmask, tag), c in gens.items():
        out._iadd(t_act(rbar, jmask, tag, u, S), Scalar.of(c))
    return out


# ---------- kernel extraction and the induced gl-module ----------

def degree_zero_basis(S: QPStructure) -> list[TensorVec]:
    """Monomial basis ζ_I ⊗ e_j of the t-degree-zero slice."""
    z = S.sig.zero_exps()
    out = []
    for mask in range(1 << S.sig.n):
        for j in range(S.omega.dim):
            out.append(TensorVec.basis(S.sig, z, mask, j))
    return out


def _solve_in(basis: list[TensorVec], targets: list[TensorVec], error: str) -> list:
    """Coordinates ``{i: c}`` of each target in the span of ``basis``
    (unique when the basis is independent), from one reduction; raise
    ValueError(error) if a target lies outside the span."""
    sols = linalg.solve_columns([v.terms for v in basis], [t.terms for t in targets])
    if any(sol is None for sol in sols):
        raise ValueError(error)
    return sols


def omega_extract(basis: list[TensorVec], S: QPStructure) -> list[TensorVec]:
    """Basis of the joint kernel of the odd derivation actions on a span.

    The span must be invariant under every ψ_{∂_k}; the result is split
    into parity-homogeneous vectors.
    """
    if not basis:
        return []
    z = S.sig.zero_exps()
    images = []
    for k in range(1, S.sig.n + 1):
        dk = ((S.sig.dir_of(("q", k)), z, 0, ONE),)
        images.extend(S.psi_parts(dk, v) for v in basis)
    cols = _solve_in(basis, images, "span is not invariant under the odd actions")
    d = len(basis)
    # Column j stacks the coordinates of every ψ_{∂_k} of basis vector j.
    stacked = [
        {(k, i): c for k in range(0, len(cols), d) for i, c in cols[k + j].items()}
        for j in range(d)
    ]
    candidates = []
    for coeffs in linalg.nullspace(stacked):
        vec = TensorVec.zero(S.sig)
        for j, c in coeffs.items():
            vec += basis[j] * c
        candidates.extend(p for p in vec.even_odd(S.omega.parities) if not p.is_zero())
    # Keep each candidate that raises the rank of those kept before it.
    ech = linalg.Echelon()
    return [v for v in candidates if ech.add(v.terms)[0]]


def omega_greedy(u: TensorVec, S: QPStructure) -> TensorVec:
    """Apply a maximal product of odd derivation actions that keeps the
    vector nonzero; the result lands in their joint kernel, so a nonzero
    invariant subspace always meets the kernel."""
    if u.is_zero():
        raise ValueError("needs a nonzero start vector")
    z = S.sig.zero_exps()
    psis = [((S.sig.dir_of(("q", k)), z, 0, ONE),) for k in range(1, S.sig.n + 1)]
    best = u
    for mask in sorted(range(1 << S.sig.n), key=mask_size, reverse=True):
        vec = u
        for k in range(1, S.sig.n + 1):
            if mask & (1 << (k - 1)):
                vec = S.psi_parts(psis[k - 1], vec)
                if vec.is_zero():
                    break
        if not vec.is_zero():
            best = vec
            break
    return best


def _eigen_scalar(v: TensorVec, image: TensorVec) -> Scalar:
    """λ with image = λ·v, or raise when v is not an eigenvector."""
    key = next(iter(v.terms))
    lam = image.terms.get(key, Scalar(0)) / v.terms[key]
    if image != v * lam:
        raise ValueError("vector is not an eigenvector")
    return lam


def rho_of(S: QPStructure, omega_basis: list[TensorVec]) -> MuVector:
    """Shift vector read off the unit/Euler eigenvalues on the kernel."""
    weights = {tprime_weight(S, v) for v in omega_basis}
    if len(weights) != 1:
        raise ValueError("kernel is not a single weight slice")
    return MuVector(S.sig.m, S.sig.n, [*weights.pop()] + [Scalar(0)] * S.sig.n)


def phi_operator(alpha: int, beta: int, S: QPStructure):
    """The induced gl-action operator for the elementary index (α, β)."""
    sig = S.sig
    if alpha not in sig.directions() or beta not in sig.directions():
        raise ValueError("elementary index out of range")
    z = sig.zero_exps()
    minus_unit = ((beta, z, 0, Scalar(-1)),)  # -∂_β, the minus sign in the coefficient
    if alpha == 0:
        return lambda w: S.phihat_parts(minus_unit, w)
    kind, i = sig.dir_tag(alpha)
    if kind == "d":
        p = sig.tpos(i)
        ti = z[:p] + (1,) + z[p + 1:]
        tinv = (z[:p] + (-1,) + z[p + 1:], 0)

        def op(w):  # t_i^{-1}·ψ_{t_i ∂_β} w - ψ_{∂_β} w
            out = TensorVec.zero(sig)
            out._iadd(S.psi_parts(((beta, ti, 0, ONE),), w), ONE, tinv)
            out._iadd(S.psi_parts(minus_unit, w))
            return out
        return op
    zi = 1 << (i - 1)

    def op(w):  # ψ_{ζ_i ∂_β} w - ζ_i·ψ_{∂_β} w, into the fresh first term
        out = S.psi_parts(((beta, z, zi, ONE),), w)
        out._iadd(S.psi_parts(minus_unit, w), ONE, (z, zi))
        return out
    return op


def phi_rep(alpha: int, beta: int, S: QPStructure,
            omega_basis: list[TensorVec]) -> list:
    """Columns of the induced operator on the extracted kernel basis, in
    the form `GlModule` stores: (row, coeff) pairs, rows ascending."""
    op = phi_operator(alpha, beta, S)
    cols = _solve_in(
        omega_basis, [op(v) for v in omega_basis],
        "operator does not preserve the extracted kernel",
    )
    return [sorted(col.items()) for col in cols]


def induced_gl_module(S: QPStructure, omega_basis: list[TensorVec]) -> GlModule:
    """The kernel basis as an explicit gl(m+1, n)-module."""
    sig = S.sig
    parities = []
    for v in omega_basis:
        p = v.parity(S.omega.parities)
        if p is None:
            raise ValueError("kernel basis must be parity-homogeneous")
        parities.append(p)
    columns = {
        (a, b): phi_rep(a, b, S, omega_basis)
        for a in sig.directions()
        for b in sig.directions()
    }
    return GlModule(sig.m, sig.n, len(omega_basis), parities, columns)


def theta_transport(w: TensorVec, omega_basis: list[TensorVec],
                    S: QPStructure) -> TensorVec:
    """Push a vector of the rebuilt module through the comparison map:
    each c·t^e ζ_M ⊗ e_j goes to c·t^e ζ_M · (the j-th kernel vector)."""
    if w.sig != S.sig:
        raise ValueError("signature mismatch")
    out = TensorVec.zero(S.sig)
    for (ea, ma, j), c in w.terms.items():
        for (eb, mb, idx), cb in omega_basis[j].terms.items():
            sign, exps, mask = mono_mul(ea, ma, eb, mb)
            if sign:
                cc = c * cb
                out._iadd_term((exps, mask, idx), cc if sign > 0 else -cc)
    return out


def tprime_weight(S: QPStructure, w: TensorVec) -> tuple:
    """Eigenvalues on an eigenvector of ψ along directions 0..m: the unit
    and the Euler derivations."""
    z = S.sig.zero_exps()
    return tuple(_eigen_scalar(w, S.psi_parts(((i, z, 0, ONE),), w))
                 for i in range(S.sig.m + 1))


# ---------- operator identities on a structure ----------

def operator_identity_check(which: int, S: QPStructure, w: TensorVec, *,
                         a: SuperPoly | None = None, b: SuperPoly | None = None,
                         x: QPElement | None = None, rbar=None,
                         imask: int | None = None) -> tuple[TensorVec, TensorVec]:
    """Both sides of one of the five derived operator identities on w."""
    sig = S.sig
    one = SuperPoly.one(sig)
    unit = QPElement.from_poly(one)

    def psi_poly(p):
        return S.psi(QPElement.from_poly(p), w)

    if which == 1:
        pa, pb = _hom_parity(a), _hom_parity(b)
        lhs = psi_poly(a * b)
        rhs = (
            -S.phi(a * b, S.psi(unit, w))
            + S.phi(a, psi_poly(b))
            + (-1) ** (pa * pb) * S.phi(b, psi_poly(a))
        )
        return lhs, rhs
    if which == 2:
        pa, px = _hom_parity(a), _hom_parity(x)
        sign = (-1) ** (pa * px)
        lhs = S.phihat(QPElement.from_poly(x.apply(a)), w)
        rhs = (
            S.phihat(x, psi_poly(a))
            - sign * S.psi(QPElement.from_poly(a), S.phihat(x, w))
            + sign * S.phi(a, S.psi(x, w))
            - sign * S.psi(qp_product(QPElement.from_poly(a), x), w)
        )
        return lhs, rhs
    if which == 3:
        tmon = SuperPoly.monomial(sig, tuple(rbar))
        lhs = psi_poly(tmon * a)
        rhs = S.phi(tmon, psi_poly(a))
        for j in range(1, sig.m + 1):
            rj = tmon.derive(("d", j))
            if rj.is_zero():
                continue
            tj = SuperPoly.t_var(sig, j)
            tjinv = SuperPoly.t_var(sig, j, -1)
            inner = S.phi(tjinv, psi_poly(tj)) - S.psi(unit, w)
            rhs = rhs + S.phi(a * rj, inner)
        return lhs, rhs
    if which == 4:
        zi = SuperPoly.zeta_mask(sig, imask)
        lhs = psi_poly(zi)
        rhs = S.phi(zi, S.psi(unit, w))
        sign = (-1) ** mask_size(imask)
        for p in range(1, sig.n + 1):
            dz = zi.derive(("q", p))
            if dz.is_zero():
                continue
            zp = SuperPoly.zeta(sig, p)
            inner = -psi_poly(zp) + S.phi(zp, S.psi(unit, w))
            rhs = rhs + sign * S.phi(dz, inner)
        return lhs, rhs
    if which == 5:
        pa = _hom_parity(a)
        lhs = S.psi(qp_product(QPElement.from_poly(a), x), w)
        rhs = S.phi(a, S.psi(x, w))
        for p in range(1, sig.n + 1):
            da = a.derive(("q", p))
            if da.is_zero():
                continue
            zp = SuperPoly.zeta(sig, p)
            inner = S.psi(qp_product(QPElement.from_poly(zp), x), w) - S.phi(
                zp, S.psi(x, w)
            )
            rhs = rhs + (-1) ** (pa + 1) * S.phi(da, inner)
        for j in range(1, sig.m + 1):
            da = a.derive(("d", j))
            if da.is_zero():
                continue
            tj = SuperPoly.t_var(sig, j)
            tjinv = SuperPoly.t_var(sig, j, -1)
            inner = S.phi(
                tjinv, S.psi(qp_product(QPElement.from_poly(tj), x), w)
            ) - S.psi(x, w)
            rhs = rhs + S.phi(da, inner)
        return lhs, rhs
    raise ValueError("identities are numbered 1..5")
