"""Tensor modules over the Lie-Rinehart pair and their three actions.

A tensor vector is a sparse map (monomial, module-basis index) → scalar
living in Ȧ ⊗ Ω (dotted signature) or A ⊗ Ω (full signature).  A
`QPStructure` packages a gl(m+1, n)-module Ω and a shift vector μ̄, and
evaluates three actions on them by the twisted tensor-module formulas:
the algebra action φ, the twisted derivation action ψ, and the auxiliary
action φ̂ that feeds the 0-th matrix row.  Directions α of gl(m+1, n)
follow `Signature.dir_tag`; direction 0 is the algebra summand of
Ȧ ⊕ Der(Ȧ), which a `QPElement` stores under the t_0-Euler tag ('d', 0).

The structure is the one actor: every ψ and φ̂ goes through its list
methods `psi_parts` and `phihat_parts`, which take parts (α, exps, mask,
coeff), one per term c·t^e ζ_M·∂_α, and a list of vectors, one image per
vector.  ψ runs the kernel `_twisted`, whose one other caller, `shen_act`
on the full A ⊗ Ω, is the loop checks' independent reference; on Ȧ
direction 0 is the algebra summand, which `derive_mono` does not
differentiate.  Composites add each summand into one output with
`Sparse._iadd`, in the term order that sums of containers would give:
term order reaches `Echelon`'s pivot choice and the reports.

Every module here is one over the smash product A # (C ⊕ Der A), and one
kernel, `_smash_act`, applies smash terms to a t_0 slice of a list of
vectors through the structure: `loop_smash_act`, `loop_g_act` (1 # u)
and `loop_a_act` (f # 1) slice by slice on the loop module
C[t_0^{±1}] ⊗ (Ȧ ⊗ Ω), stored flat as the full A ⊗ Ω
(`vectorfields.t0_slices`, `_t0_iadd`) so that a check compares them
with `shen_act` and `left_mul`, and the centralizer action `t_act` of a
generator-coefficient dict {(r̄, J, ∂): c} at t_0-degree zero, generator
by generator on the terms of `smash.make_X`.  Also here: the seven
compatibility axioms, the joint kernel of the odd derivation actions,
built without a solve, the induced gl-representation on it, and the
comparison map θ sending a ⊗ ω to the algebra action of a on ω, read off
a table of ζ_M·u_j built once per kernel basis.
"""

from __future__ import annotations

from functools import lru_cache
from operator import add

from . import linalg
from .glmodules import GlModule, MuVector
from .scalars import ONE, ZERO, Scalar
from .smash import SmashElement, _x_terms
from .superpoly import (
    Signature,
    Sparse,
    SuperPoly,
    derive_mono,
    mask_size,
    merge_masks,
    mono_mul,
)
from .vectorfields import (
    QPElement,
    VectorField,
    _t0_iadd,
    qp_bracket,
    qp_product,
    t0_slices,
)


class TensorVec(Sparse):
    """Sparse element of (algebra) ⊗ Ω, keyed by (exps, mask, module index)."""

    __slots__ = ()

    @staticmethod
    def _key_parity(key, parities) -> int:
        return (mask_size(key[1]) + parities[key[2]]) & 1

    @staticmethod
    def _entry(sig: Signature, key, c):
        exps, mask, idx = key
        sig.check_mono(exps, mask)
        if type(idx) is not int or idx < 0:
            raise ValueError(f"module index {idx!r} is not a natural number")
        return key, Scalar.of(c)

    @staticmethod
    def basis(sig: Signature, exps, mask: int, idx: int, coeff=1) -> "TensorVec":
        return TensorVec._one_term(sig, (tuple(exps), mask, idx), coeff)

    def __repr__(self):
        from .parser import format_tensor

        return f"<TensorVec {format_tensor(self)}>"


# ---------- the structure triple ----------

class QPStructure:
    """Module Ω, shift vector μ̄, and the actions φ, ψ, φ̂ on Ȧ ⊗ Ω.  ψ and
    φ̂ act on a list of vectors by parts (α, e, M, c), one per term
    c·t^e ζ_M·∂_α (`psi_parts`, `phihat_parts`), and on one vector by an
    element (`psi`, `phihat`); a subclass that overrides the list methods
    changes every action built on them."""

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
        return self.psi_parts(_alpha_parts(self.sig, x), (w,))[0]

    def phihat(self, x, w: TensorVec) -> TensorVec:
        return self.phihat_parts(_alpha_parts(self.sig, x), (w,))[0]

    def psi_parts(self, parts, vectors) -> list[TensorVec]:
        _check_sigs(self.sig, vectors)
        return _twisted(self.sig, self.mu, self.omega, parts, vectors)

    def phihat_parts(self, parts, vectors) -> list[TensorVec]:
        """With a = c·t^e ζ_M, each term b ⊗ v of each vector goes to
        -(-1)^{|b||α|} a·b ⊗ E_{0α} v; a part's column E_{0α} is looked up
        once for all the vectors."""
        sig = self.sig
        _check_sigs(sig, vectors)
        columns = self.omega.columns
        outs = [TensorVec._trusted(sig, {}) for _ in vectors]
        for alpha, ae, am, ca in parts:
            p_alpha = sig.dir_parity(alpha)
            cols = columns[0, alpha]
            for w, out in zip(vectors, outs):
                for (be, bm, idx), cw in w.terms.items():
                    col = cols[idx]  # E_{0α} v, often 0
                    if not col:
                        continue
                    sign, e2, m2 = mono_mul(ae, am, be, bm)
                    if not sign:
                        continue
                    if not (bm.bit_count() & 1 and p_alpha):
                        sign = -sign
                    c2 = (cw if ca is ONE else ca * cw) * sign
                    for u, cu in col:
                        out._iadd_term((e2, m2, u), c2 if cu is ONE else c2 * cu)
        return outs


def _check_sigs(sig: Signature, vectors) -> None:
    """Refuse (ValueError) a vector over another signature; `Signature` is
    interned, so identity is equality."""
    for w in vectors:
        if w.sig is not sig:
            raise ValueError("signature mismatch")


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
             vectors) -> list[TensorVec]:
    """Twisted action of Σ c·t^e ζ_M·∂_α over the parts (α, e, M, c), one
    image per vector of ``vectors``: with a = c·t^e ζ_M, each term b ⊗ v
    of w goes to a·(∂_α b + μ_α b) ⊗ v + Σ_β (-1)^{|β| + (|a|+|b|)|β| +
    |b||α|} ∂_β(a)·b ⊗ E_{βα} v.  Without t_0, ∂_0 is the algebra
    summand's ('d', 0), which `derive_mono` makes 0.  A part's fixed work
    (μ_α, the derivatives ∂_β(a) and their columns E_{βα}) is done once for
    all the vectors, and each image gets its terms in the order a
    one-vector call gives."""
    table = _directions(sig)
    columns = omega.columns
    outs = [TensorVec._trusted(sig, {}) for _ in vectors]
    for alpha, ae, am, ca in parts:
        p_alpha, tag = table[alpha]
        pa = am.bit_count() & 1
        mu_a = mu[alpha]
        dparts = [(p_beta, f, e, mask, columns[beta, alpha])
                  for beta, p_beta, f, e, mask in _derivatives(sig, ae, am)]
        for w, out in zip(vectors, outs):
            for (be, bm, idx), cw in w.terms.items():
                coef = cw if ca is ONE else ca * cw
                pb = bm.bit_count() & 1
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
                for p_beta, f, e, mask, cols in dparts:
                    col = cols[idx]  # E_{βα} v, often 0
                    if not col:
                        continue
                    sign, e2, m2 = mono_mul(e, mask, be, bm)
                    if not sign:
                        continue
                    if ((pab & p_beta) + p_beta + (pb & p_alpha)) & 1:
                        sign = -sign
                    c2 = coef * (f * sign)
                    for u, cu in col:
                        out._iadd_term((e2, m2, u), c2 if cu is ONE else c2 * cu)
    return outs


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
    return _twisted(sig, mu, omega, parts, (w,))[0]


# ---------- the smash-term action ----------

def _smash_act(terms, vectors, S: QPStructure, k: int) -> dict:
    """The smash terms ((r̄, I, s̄, J, ∂), c) on the t_0 slice k of the loop
    module, for each dotted vector v of ``vectors``:

    (t^{r̄}ζ_I # t^{s̄}ζ_J ∂) ∗ (t_0^k ⊗ v) = t_0^{r_0+s_0+k} ⊗
       φ_{t^{r̄'}ζ_I}( ψ_{t^{s̄'}ζ_J∂} v - s_0 φ_{t^{s̄'}ζ_J} φ̂_∂ v
                       + k·[∂ = t_0-Euler]·φ_{t^{s̄'}ζ_J} v ),

    and a unit term (∂ None) by φ_{t^{r̄'}ζ_I} alone.  Returns {t_0 shift:
    [a fresh image per vector]}.  ψ and φ̂ come from the structure's list
    methods, φ̂_∂ once per ∂, and summands go in by `Sparse._iadd`, in the
    term order of the formula's chain."""
    sig = S.sig
    z = sig.zero_exps()
    images, hats = {}, {}  # hats: α -> [φ̂_∂ v for each v]
    for (ae, am, be, bm, tag), c in terms:
        shift = ae[0] + be[0] + k
        outs = images.get(shift)
        if outs is None:
            outs = images[shift] = [TensorVec._trusted(sig, {}) for _ in vectors]
        if tag is None:
            inners = vectors
        else:
            alpha, s0, b = sig.dir_of(tag), be[0], (be[1:], bm)
            inners = S.psi_parts(((alpha, b[0], bm, ONE),), vectors)
            if s0:
                if alpha not in hats:
                    hats[alpha] = S.phihat_parts(((alpha, z, 0, ONE),), vectors)
                minus_s0 = Scalar(-s0)
                for inner, hat in zip(inners, hats[alpha]):
                    if hat.terms:  # often empty: E_{0α} kills most of Ω
                        inner._iadd(hat, minus_s0, b)
            if k and alpha == 0:
                for inner, v in zip(inners, vectors):
                    inner._iadd(v, Scalar(k), b)
        a = ae[1:]
        a = (a, am) if am or a != z else None  # a unit a-side multiplies by nothing
        for out, inner in zip(outs, inners):
            if inner.terms:
                out._iadd(inner, c, a)
    return images


def loop_smash_act(u: SmashElement, w: TensorVec, S: QPStructure) -> TensorVec:
    """Action of A # (C ⊕ Der A) on the loop module C[t_0^{±1}] ⊗ (Ȧ ⊗ Ω),
    stored as the full A ⊗ Ω: each t_0 slice of w by `_smash_act`, each
    image added back at its t_0 shift."""
    if u.sig != w.sig or u.sig.dotted() != S.sig:
        raise ValueError("signature mismatch")
    out = TensorVec.zero(w.sig)
    for k, v in t0_slices(w).items():
        for shift, (image,) in _smash_act(u.terms.items(), (v,), S, k).items():
            _t0_iadd(out, shift, image)
    return out


def loop_g_act(u: VectorField, w: TensorVec, S: QPStructure) -> TensorVec:
    """The loop algebra (stored as Der(A), see `vectorfields.loop_bracket`)
    on the loop module, as 1 # u: on the t_0 slices, (t_0^r ⊗ x)·(t_0^s ⊗ ω)
    = t_0^{r+s} ⊗ (ψ_x ω - r φ̂_x ω + s φ_{π(x)} ω)."""
    return loop_smash_act(SmashElement.from_field(u), w, S)


def loop_a_act(f: SuperPoly, w: TensorVec, S: QPStructure) -> TensorVec:
    """The algebra on the loop module, as f # 1: (t_0^r ⊗ a)·(t_0^s ⊗ ω) =
    t_0^{r+s} ⊗ φ_a(ω)."""
    return loop_smash_act(SmashElement.from_poly(f), w, S)


def t_act(gens: dict, vectors, S: QPStructure) -> list[TensorVec]:
    """Action of the centralizer combination {(r̄, J, ∂): c}, each ∂ an
    Euler or odd tag, at t_0-degree zero on each vector of ``vectors``:
    generator by generator, the terms of `smash.make_X`, whose t_0 shifts
    are all 0, by `_smash_act` at k = 0, each image added times c."""
    sig = S.sig
    full = sig.full()
    _check_sigs(sig, vectors)
    outs = [TensorVec.zero(sig) for _ in vectors]
    for (rbar, jmask, tag), c in gens.items():
        c = Scalar.of(c)
        images = _smash_act(_x_terms(full, rbar, jmask, tag), vectors, S, 0)
        for out, image in zip(outs, images.get(0, ())):
            if image.terms:
                out._iadd(image, c)
    return outs


# ---------- the kernel of the odd actions and the induced gl-module ----------

def _odd_units(sig: Signature) -> list:
    """The parts of ψ_{∂_k} for k = 1..n: one odd direction, coefficient 1."""
    z = sig.zero_exps()
    return [((sig.dir_of(("q", k)), z, 0, ONE),) for k in range(1, sig.n + 1)]


def _solve_in(basis: list[TensorVec], targets: list[TensorVec], error: str) -> list:
    """Coordinates ``{i: c}`` of each target in the span of ``basis``
    (unique when the basis is independent), from one reduction, or by
    lookup when the basis is one-term vectors (`linalg.solve_columns`);
    raise ValueError(error) if a target lies outside the span."""
    sols = linalg.solve_columns([v.terms for v in basis], [t.terms for t in targets])
    if any(sol is None for sol in sols):
        raise ValueError(error)
    return sols


def omega_extract(basis: list[TensorVec], S: QPStructure) -> list[TensorVec]:
    """Basis of the joint kernel of the odd derivation actions on a span,
    by a solve and a nullspace; the oracle for `omega_kernel`.

    The span must be invariant under every ψ_{∂_k}; the result is split
    into parity-homogeneous vectors.
    """
    if not basis:
        return []
    images = []
    for dk in _odd_units(S.sig):
        images.extend(S.psi_parts(dk, basis))
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
    psis = _odd_units(S.sig)
    best = u
    for mask in sorted(range(1 << S.sig.n), key=mask_size, reverse=True):
        vec = u
        for k in range(1, S.sig.n + 1):
            if mask & (1 << (k - 1)):
                vec, = S.psi_parts(psis[k - 1], (vec,))
                if vec.is_zero():
                    break
        if not vec.is_zero():
            best = vec
            break
    return best


def omega_kernel(S: QPStructure) -> list[TensorVec]:
    """Basis of Ω inside Ȧ ⊗ Ω: the joint kernel K of the odd derivation
    actions ψ_{∂_k} on the t-degree-zero slice, one vector per e_j,
    `omega_greedy` of ζ_top ⊗ e_j.  No solve is needed.

    Why they span K: when μ's odd slots are 0, ∂_β(1) = 0 removes the
    Σ_β term of `_twisted`, so ψ_{∂_k} = ∂_k ⊗ id.  Let v ∈ K be nonzero,
    with v_d its part of lowest ζ-degree d.  The ζ-degree d - 1 part of
    ψ_{∂_k} v is ∂_k v_d, so every ∂_k kills v_d; as Σ_k ζ_k ∂_k is d on
    ζ-degree d, that forces d = 0.  So v ↦ (ζ^0 part of v) is injective on
    K, and dim K ≤ dim Ω.  (The argument needs only that ψ_{∂_k} − ∂_k ⊗ id
    never lowers the ζ-degree; the tests check that filtration property.)

    Checked here, on all the results at once: every result is killed by
    every ψ_{∂_k}, and their ζ^0 parts are independent (`linalg.rank` of
    them is dim Ω, with no elimination when their supports are disjoint,
    as at the suites' μ), so the results are dim Ω independent vectors of
    K and span it.  If either check fails the result is [], which every
    check over the kernel refuses.
    """
    sig = S.sig
    z = sig.zero_exps()
    top = (1 << sig.n) - 1
    out = [omega_greedy(TensorVec.basis(sig, z, top, j), S) for j in range(S.omega.dim)]
    if any(image for dk in _odd_units(sig) for image in S.psi_parts(dk, out)):
        return []
    parts = [{key: c for key, c in v.terms.items() if not key[1]} for v in out]
    return out if linalg.rank(parts) == len(out) else []


def _eigen_scalar(v: TensorVec, image: TensorVec) -> Scalar:
    """λ with image = λ·v, or raise when v is not an eigenvector.  The two
    are compared term by term, without building λ·v: for λ = 0 the image
    is empty, else it has v's keys, each with λ times v's coefficient."""
    terms = image.terms
    key = next(iter(v.terms))
    lam = terms.get(key, ZERO) / v.terms[key]
    if lam:
        ok = len(terms) == len(v.terms) and all(
            terms.get(k) == lam * c for k, c in v.terms.items())
    else:
        ok = not terms
    if not ok:
        raise ValueError("vector is not an eigenvector")
    return lam


def rho_of(S: QPStructure, omega_basis: list[TensorVec]) -> MuVector:
    """Shift vector read off the unit/Euler eigenvalues on the kernel."""
    weights = {tprime_weight(S, v) for v in omega_basis}
    if len(weights) != 1:
        raise ValueError("kernel is not a single weight slice")
    return MuVector(S.sig.m, S.sig.n, [*weights.pop()] + [Scalar(0)] * S.sig.n)


def phi_images(S: QPStructure, vectors: list[TensorVec]) -> dict:
    """The induced gl-action operators φ_ab on each vector: ``{(a, b):
    [φ_ab(v_0), ...]}``.  ψ_{-∂_b} acts on the whole list once per b, shared
    by every a; then each φ_ab acts on the whole list:

        φ_0b = φ̂_{-∂_b},
        φ_ab = t_i^{-1}·ψ_{t_i ∂_b} + ψ_{-∂_b}   (a the t_i-Euler direction),
        φ_ab = ψ_{ζ_i ∂_b} + ζ_i·ψ_{-∂_b}        (a the ζ_i direction),

    each sum added into a container of its own."""
    sig = S.sig
    dirs = sig.directions()
    z = sig.zero_exps()
    minus = Scalar(-1)
    bases = {b: S.psi_parts(((b, z, 0, minus),), vectors) for b in dirs}
    images = {}
    for a in dirs:
        kind, i = sig.dir_tag(a)
        if kind == "d" and i:
            p = sig.tpos(i)
            ti, tinv = z[:p] + (1,) + z[p + 1:], (z[:p] + (-1,) + z[p + 1:], 0)
        for b in dirs:
            if a == 0:
                outs = S.phihat_parts(((b, z, 0, minus),), vectors)
            elif kind == "d":
                outs = [TensorVec._trusted(sig, {}) for _ in vectors]
                lifted = S.psi_parts(((b, ti, 0, ONE),), vectors)
                for out, image, base in zip(outs, lifted, bases[b]):
                    out._iadd(image, ONE, tinv)
                    out._iadd(base)
            else:
                zi = 1 << (i - 1)
                outs = S.psi_parts(((b, z, zi, ONE),), vectors)
                for out, base in zip(outs, bases[b]):
                    out._iadd(base, ONE, (z, zi))
            images[a, b] = outs
    return images


def induced_gl_module(S: QPStructure, omega_basis: list[TensorVec],
                      images: dict) -> GlModule:
    """The kernel basis as an explicit gl(m+1, n)-module.  ``images`` are
    `phi_images(S, omega_basis)`; every image is solved in one reduction
    of the basis (a lookup on the unit vectors 1 ⊗ e_j), whose
    coordinates are unique because the basis is independent."""
    sig = S.sig
    parities = []
    for v in omega_basis:
        p = v.parity(S.omega.parities)
        if p is None:
            raise ValueError("kernel basis must be parity-homogeneous")
        parities.append(p)
    cols = iter(_solve_in(
        omega_basis, [w for ws in images.values() for w in ws],
        "operator does not preserve the extracted kernel",
    ))
    columns = {ab: [sorted(next(cols).items()) for _ in ws]
               for ab, ws in images.items()}
    return GlModule(sig.m, sig.n, len(omega_basis), parities, columns)


def theta_table(sig: Signature, omega_basis: list[TensorVec]) -> tuple:
    """θ's fixed work, done once per kernel basis: ``table[M][j]`` holds
    the terms of ζ_M·u_j, u_j the j-th kernel vector, as (shift, mask,
    label, ±c) in u_j's term order, with `merge_masks`' sign in the
    coefficient and the terms whose ζ's repeat dropped.  ``shift`` is the
    term's t-exponents, None when they are 0."""
    z = sig.zero_exps()
    table = []
    for ma in range(1 << sig.n):
        rows = []
        for u in omega_basis:
            row = []
            for (eu, mu, label), cu in u.terms.items():
                sign, mask = merge_masks(ma, mu)
                if sign:
                    row.append((None if eu == z else eu, mask, label,
                                cu if sign > 0 else -cu))
            rows.append(tuple(row))
        table.append(tuple(rows))
    return tuple(table)


def theta_transport(vectors, table: tuple) -> list[dict]:
    """The comparison map θ on term maps {(exps, mask, j): c} of the
    rebuilt module, one image per map of ``vectors``: each c·t^e ζ_M ⊗ e_j
    goes to c·t^e ζ_M·u_j, read off ``table`` (`theta_table`) as one
    exponent shift per term of ζ_M·u_j.  The images are term maps of
    Ȧ ⊗ Ω; their inserts and cancellations are those of `Sparse._iadd`,
    in the order that adding c·t^e ζ_M·u_j term by term gives."""
    outs = []
    for w in vectors:
        out = {}
        for (e, ma, j), c in w.items():
            for shift, mask, label, cu in table[ma][j]:
                key = (e if shift is None else tuple(map(add, e, shift)), mask, label)
                cc = cu if c is ONE else c * cu
                cur = out.get(key)
                if cur is None:
                    if cc:
                        out[key] = cc
                else:
                    cc = cur + cc
                    if cc:
                        out[key] = cc
                    else:
                        del out[key]
        outs.append(out)
    return outs


def tprime_weight(S: QPStructure, w: TensorVec) -> tuple:
    """Eigenvalues on an eigenvector of ψ along directions 0..m: the unit
    and the Euler derivations.  ValueError for the zero vector or a
    vector that is no eigenvector."""
    if w.is_zero():
        raise ValueError("the zero vector has no weight")
    z = S.sig.zero_exps()
    return tuple(_eigen_scalar(w, S.psi_parts(((i, z, 0, ONE),), (w,))[0])
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

    @lru_cache(maxsize=None)
    def psi_1():  # ψ_1(w), built at most once per call
        return S.psi(unit, w)

    if which == 1:
        pa, pb = _hom_parity(a), _hom_parity(b)
        lhs = psi_poly(a * b)
        rhs = (
            -S.phi(a * b, psi_1())
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
            inner = S.phi(tjinv, psi_poly(tj)) - psi_1()
            rhs = rhs + S.phi(a * rj, inner)
        return lhs, rhs
    if which == 4:
        zi = SuperPoly.monomial(sig, sig.zero_exps(), imask)
        lhs = psi_poly(zi)
        rhs = S.phi(zi, psi_1())
        sign = (-1) ** mask_size(imask)
        for p in range(1, sig.n + 1):
            dz = zi.derive(("q", p))
            if dz.is_zero():
                continue
            zp = SuperPoly.zeta(sig, p)
            inner = -psi_poly(zp) + S.phi(zp, psi_1())
            rhs = rhs + sign * S.phi(dz, inner)
        return lhs, rhs
    if which == 5:
        pa = _hom_parity(a)
        lhs = S.psi(qp_product(QPElement.from_poly(a), x), w)
        psi_x = S.psi(x, w)
        rhs = S.phi(a, psi_x)
        for p in range(1, sig.n + 1):
            da = a.derive(("q", p))
            if da.is_zero():
                continue
            zp = SuperPoly.zeta(sig, p)
            inner = S.psi(qp_product(QPElement.from_poly(zp), x), w) - S.phi(zp, psi_x)
            rhs = rhs + (-1) ** (pa + 1) * S.phi(da, inner)
        for j in range(1, sig.m + 1):
            da = a.derive(("d", j))
            if da.is_zero():
                continue
            tj = SuperPoly.t_var(sig, j)
            tjinv = SuperPoly.t_var(sig, j, -1)
            inner = S.phi(
                tjinv, S.psi(qp_product(QPElement.from_poly(tj), x), w)
            ) - psi_x
            rhs = rhs + S.phi(da, inner)
        return lhs, rhs
    raise ValueError("identities are numbered 1..5")
