import copy
import inspect
import random
from fractions import Fraction

import pytest

from rinehart import tensorqp
from rinehart.glmodules import MuVector, natural_module, rep_check
from rinehart.sampling import Sampler
from rinehart.scalars import Scalar
from rinehart.smash import SmashElement, psi_map, tau, theta_project
from rinehart.suites import admissible_mus
from rinehart.superpoly import Signature, SuperPoly, mask_size, subsets_of_mask
from rinehart.tensorqp import (
    LoopTensor,
    QPStructure,
    TensorVec,
    degree_zero_basis,
    full_to_loop,
    induced_gl_module,
    operator_identity_check,
    loop_a_act,
    loop_g_act,
    loop_smash_act,
    loop_to_full,
    omega_extract,
    omega_greedy,
    phi_operator,
    qp_axiom_check,
    qp_axiom_suite,
    rho_of,
    shen_act,
    t_act,
    t_act_gens,
    theta_transport,
    tprime_weight,
)
from rinehart.vectorfields import QPElement, VectorField


def unit_vec(sig, idx, coeff=1):
    return TensorVec.basis(sig, sig.zero_exps(), 0, idx, coeff)


# ---------- the twisted action on the full module ----------

def test_shen_act_examples(sig11):
    sig = sig11
    omega = natural_module(1, 1)
    mu = MuVector.zero(1, 1)
    # f = 1: pure derivation part
    g = SuperPoly.monomial(sig, (2, 1), 0)
    w = TensorVec.basis(sig, (2, 1), 0, 0)
    got = shen_act(SuperPoly.one(sig), 0, w, mu, omega)
    assert got == w * 2  # d0 eigenvalue of t0^2 t1

    # f = t0, alpha = 0 on 1⊗e0: t0 ⊗ E_{0,0}e0
    got = shen_act(SuperPoly.t_var(sig, 0), 0, unit_vec(sig, 0), mu, omega)
    assert got == TensorVec.basis(sig, (1, 0), 0, 0)

    assert shen_act(
        SuperPoly.t_var(sig, 0), 0, TensorVec.zero(sig), mu, omega
    ).is_zero()

    # nonzero shift vector contributes mu(alpha) g ⊗ v
    mu2 = MuVector(1, 1, (Scalar(3), Scalar(0), Scalar(0)))
    got = shen_act(SuperPoly.one(sig), 0, unit_vec(sig, 1), mu2, omega)
    assert got == unit_vec(sig, 1, 3)


def _twisted_reference(f, alpha, w, mu, omega):
    """f·∂_α acting on w, written with SuperPoly products and derivations:
    f·(∂_α g + μ_α g) ⊗ v + Σ_β (-1)^{|β| + (|f|+|g|)|β| + |g||α|}
    ∂_β(f)·g ⊗ E_{βα} v for each term g ⊗ v, an inhomogeneous f split
    into its even and odd parts.  On the dotted signature direction 0 is
    the algebra summand: it neither differentiates g nor is a β."""
    sig = f.sig
    if f.parity() is None and not f.is_zero():
        fe, fo = f.even_odd()
        return (_twisted_reference(fe, alpha, w, mu, omega)
                + _twisted_reference(fo, alpha, w, mu, omega))
    first = 0 if sig.includes_t0 else 1
    p_alpha = sig.dir_parity(alpha)
    out = TensorVec.zero(sig)
    for (ge, gm, idx), cw in w.terms.items():
        g = SuperPoly.monomial(sig, ge, gm)
        pg = mask_size(gm) & 1
        inner = g * mu[alpha]
        if alpha >= first:
            inner = g.derive(sig.dir_tag(alpha)) + inner
        for (e, m), c in (f * inner).terms.items():
            out += TensorVec.basis(sig, e, m, idx, cw * c)
        for beta in range(first, sig.m + sig.n + 1):
            df = f.derive(sig.dir_tag(beta))
            if df.is_zero():
                continue
            p_beta = sig.dir_parity(beta)
            s = (-1) ** (p_beta + ((f.parity() + pg) & p_beta) + (pg & p_alpha))
            for u, cu in omega.column(beta, alpha, idx):
                for (e, m), c in (df * g).terms.items():
                    out += TensorVec.basis(sig, e, m, u, cw * c * cu * s)
    return out


@pytest.mark.parametrize("m,n", [(1, 1), (1, 2), (2, 1), (2, 2), (2, 3)])
def test_twisted_action_matches_the_superpoly_formula(m, n):
    """shen_act on A ⊗ Ω and ψ on Ȧ ⊗ Ω agree with the formula written out
    above, on inhomogeneous f and w, for every direction α and the
    non-real admissible shift vector."""
    omega = natural_module(m, n)
    _, mu = admissible_mus(m, n)
    full = Signature(m, n)
    S = QPStructure(full.dotted(), omega, mu)
    s = Sampler(random.Random(100 * m + n), deg=2)
    mixed = 0
    for sig in (full, S.sig):
        for alpha in sig.directions():
            for _ in range(4):
                f = s.poly(sig, terms=3)
                w = s.tensor(sig, omega) + s.tensor(sig, omega) + s.tensor(sig, omega)
                mixed += f.parity() is None and w.parity(omega.parities) is None
                want = _twisted_reference(f, alpha, w, mu, omega)
                if sig.includes_t0:
                    got = shen_act(f, alpha, w, mu, omega)
                else:
                    got = S.psi(QPElement.along(f, sig.dir_tag(alpha)), w)
                assert got == want, (sig, alpha, f, w)
    assert mixed


def _times_e0(p):
    """p ⊗ e_0 for a one-dimensional Ω."""
    return TensorVec(p.sig, {(e, mask, 0): c for (e, mask), c in p.terms.items()})


@pytest.mark.parametrize("m,n", [(1, 1), (1, 2), (2, 3)])
def test_shen_act_on_functions_is_f_times_the_shifted_derivative(m, n):
    """Functions and densities: for the trivial 1-dim Ω, f·∂_α acts on
    A ⊗ Ω as b ⊗ e_0 ↦ f·(∂_α b + μ_α b) ⊗ e_0.  The expected value is
    written with `derive` and `*`, not through the twisted-action kernel,
    for every direction α and the non-real admissible μ."""
    from conftest import zero_action_module

    sig = Signature(m, n)
    omega = zero_action_module(m, n, 1)
    _, mu = admissible_mus(m, n)
    assert any(v.im for v in mu.values)
    s = Sampler(random.Random(7 * m + n), deg=2)
    for alpha in sig.directions():
        for _ in range(5):
            f = s.poly(sig, terms=3)
            b = s.poly(sig, terms=3)
            image = f * (b.derive(sig.dir_tag(alpha)) + b * mu[alpha])
            assert shen_act(f, alpha, _times_e0(b), mu, omega) == _times_e0(image), (
                alpha, f, b)


# ---------- the structure triple ----------

def test_qp_apply_examples(structure12):
    S = structure12
    dot = S.sig
    v = unit_vec(dot, 1)
    # auxiliary action feeds the 0-th row: phihat_{d_1}(1⊗e_1) = -1⊗E_{0,1}e_1
    got = S.phihat(VectorField.basis(dot, ("d", 1)), v)
    assert got == unit_vec(dot, 0, -1)
    # odd derivations kill the unit slice when the odd shifts vanish
    got = S.psi(VectorField.basis(dot, ("q", 1)), unit_vec(dot, 0))
    assert got.is_zero()
    z1 = SuperPoly.zeta(dot, 1)
    got = S.phi(z1, TensorVec.basis(dot, dot.zero_exps(), 0b1, 0))
    assert got.is_zero()


def test_qp_axioms_all_pass(structure12, sampler):
    report = qp_axiom_suite(structure12, sampler, 40)
    assert all(report[a]["pass"] for a in range(1, 8)), report


def test_qp_axioms_zero_module():
    from conftest import zero_action_module

    dot = Signature(1, 1, False)
    zero = QPStructure(dot, zero_action_module(1, 1, 0), MuVector.zero(1, 1))
    s = Sampler(random.Random(4), 2)
    report = qp_axiom_suite(zero, s, 10)
    assert all(report[a]["pass"] for a in range(1, 8))


def test_mutation_breaks_axiom_six(structure12):
    from rinehart.suites import _NoPhihat

    S = _NoPhihat(structure12.sig, structure12.omega, structure12.mu)
    dot = S.sig
    x = QPElement.from_field(VectorField.basis(dot, ("d", 1)))
    y = QPElement.from_poly(SuperPoly.t_var(dot, 1))
    lhs, rhs = qp_axiom_check(S, 6, x=x, y=y, w=unit_vec(dot, 1))
    assert lhs != rhs
    # the other axioms survive the mutation
    s = Sampler(random.Random(11), 2)
    report = qp_axiom_suite(S, s, 25)
    for a in (1, 2, 3, 4, 5, 7):
        assert report[a]["pass"], (a, report[a])


# ---------- loop module ----------

def test_loop_smash_act_examples(structure12, sampler):
    S = structure12
    dot = S.sig
    full = dot.full()
    one_qp = QPElement.from_poly(SuperPoly.one(dot))

    # generators with opposite unit-direction exponents act by -phihat
    for tag in (("d", 0), ("d", 1), ("q", 1), ("q", 2)):
        from rinehart.smash import make_X

        x = make_X(full, (1, 0), 0, tag)
        u = sampler.tensor(dot, S.omega)
        got = loop_smash_act(x, LoopTensor.wrap(0, u), S)
        hat = one_qp if tag == ("d", 0) else QPElement.from_field(
            VectorField.basis(dot, tag)
        )
        assert got == LoopTensor.wrap(0, -S.phihat(hat, u))

    # (1 # d0) ∗ (t0 ⊗ u) = t0 ⊗ (psi_1(u) + phi_1(u))
    u = sampler.tensor(dot, S.omega)
    got = loop_smash_act(
        SmashElement.from_field(VectorField.basis(full, ("d", 0))),
        LoopTensor.wrap(1, u),
        S,
    )
    assert got == LoopTensor.wrap(1, S.psi(one_qp, u) + u)

    # algebra terms multiply through the algebra action
    a = SuperPoly.monomial(full, (2, -1), 0b1)
    w = LoopTensor.wrap(3, u)
    assert loop_smash_act(SmashElement.from_poly(a), w, S) == loop_a_act(a, w, S)


def test_loop_module_law_and_leibniz(structure12, sampler):
    S = structure12
    dot = S.sig
    full = dot.full()
    for _ in range(60):
        x, y = sampler.loop_qp(dot), sampler.loop_qp(dot)
        w = sampler.loop_tensor(dot, S.omega)
        sign = (-1) ** (x.parity() * y.parity())
        from rinehart.vectorfields import loop_apply_to_poly, loop_bracket

        assert loop_g_act(loop_bracket(x, y), w, S) == loop_g_act(
            x, loop_g_act(y, w, S), S
        ) - sign * loop_g_act(y, loop_g_act(x, w, S), S)

        a = sampler.monomial(full)
        sign = (-1) ** (x.parity() * a.parity())
        lhs = loop_g_act(x, loop_a_act(a, w, S), S)
        rhs = loop_a_act(loop_apply_to_poly(x, a), w, S) + sign * loop_a_act(
            a, loop_g_act(x, w, S), S
        )
        assert lhs == rhs


def test_full_module_matches_loop_module(structure12, sampler):
    """The identification t0^k t^r ζ ⊗ v ↔ t0^k ⊗ (t^r ζ ⊗ v) intertwines
    the twisted action with the loop action."""
    S = structure12
    full = S.sig.full()
    from rinehart.suites import _loop_g_for

    for _ in range(60):
        f = sampler.monomial(full, coeff=False)
        alpha = sampler.rng.randrange(full.m + full.n + 1)
        w = sampler.tensor(full, S.omega)
        direct = shen_act(f, alpha, w, S.mu, S.omega)
        looped = loop_g_act(_loop_g_for(f, alpha), full_to_loop(w), S)
        assert full_to_loop(direct) == looped
        assert loop_to_full(looped) == direct


def test_loop_smash_act_factors(structure12, sampler):
    """a # b∂ acts as (algebra action of a) ∘ (derivation action of b∂);
    the one-line action formula must agree with the two-step route."""
    from rinehart.vectorfields import LoopElement

    S = structure12
    dot = S.sig
    full = dot.full()
    for _ in range(60):
        ae, am = sampler.exps(full), sampler.mask(full.n)
        be, bm = sampler.exps(full), sampler.mask(full.n)
        tag = sampler.tag(full)
        u = SmashElement.a_tensor(full, ae, am, be, bm, tag)
        w = sampler.loop_tensor(dot, S.omega)
        bpoly = SuperPoly.monomial(dot, be[1:], bm)
        if tag == ("d", 0):
            qp = QPElement.from_poly(bpoly)
        else:
            qp = QPElement.from_field(VectorField.from_poly_tag(bpoly, tag))
        via_g = loop_g_act(LoopElement.wrap(be[0], qp), w, S)
        want = loop_a_act(SuperPoly.monomial(full, ae, am), via_g, S)
        assert loop_smash_act(u, w, S) == want


def test_t_act_is_degree_zero_slice(structure12, sampler):
    from rinehart.smash import make_X

    S = structure12
    dot = S.sig
    full = dot.full()
    for _ in range(60):
        gen = sampler.x_generator(full)
        v = sampler.tensor(dot, S.omega)
        looped = loop_smash_act(make_X(full, *gen), LoopTensor.wrap(0, v), S)
        assert set(looped.terms) <= {0}
        assert t_act(*gen, v, S) == looped.terms.get(0, TensorVec.zero(dot))


# ---------- generator action at t0-degree zero ----------

def test_t_act_examples(structure12):
    S = structure12
    dot = S.sig
    # ((1,0,...), ∅, d_1) acts as -phihat_{d_1}: on 1⊗e_1 gives 1⊗E_{0,1}e_1
    got = t_act((1, 0), 0, ("d", 1), unit_vec(dot, 1), S)
    assert got == unit_vec(dot, 0)
    # ((0,...), {k}, Q_l) realizes the odd elementary matrices
    for k in (1, 2):
        for l in (1, 2):
            for v in range(S.omega.dim):
                got = t_act((0, 0), 1 << (k - 1), ("q", l), unit_vec(dot, v), S)
                want = TensorVec.zero(dot)
                for u, cu in S.omega.column(1 + k, 1 + l, v):
                    want._iadd_term((dot.zero_exps(), 0, u), cu)
                assert got == want
    assert t_act((1, 0), 0b1, ("d", 0), TensorVec.zero(dot), S).is_zero()


def _t_act_reference(rbar, jmask, tag, u, S):
    """t_act built from SuperPoly and QPElement operators and the public
    ψ, φ and φ̂ of the structure."""
    r0, rp = rbar[0], tuple(rbar[1:])
    neg = tuple(-x for x in rp)
    hat = QPElement.along(SuperPoly.one(S.sig), tag)
    out = TensorVec.zero(S.sig)
    for jp in subsets_of_mask(jmask):
        rest = jmask ^ jp
        sign = -1 if (mask_size(jp) + tau(jp, rest)) & 1 else 1
        sub = SuperPoly.monomial(S.sig, rp, rest)
        inner = S.psi(QPElement.along(sub, tag), u)
        if r0:
            inner = inner - r0 * S.phi(sub, S.phihat(hat, u))
        out += S.phi(SuperPoly.monomial(S.sig, neg, jp), inner) * sign
    if jmask == 0:
        out -= S.psi(hat, u)
    return out


def _phi_operator_reference(alpha, beta, S):
    """phi_operator built the same way."""
    sig = S.sig
    tag = sig.dir_tag(beta)
    unit = QPElement.along(SuperPoly.one(sig), tag)
    if alpha == 0:
        return lambda w: -S.phihat(unit, w)
    kind, i = sig.dir_tag(alpha)
    if kind == "d":
        tinv = SuperPoly.t_var(sig, i, -1)
        sub = QPElement.along(SuperPoly.t_var(sig, i), tag)
        return lambda w: S.phi(tinv, S.psi(sub, w)) - S.psi(unit, w)
    zk = SuperPoly.zeta(sig, i)
    sub = QPElement.along(zk, tag)
    return lambda w: S.psi(sub, w) - S.phi(zk, S.psi(unit, w))


def _t_act_chain(rbar, jmask, tag, u, S):
    """t_act as a chain of containers: every summand built by `+`, `+=`
    and `left_mul_terms`.  Its term order is the one t_act must keep,
    since term order reaches Echelon's pivot choice and the reports."""
    sig = S.sig
    alpha = sig.dir_of(tag)
    r0, rp = rbar[0], tuple(rbar[1:])
    neg = tuple(-x for x in rp)
    z = sig.zero_exps()
    hat_u = S.phihat_parts(((alpha, z, 0, Scalar(1)),), u) if r0 else None
    out = TensorVec.zero(sig)
    for jp in subsets_of_mask(jmask):
        rest = jmask ^ jp
        sign = -1 if (mask_size(jp) + tau(jp, rest)) & 1 else 1
        inner = S.psi_parts(((alpha, rp, rest, Scalar(1)),), u)
        if r0:
            inner += hat_u.left_mul_terms((((rp, rest), Scalar(-r0)),))
        out += inner.left_mul_terms((((neg, jp), Scalar(sign)),))
    if jmask == 0:
        out += S.psi_parts(((alpha, z, 0, Scalar(-1)),), u)
    return out


def _phi_operator_chain(alpha, beta, S):
    """phi_operator as the same kind of container chain."""
    sig = S.sig
    psi = S.psi_parts
    z = sig.zero_exps()
    minus_unit = ((beta, z, 0, Scalar(-1)),)
    if alpha == 0:
        return lambda w: S.phihat_parts(minus_unit, w)
    kind, i = sig.dir_tag(alpha)
    if kind == "d":
        p = sig.tpos(i)
        ti = z[:p] + (1,) + z[p + 1:]
        tinv = (((z[:p] + (-1,) + z[p + 1:], 0), Scalar(1)),)
        return lambda w: (psi(((beta, ti, 0, Scalar(1)),), w).left_mul_terms(tinv)
                          + psi(minus_unit, w))
    zk = 1 << (i - 1)
    return lambda w: (psi(((beta, z, zk, Scalar(1)),), w)
                      + psi(minus_unit, w).left_mul_terms((((z, zk), Scalar(1)),)))


def _terms(x):
    return list(x.terms.items())


class _PsiAsPhihat(QPStructure):
    """A structure whose φ̂ is replaced, here by ψ."""

    __slots__ = ()

    def phihat_parts(self, parts, w):
        return self.psi_parts(parts, w)


@pytest.mark.parametrize("m,n", [(1, 1), (1, 2), (2, 1), (2, 3)])
def test_term_level_composites_match_the_wrapper_formulas(m, n):
    """t_act, t_act_gens and phi_operator pass term parts to the kernels
    and add into one output; they agree with the same formulas written
    over SuperPoly and QPElement operators, for every generator tag (the
    algebra summand ('d', 0), the Euler t-derivations, the odd ones), r_0
    zero and nonzero, J empty and not, generator coefficients 0, 1, -1
    and non-real, every elementary index (α, β), and the non-real
    admissible μ; a replaced φ̂ (here ψ) is followed by all three.  Their
    terms come in the order of the container chains above."""
    omega = natural_module(m, n)
    _, mu = admissible_mus(m, n)
    S = QPStructure(Signature(m, n, False), omega, mu)
    replaced = _PsiAsPhihat(S.sig, omega, mu)
    s = Sampler(random.Random(10 * m + n), deg=2)

    def vector():
        return s.tensor(S.sig, omega) + s.tensor(S.sig, omega) + s.tensor(S.sig, omega)

    tags = S.sig.full().tags("dq")
    assert ("d", 0) in tags and ("q", 1) in tags
    coeffs = (Scalar(0), 1, Scalar(-1), Scalar(Fraction(1, 2), Fraction(-2, 3)))
    for T in (S, replaced):
        for tag in tags:
            for r0 in (0, 2, -1):
                for jmask in (0, s.mask(n) or 1, (1 << n) - 1):
                    rbar = (r0,) + s.exps(S.sig)
                    u = vector()
                    got = t_act(rbar, jmask, tag, u, T)
                    assert got == _t_act_reference(rbar, jmask, tag, u, T), (
                        tag, rbar, jmask)
                    assert _terms(got) == _terms(_t_act_chain(rbar, jmask, tag, u, T))
        for _ in range(3):
            gens = {}
            while len(gens) < len(coeffs):
                gens[s.x_generator(S.sig.full())] = coeffs[len(gens)]
            u = vector()
            got = t_act_gens(gens, u, T)
            want, chain = TensorVec.zero(S.sig), TensorVec.zero(S.sig)
            for gen, c in gens.items():
                want += _t_act_reference(*gen, u, T) * c
                chain += _t_act_chain(*gen, u, T) * c
            assert got == want and _terms(got) == _terms(chain), gens
        for alpha in S.sig.directions():
            for beta in S.sig.directions():
                u = vector()
                got = phi_operator(alpha, beta, T)(u)
                assert got == _phi_operator_reference(alpha, beta, T)(u), (alpha, beta)
                assert _terms(got) == _terms(_phi_operator_chain(alpha, beta, T)(u))


def composites_keep_their_inputs(m, n):
    """Run t_act, t_act_gens and every φ operator on the extracted kernel
    basis at (m, n).  The composites add into containers of their own, so
    the basis vectors (each also the u acted on) and the module's stored
    columns must come out equal, in term order too, to deep copies taken
    before.  Calls go through the module, so a planted t_act is seen."""
    omega = natural_module(m, n)
    _, mu = admissible_mus(m, n)
    S = QPStructure(Signature(m, n, False), omega, mu)
    basis = omega_extract(degree_zero_basis(S), S)
    assert len(basis) == omega.dim
    s = Sampler(random.Random(31 * m + n), deg=2)
    gens = {}
    for tag in S.sig.full().tags("dq"):
        for r0 in (0, 1):
            for jmask in (0, (1 << n) - 1):
                gens[((r0,) + s.exps(S.sig), jmask, tag)] = s.scalar()
    before = copy.deepcopy(([_terms(v) for v in basis], omega.columns))
    for u in basis:
        for gen in gens:
            tensorqp.t_act(*gen, u, S)
        tensorqp.t_act_gens(gens, u, S)
        for alpha in S.sig.directions():
            for beta in S.sig.directions():
                tensorqp.phi_operator(alpha, beta, S)(u)
    assert ([_terms(v) for v in basis], omega.columns) == before


@pytest.mark.parametrize("m,n", [(1, 2), (2, 3)])
def test_composites_leave_their_inputs_alone(m, n):
    composites_keep_their_inputs(m, n)


# ---------- kernel extraction ----------

def test_omega_extract_shen_larsson(structure12):
    S = structure12
    basis = degree_zero_basis(S)
    assert len(basis) == (1 << 2) * S.omega.dim
    ker = omega_extract(basis, S)
    assert len(ker) == S.omega.dim
    want = {frozenset(unit_vec(S.sig, j).terms) for j in range(S.omega.dim)}
    got = {frozenset(v.terms) for v in ker}
    assert got == want


def test_omega_extract_identity_on_kernel(structure12):
    S = structure12
    ker = omega_extract([unit_vec(S.sig, 0), unit_vec(S.sig, 1)], S)
    assert len(ker) == 2


def test_omega_extract_rejects_noninvariant(structure12):
    S = structure12
    # span{z1⊗e0} alone is not invariant: psi_{Q1} sends it to 1⊗e0
    with pytest.raises(ValueError):
        omega_extract([TensorVec.basis(S.sig, S.sig.zero_exps(), 0b1, 0)], S)


def _omega_extract_reference(basis, S):
    """Kernel extraction with one solve per image and a rank test per
    candidate, the straightforward way."""
    from rinehart.linalg import nullspace, rank, solve

    def columns(mat, ncols):
        return [{i: row[j] for i, row in enumerate(mat) if row[j]} for j in range(ncols)]

    def dense(x):
        return None if x is None else [x.get(j, Scalar(0)) for j in range(len(basis))]

    keys = sorted({k for v in basis for k in v.terms})

    def coords(v):
        return [v.terms.get(k, Scalar(0)) for k in keys]

    amat = [list(row) for row in zip(*(coords(v) for v in basis))]
    stacked = []
    for k in range(1, S.sig.n + 1):
        xk = QPElement.from_field(VectorField.basis(S.sig, ("q", k)))
        cols = [dense(solve(columns(amat, len(basis)), dict(enumerate(coords(S.psi(xk, v))))))
                for v in basis]
        stacked.extend([list(row) for row in zip(*cols)])
    candidates = []
    for coeffs in map(dense, nullspace(columns(stacked, len(basis)))):
        vec = TensorVec.zero(S.sig)
        for c, v in zip(coeffs, basis):
            vec = vec + v * c
        candidates.extend(p for p in vec.even_odd(S.omega.parities) if p)
    out = []
    for cand in candidates:
        trial = out + [cand]
        tkeys = sorted({k for v in trial for k in v.terms})
        mat = [[v.terms.get(k, Scalar(0)) for v in trial] for k in tkeys]
        if rank(columns(mat, len(trial))) == len(trial):
            out.append(cand)
    return out


@pytest.mark.parametrize("m,n", [(1, 1), (1, 2), (2, 2)])
def test_omega_extract_matches_per_candidate_greedy(m, n):
    from rinehart.suites import admissible_mus

    for mu in admissible_mus(m, n):
        S = QPStructure(Signature(m, n, False), natural_module(m, n), mu)
        basis = degree_zero_basis(S)
        assert omega_extract(basis, S) == _omega_extract_reference(basis, S)
        # a dependent spanning set: the kernel candidates are dependent too,
        # and the filter must drop the same ones
        mixed = [basis[0] + basis[-1], basis[0], basis[1] + basis[-1]]
        assert omega_extract(basis + mixed, S) == _omega_extract_reference(
            basis + mixed, S
        )


def test_omega_greedy(structure12, sampler):
    S = structure12
    z = S.sig.zero_exps()
    got = omega_greedy(TensorVec.basis(S.sig, z, 0b11, 0), S)
    assert got == unit_vec(S.sig, 0)
    # already in the kernel: returned unchanged
    assert omega_greedy(unit_vec(S.sig, 2), S) == unit_vec(S.sig, 2)
    # nonzero input gives a nonzero kernel vector
    for _ in range(30):
        u = TensorVec.basis(S.sig, z, sampler.mask(2), sampler.rng.randrange(4))
        got = omega_greedy(u, S)
        assert not got.is_zero()
        for k in (1, 2):
            assert S.psi(VectorField.basis(S.sig, ("q", k)), got).is_zero()


# ---------- induced gl-structure, bridge, annihilation ----------

@pytest.fixture
def extracted(structure12):
    S = structure12
    return S, omega_extract(degree_zero_basis(S), S)


def test_phi_operator_table_on_units(extracted):
    S, basis = extracted
    dot = S.sig
    z = dot.zero_exps()
    for a in range(4):
        for b in range(4):
            op = phi_operator(a, b, S)
            for v in range(S.omega.dim):
                want = TensorVec.zero(dot)
                for u, cu in S.omega.column(a, b, v):
                    want._iadd_term((z, 0, u), cu)
                assert op(unit_vec(dot, v)) == want


def test_phi_is_representation(extracted):
    S, basis = extracted
    induced = induced_gl_module(S, basis)
    assert rep_check(induced).ok


def test_phi_rejects_bad_index(extracted):
    S, _ = extracted
    with pytest.raises(ValueError):
        phi_operator(9, 0, S)


def test_bridge_identity(extracted, sampler):
    """The generator action on the kernel factors through the gl
    projection of the identified field and the induced representation."""
    S, basis = extracted
    sig = S.sig.full()
    for _ in range(40):
        gen = sampler.x_generator(sig)
        mat = theta_project(psi_map({gen: Scalar(1)}, sig))
        for u in basis:
            direct = t_act(*gen, u, S)
            through = TensorVec.zero(S.sig)
            for (a, b), c in mat.terms.items():
                through += phi_operator(a, b, S)(u) * c
            assert direct == through


def test_square_ideal_annihilates_kernel(extracted, sampler):
    from rinehart.suites import _random_deep_gens

    S, basis = extracted
    sig = S.sig.full()
    for _ in range(30):
        gens = _random_deep_gens(sampler, sig)
        for u in basis:
            assert t_act_gens(gens, u, S).is_zero()


def test_weight_bookkeeping(structure12, sampler):
    S = structure12
    for _ in range(40):
        w = sampler.tensor(S.sig, S.omega)
        rbar = sampler.exps(S.sig)
        shifted = S.phi(SuperPoly.monomial(S.sig, rbar), w)
        base = tprime_weight(S, w)
        got = tprime_weight(S, shifted)
        assert got[0] == base[0]
        assert got[1:] == tuple(b + r for b, r in zip(base[1:], rbar))


@pytest.mark.parametrize("m,n", [(1, 1), (1, 2), (2, 3)])
def test_tprime_weight_is_mu_plus_the_exponents(monkeypatch, m, n):
    """On c·t^e ζ_M ⊗ e_v, ψ of the unit is μ_0 and ψ of t_i d/dt_i is
    e_i + μ_i, whatever M and v; the expected weight is computed
    from μ and e alone, not through the kernel.  With μ planted as 0
    inside the kernel, the same comparison fails."""
    _, mu = admissible_mus(m, n)
    S = QPStructure(Signature(m, n, False), natural_module(m, n), mu)

    def mismatches():
        s = Sampler(random.Random(m + 10 * n), deg=2)
        bad = 0
        for _ in range(20):
            e = s.exps(S.sig)
            w = TensorVec.basis(S.sig, e, s.mask(n), s.rng.randrange(S.omega.dim),
                                s.scalar())
            want = (mu[0],) + tuple(e[i - 1] + mu[i] for i in range(1, m + 1))
            bad += tprime_weight(S, w) != want
        return bad

    assert mismatches() == 0
    source = inspect.getsource(tensorqp._twisted)
    assert source.count("mu_a = mu[alpha]") == 1
    scope = dict(vars(tensorqp))
    exec(source.replace("mu_a = mu[alpha]", "mu_a = 0 * mu[alpha]"), scope)
    monkeypatch.setattr(tensorqp, "_twisted", scope["_twisted"])
    assert mismatches() == 20


# ---------- operator identities ----------

def test_operator_identities_examples(structure12, sampler):
    S = structure12
    dot = S.sig
    w = sampler.tensor(dot, S.omega)
    t1 = SuperPoly.t_var(dot, 1)
    t1inv = SuperPoly.t_var(dot, 1, -1)
    lhs, rhs = operator_identity_check(1, S, w, a=t1, b=t1inv)
    assert lhs == rhs
    # degenerate shapes
    lhs, rhs = operator_identity_check(4, S, w, imask=0)
    assert lhs == rhs == S.psi(QPElement.from_poly(SuperPoly.one(dot)), w)
    x = QPElement.from_field(VectorField.basis(dot, ("q", 2)))
    lhs, rhs = operator_identity_check(5, S, w, a=SuperPoly.one(dot), x=x)
    assert lhs == rhs == S.psi(x, w)


def test_operator_identities_random(structure12, sampler):
    S = structure12
    dot = S.sig
    for which in range(1, 6):
        for _ in range(30):
            kwargs = {"w": sampler.tensor(dot, S.omega)}
            if which in (1, 2, 3, 5):
                kwargs["a"] = sampler.monomial(dot)
            if which == 1:
                kwargs["b"] = sampler.monomial(dot)
            if which in (2, 5):
                kwargs["x"] = sampler.qp_homogeneous(dot)
            if which == 3:
                kwargs["rbar"] = sampler.exps(dot)
            if which == 4:
                kwargs["imask"] = sampler.mask(dot.n)
            lhs, rhs = operator_identity_check(which, S, **kwargs)
            assert lhs == rhs, (which, kwargs)


# ---------- the comparison map ----------

def test_theta_map_examples(extracted):
    S, basis = extracted
    omega0 = basis[0]
    assert S.phi(SuperPoly.one(S.sig), omega0) == omega0
    t1 = SuperPoly.t_var(S.sig, 1)
    # φ_{t1} shifts the t1-exponent of every term by one
    shifted = {((e[0] + 1,) + e[1:], mask, idx): c
               for (e, mask, idx), c in omega0.terms.items()}
    assert S.phi(t1, omega0) == TensorVec(S.sig, shifted)


def test_theta_equivariance_and_bijectivity(extracted, sampler):
    import itertools

    from rinehart import linalg

    S, basis = extracted
    dot = S.sig
    induced = induced_gl_module(S, basis)
    rho = rho_of(S, basis)
    assert rho.values == S.mu.values  # the slice reproduces the shifts
    Sprime = QPStructure(dot, induced, rho)
    for _ in range(50):
        w = sampler.tensor(dot, induced)
        x = sampler.qp_homogeneous(dot)
        a = sampler.monomial(dot)
        assert theta_transport(Sprime.psi(x, w), basis, S) == S.psi(
            x, theta_transport(w, basis, S)
        )
        assert theta_transport(Sprime.phihat(x, w), basis, S) == S.phihat(
            x, theta_transport(w, basis, S)
        )
        assert theta_transport(Sprime.phi(a, w), basis, S) == S.phi(
            a, theta_transport(w, basis, S)
        )

    dom = []
    for exps in itertools.product((-1, 0, 1), repeat=dot.nvars):
        for mask in range(1 << dot.n):
            for j in range(induced.dim):
                dom.append(TensorVec.basis(dot, exps, mask, j))
    images = [theta_transport(v, basis, S) for v in dom]
    keys = sorted({k for v in images for k in v.terms})
    index = {k: i for i, k in enumerate(keys)}
    mat = [[Scalar(0)] * len(dom) for _ in keys]
    for j, v in enumerate(images):
        for key, c in v.terms.items():
            mat[index[key]][j] = c
    assert linalg.rank(dict(enumerate(row)) for row in mat) == len(dom) == 3 * 4 * S.omega.dim
