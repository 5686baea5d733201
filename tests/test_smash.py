import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rinehart.glmatrix import GlMatrix, gl_bracket
from rinehart.scalars import Scalar
from rinehart.smash import (
    SmashElement,
    make_X,
    psi_map,
    smash_commutator,
    tau,
    theta_project,
    x_decompose,
)
from rinehart.superpoly import Signature, SuperPoly
from rinehart.vectorfields import VectorField, vf_bracket


def test_commutator_examples(sig11):
    sig = sig11
    t1 = (0, 1)
    x = SmashElement(sig, {(t1, 0, (0, 0), 0, ("d", 1)): 1})  # t1 # d1
    y = SmashElement.from_field(VectorField.basis(sig, ("d", 1)))
    assert smash_commutator(x, y) == SmashElement(sig, {(t1, 0, (0, 0), 0, ("d", 1)): -1})
    q1 = SmashElement.from_field(VectorField.basis(sig, ("q", 1)))
    q1b = SmashElement.from_field(VectorField.basis(sig, ("q", 1)))
    assert smash_commutator(q1, q1b).is_zero()

    # [a # b∂, c # 1] collapses to the unit side: coefficients a·b·∂(c) # 1
    c = SmashElement.from_poly(SuperPoly.t_var(sig, 1) * SuperPoly.zeta(sig, 1))
    got = smash_commutator(x, c)
    assert got == SmashElement.from_poly(
        SuperPoly.monomial(sig, (0, 2), 0b1)
    )
    assert all(key[4] is None for key in got.terms)


def test_tau_example():
    assert tau(0b101, 0b010) == 1
    assert tau(0, 0b111) == 0
    assert tau(0b110, 0b001) == 2


def test_make_x_examples(sig11):
    sig = sig11
    x = make_X(sig, (1, 0), 0, ("q", 1))
    assert x == SmashElement(sig, {((-1, 0), 0, (1, 0), 0, ("q", 1)): 1}) - (
        SmashElement.from_field(VectorField.basis(sig, ("q", 1)))
    )
    sig2 = Signature(1, 2, True)
    x = make_X(sig2, (0, 0), 0b01, ("q", 2))
    want = SmashElement(sig2, {((0, 0), 0, (0, 0), 0b01, ("q", 2)): 1,
                               ((0, 0), 0b01, (0, 0), 0, ("q", 2)): -1})
    assert x == want
    assert x.is_degree_zero()
    assert make_X(sig, (0, 0), 0, ("d", 1)).is_zero()


def test_make_x_and_t_act_reject_a_plain_tag(structure12):
    """A centralizer generator's tag is a gl direction: an Euler or odd tag.
    A plain d/dt_1 would give X((0, 1), ∅, d/dt_1) of degree -e_1, not a
    degree-zero generator, so make_X and t_act refuse it."""
    from rinehart.tensorqp import TensorVec, t_act

    S = structure12
    u = TensorVec.basis(S.sig, (0,), 0, 0)
    with pytest.raises(ValueError, match="no direction"):
        make_X(Signature(1, 1), (0, 1), 0, ("dt", 1))
    with pytest.raises(ValueError, match="no direction"):
        t_act((0, 1), 0, ("dt", 1), [u], S)
    assert make_X(Signature(1, 1), (0, 1), 0, ("d", 1)).is_degree_zero()
    image, = t_act((0, 1), 0, ("d", 1), [u], S)
    assert isinstance(image, TensorVec)


def test_smash_terms_store_no_plain_tag(sig12, sampler):
    """The constructor and the commutator's bracket part keep Euler and odd
    tags."""
    sig = sig12

    def draw():
        key = (sampler.exps(sig), sampler.mask(sig.n), sampler.exps(sig),
               sampler.mask(sig.n), sampler.tag(sig, "dtq"))
        return SmashElement(sig, {key: sampler.scalar()})

    for _ in range(60):
        u, v = draw(), draw()
        for w in (u, v, smash_commutator(u, v)):
            assert all(key[4][0] != "dt" for key in w.terms)


def test_degree_zero_and_centralizer(sig12, sampler):
    sig = sig12
    tags = [("d", i) for i in sig.tvars()] + [("q", k) for k in (1, 2)]
    for _ in range(40):
        gen = sampler.x_generator(sig)
        x = make_X(sig, *gen)
        assert x.is_degree_zero()
        for delta in tags:
            assert smash_commutator(
                x, SmashElement.from_field(VectorField.basis(sig, delta))
            ).is_zero()
        for _ in range(10):
            a = sampler.monomial(sig)
            assert smash_commutator(x, SmashElement.from_poly(a)).is_zero()


def test_psi_map_examples(sig11):
    sig = sig11
    one = SuperPoly.one(sig)
    t0 = SuperPoly.t_var(sig, 0)
    t1 = SuperPoly.t_var(sig, 1)
    z1 = SuperPoly.zeta(sig, 1)
    assert psi_map(make_X(sig, (1, 0), 0, ("q", 1))) == VectorField.from_poly_tag(
        t0 - one, ("q", 1)
    )
    assert psi_map(make_X(sig, (2, -1), 0b1, ("d", 0))) == VectorField.from_poly_tag(
        SuperPoly.monomial(sig, (2, -1), 0b1), ("d", 0)
    )
    # displayed special cases, stated with d/dt_1
    sp = SmashElement(sig, {((0, 1), 0, (0, -1), 0, ("d", 1)): 1}) - (
        SmashElement.from_field(VectorField.basis(sig, ("d", 1)))
    )
    assert psi_map(sp) == VectorField.from_poly_tag(-(t1 - one), ("dt", 1))
    spz = SmashElement(sig, {((0, 0), 0b1, (0, 0), 0, ("q", 1)): 1}) - (
        SmashElement.from_field(VectorField.from_poly_tag(z1, ("q", 1)))
    )
    assert psi_map(spz) == VectorField.from_poly_tag(-z1, ("q", 1))


def test_x_decompose_rejects_outsiders(sig11):
    stray = SmashElement(sig11, {((1, 0), 0, (1, 0), 0, ("d", 1)): 1})
    with pytest.raises(ValueError):
        x_decompose(stray)


def test_psi_bracket_homomorphism(sig12, sampler):
    sig = sig12
    for _ in range(60):
        g1 = sampler.x_generator(sig)
        g2 = sampler.x_generator(sig)
        lhs = psi_map(smash_commutator(make_X(sig, *g1), make_X(sig, *g2)))
        rhs = vf_bracket(
            psi_map({g1: Scalar(1)}, sig), psi_map({g2: Scalar(1)}, sig)
        )
        assert lhs == rhs


def test_theta_examples(sig11):
    sig = sig11
    one = SuperPoly.one(sig)
    t0, t1 = SuperPoly.t_var(sig, 0), SuperPoly.t_var(sig, 1)
    assert theta_project(
        VectorField.from_poly_tag(t1 - one, ("d", 0))
    ) == GlMatrix.elementary(sig, 1, 0)
    got = theta_project(VectorField.from_poly_tag(t0 * t1 - one, ("d", 0)))
    assert got == GlMatrix.elementary(sig, 0, 0) + GlMatrix.elementary(sig, 1, 0)

    sig2 = Signature(1, 2, True)
    got = theta_project(
        VectorField.from_poly_tag(SuperPoly.zeta(sig2, 1), ("q", 2))
    )
    assert got == GlMatrix.elementary(sig2, 2, 3)

    with pytest.raises(ValueError):
        theta_project(VectorField.basis(sig, ("d", 0)))  # coefficient 1 not in S


def test_theta_surjectivity_table(sig12):
    sig = sig12
    one = SuperPoly.one(sig)
    for a in range(4):
        for b in range(4):
            coeff = (
                SuperPoly.t_var(sig, a) - one if a <= 1 else SuperPoly.zeta(sig, a - 1)
            )
            tag = ("d", b) if b <= 1 else ("q", b - 1)
            got = theta_project(VectorField.from_poly_tag(coeff, tag))
            assert got == GlMatrix.elementary(sig, a, b)


def test_theta_homomorphism_and_kernel(sig11, sampler):
    from rinehart.superpoly import shift_basis

    sig = sig11
    for _ in range(60):
        def sample_field(min_deg):
            out = VectorField.zero(sig)
            for _ in range(2):
                pos, neg, mask = sampler.shifted_basis(sig, min_deg)
                coeff = shift_basis(sig, pos, neg, mask) * sampler.scalar()
                out += VectorField.from_poly_tag(coeff, sampler.tag(sig))
            return out

        x, y = sample_field(1), sample_field(1)
        assert theta_project(vf_bracket(x, y)) == gl_bracket(
            theta_project(x), theta_project(y)
        )
        assert theta_project(sample_field(2)).is_zero()


def test_gl_bracket_examples():
    E = lambda a, b: GlMatrix.elementary(Signature(1, 1), a, b)
    assert gl_bracket(E(0, 1), E(1, 0)) == E(0, 0) - E(1, 1)
    assert gl_bracket(E(0, 2), E(2, 0)) == E(0, 0) + E(2, 2)
    assert gl_bracket(E(0, 0), E(0, 1)) == E(0, 1)
    assert E(0, 2).parity() == 1
    assert E(0, 1).parity() == 0


def _gl_matrices(m, n):
    index = st.integers(0, m + n)
    terms = st.dictionaries(st.tuples(index, index), st.integers(-2, 2),
                            max_size=(m + 1 + n) ** 2)
    return terms.map(lambda t: GlMatrix(Signature(m, n), t))


@settings(max_examples=40, deadline=None)
@given(data=st.data(), shape=st.sampled_from([(1, 1), (1, 2), (2, 1)]))
def test_gl_bracket_matches_elementary_expansion(data, shape):
    """Mixed-parity operands: the bracket equals Σ x_ab y_ce [E_ab, E_ce]
    with [E_ab, E_ce] = δ_bc E_ae - (-1)^{|ab||ce|} δ_ea E_cb."""
    m, n = shape
    x, y = data.draw(_gl_matrices(m, n)), data.draw(_gl_matrices(m, n))
    d = m + 1 + n
    cells = list(itertools.product(range(d), repeat=2))
    xd = [[x.terms.get((a, b), Scalar(0)) for b in range(d)] for a in range(d)]
    yd = [[y.terms.get((a, b), Scalar(0)) for b in range(d)] for a in range(d)]
    par = lambda a, b: ((a > m) + (b > m)) & 1
    ref = [[Scalar(0)] * d for _ in range(d)]
    for a, b, c, e in itertools.product(range(d), repeat=4):
        coef = xd[a][b] * yd[c][e]
        if b == c:
            ref[a][e] = ref[a][e] + coef
        if e == a:
            sign = -1 if par(a, b) & par(c, e) else 1
            ref[c][b] = ref[c][b] - coef * sign
    assert gl_bracket(x, y) == GlMatrix(x.sig, {(a, b): ref[a][b] for a, b in cells})
    ev, od = x.even_odd()
    assert ev + od == x
    for a, b in cells:
        assert (a, b) not in (od if par(a, b) == 0 else ev).terms
