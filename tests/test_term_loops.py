"""The quasi-Poisson and loop products are term loops; these references are
the container forms they replaced (split by parity, one SuperPoly or
VectorField per partial product), kept to check the loops term for term."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rinehart.scalars import Scalar
from rinehart.superpoly import Signature, SuperPoly, shift_basis
from rinehart.vectorfields import (
    QPElement,
    VectorField,
    loop_bracket,
    qp_bracket,
    qp_product,
    vf_bracket,
)

SIGS = [Signature(1, 1, False), Signature(1, 2, False), Signature(2, 1, False)]


# ---------- references: the container forms ----------

def shift_basis_reference(sig, pos, neg, mask=0):
    one = SuperPoly.one(sig)
    out = SuperPoly.zeta_mask(sig, mask)
    for i, (p, s) in zip(sig.tvars(), zip(pos, neg)):
        if p:
            out = out * (SuperPoly.t_var(sig, i) - one) ** p
        if s:
            out = out * (SuperPoly.t_var(sig, i, -1) - one) ** s
    return out


def _even_odd(x):
    ae, ao = x.a.even_odd()
    xe, xo = x.x.even_odd()
    return QPElement.pair(ae, xe), QPElement.pair(ao, xo)


def qp_product_reference(x, y):
    sig = x.sig
    a_out = x.a * y.a
    x_out = VectorField.zero(sig)
    be, bo = y.a.even_odd()
    for xh in _even_odd(x):
        px = xh.parity()
        if xh.is_zero():
            continue
        x_out += y.x.left_mul(xh.a)
        x_out += xh.x.left_mul(be)
        if not bo.is_zero():
            scaled = xh.x.left_mul(bo)
            x_out += scaled if px == 0 else -scaled
    return QPElement.pair(a_out, x_out)


def qp_bracket_reference(x, y):
    a_out = x.x.apply(y.a)
    ae, ao = x.a.even_odd()
    se, so = y.x.even_odd()
    for apart, pa in ((ae, 0), (ao, 1)):
        if apart.is_zero():
            continue
        for spart, ps in ((se, 0), (so, 1)):
            if spart.is_zero():
                continue
            sign = -1 if (pa & ps) else 1
            a_out -= spart.apply(apart) * sign
    return QPElement.pair(a_out, vf_bracket(x.x, y.x))


def loop_slices(u):
    """{r: QPElement} of a full-signature field, split here by hand: the
    t_0 d/dt_0 terms become the algebra summand, stored under ('d', 0)."""
    out = {}
    for (exps, mask, tag), c in u.terms.items():
        out.setdefault(exps[0], {})[(exps[1:], mask, tag)] = c
    return {r: QPElement(u.sig.dotted(), terms) for r, terms in out.items()}


def loop_bracket_reference(u, v):
    out = VectorField.zero(u.sig)
    for r, x in loop_slices(u).items():
        for s, y in loop_slices(v).items():
            z = qp_bracket_reference(x, y)
            if r:
                z = z - r * qp_product_reference(x, QPElement.from_poly(y.a))
            if s:
                z = z + s * qp_product_reference(QPElement.from_poly(x.a), y)
            out += VectorField(u.sig, {((r + s,) + e, m, tag): c
                                       for (e, m, tag), c in z.terms.items()})
    return out


# ---------- strategies ----------

def scalars():
    return st.builds(lambda p, d, q: Scalar(Fraction(p, d), q),
                     st.integers(-3, 3), st.integers(1, 3), st.integers(-1, 1))


def monomials(sig):
    return st.tuples(st.tuples(*[st.integers(-2, 2)] * sig.nvars),
                     st.integers(0, (1 << sig.n) - 1))


def polys(sig):
    return st.dictionaries(monomials(sig), scalars(), max_size=3).map(
        lambda terms: SuperPoly(sig, terms))


def fields(sig):
    keys = st.tuples(monomials(sig), st.sampled_from(sig.tags())).map(
        lambda k: (*k[0], k[1]))
    return st.dictionaries(keys, scalars(), max_size=3).map(
        lambda terms: VectorField(sig, terms))


@st.composite
def qp_pairs(draw):
    sig = draw(st.sampled_from(SIGS))
    x, y = (QPElement.pair(draw(polys(sig)), draw(fields(sig))) for _ in range(2))
    return x, y


@st.composite
def loop_pairs(draw):
    sig = draw(st.sampled_from(SIGS))

    def loop():  # Σ_r t_0^r ⊗ (a_r ⊕ x_r), stored as a field over the full signature
        terms = {}
        for r in draw(st.sets(st.integers(-2, 2), max_size=2)):
            qp = QPElement.pair(draw(polys(sig)), draw(fields(sig)))
            terms.update({((r,) + e, m, tag): c for (e, m, tag), c in qp.terms.items()})
        return VectorField(sig.full(), terms)

    return loop(), loop()


# ---------- properties ----------

@settings(max_examples=150, deadline=None)
@given(qp_pairs())
def test_qp_product_matches_its_container_form(pair):
    x, y = pair
    assert qp_product(x, y) == qp_product_reference(x, y)


@settings(max_examples=150, deadline=None)
@given(qp_pairs())
def test_qp_bracket_matches_its_container_form(pair):
    x, y = pair
    assert qp_bracket(x, y) == qp_bracket_reference(x, y)


@settings(max_examples=100, deadline=None)
@given(loop_pairs())
def test_loop_bracket_matches_its_container_form(pair):
    u, v = pair
    assert loop_bracket(u, v) == loop_bracket_reference(u, v)


@pytest.mark.parametrize("sig", SIGS + [s.full() for s in SIGS], ids=repr)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_shift_basis_matches_its_container_form_in_order(sig, data):
    """Equal values and the same term insertion order, so every loop over
    a shifted-basis product visits its terms as before."""
    pos, neg = (data.draw(st.tuples(*[st.integers(0, 4)] * sig.nvars)) for _ in "pn")
    mask = data.draw(st.integers(0, (1 << sig.n) - 1))
    got, want = shift_basis(sig, pos, neg, mask), shift_basis_reference(sig, pos, neg, mask)
    assert list(got.terms.items()) == list(want.terms.items())


def test_shift_basis_rejects_a_short_exponent_tuple():
    sig = Signature(2, 1)
    with pytest.raises(ValueError, match="wrong length"):
        shift_basis(sig, (1, 0), (0, 0, 0))
    with pytest.raises(ValueError, match="outside signature"):
        shift_basis(sig, (1, 0, 0), (0, 0, 0), 0b10)
