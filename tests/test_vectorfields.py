import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rinehart.parser import parse_element
from rinehart.scalars import Scalar
from rinehart.superpoly import (
    Signature,
    SuperPoly,
    derive,
    derive_mono,
    filt_degree,
    shift_basis,
)
from rinehart.vectorfields import (
    LoopElement,
    QPElement,
    VectorField,
    check_tag,
    degree_field,
    loop_apply_to_poly,
    loop_bracket,
    loop_der_correspond,
    qp_bracket,
    qp_product,
    special_partial,
    tag_parity,
    vf_bracket,
    weight_of,
)


def bracket_via_composition(x, y, probes):
    """Operator-composition oracle: check a candidate bracket against
    X(Y(f)) - (-1)^{|X||Y|} Y(X(f)) on probe polynomials."""
    sign = (-1) ** (x.parity() * y.parity())

    def agree(candidate):
        return all(
            candidate.apply(f) == x.apply(y.apply(f)) - sign * y.apply(x.apply(f))
            for f in probes
        )

    return agree


def test_vf_apply_examples(sig11):
    t1 = SuperPoly.t_var(sig11, 1)
    x = VectorField.from_poly_tag(t1, ("d", 1))
    assert x.apply(SuperPoly.t_var(sig11, 1, 2)) == SuperPoly.t_var(sig11, 1, 3) * 2

    sig = Signature(1, 2, True)
    z1 = SuperPoly.zeta(sig, 1)
    z12 = SuperPoly.zeta_mask(sig, 0b11)
    y = VectorField.from_poly_tag(z1, ("q", 1))
    # oracle: mul(z1, derive(q1, z1 z2)) = mul(z1, z2) = z1 z2
    assert y.apply(z12) == z1 * SuperPoly.zeta(sig, 2)

    one = SuperPoly.one(sig11)
    t0 = SuperPoly.t_var(sig11, 0)
    f = (t0 - one) ** 2 * SuperPoly.zeta(sig11, 1)
    assert degree_field(sig11).apply(f) == f * 3


def test_vf_bracket_examples(sig11):
    t1 = SuperPoly.t_var(sig11, 1)
    t1inv = SuperPoly.t_var(sig11, 1, -1)
    z1 = SuperPoly.zeta(sig11, 1)
    a = VectorField.from_poly_tag(t1, ("d", 1))
    b = VectorField.from_poly_tag(t1inv, ("d", 1))
    got = vf_bracket(a, b)
    assert got == VectorField.basis(sig11, ("d", 1), -2)
    probes = [SuperPoly.t_var(sig11, 1, k) for k in (-2, -1, 1, 2, 3)]
    assert bracket_via_composition(a, b, probes)(got)

    c = VectorField.from_poly_tag(z1, ("d", 1))
    assert vf_bracket(c, c).is_zero()

    d = VectorField.basis(sig11, ("q", 1))
    e = VectorField.from_poly_tag(z1, ("q", 1))
    got = vf_bracket(d, e)
    assert got == VectorField.basis(sig11, ("q", 1))
    probes = [z1, t1 * z1, SuperPoly.one(sig11)]
    assert bracket_via_composition(d, e, probes)(got)


def test_bracket_represents_composition(sig12, sampler):
    for _ in range(150):
        x = sampler.field_term(sig12, kinds="dtq")
        y = sampler.field_term(sig12, kinds="dtq")
        f = sampler.monomial(sig12)
        sign = (-1) ** (x.parity() * y.parity())
        assert vf_bracket(x, y).apply(f) == x.apply(y.apply(f)) - sign * y.apply(
            x.apply(f)
        )


def _plain_terms(sampler, sig, count):
    """Random terms (exps, mask, tag, coeff) over all three tag kinds."""
    return [
        (sampler.exps(sig), sampler.mask(sig.n), sampler.tag(sig, "dtq"),
         sampler.scalar())
        for _ in range(count)
    ]


def test_plain_tags_are_stored_in_the_euler_basis(sig12, sampler):
    """A field holds no ('dt', i) key: t^e ζ_M d/dt_i is stored as
    t^{e - e_i} ζ_M t_i d/dt_i, and keys that meet there merge."""
    for _ in range(100):
        x = VectorField.zero(sig12)
        for exps, mask, tag, c in _plain_terms(sampler, sig12, 3):
            x += VectorField.term(sig12, exps, mask, tag, c)
        assert all(tag[0] != "dt" for (_, _, tag) in x.terms)
    e = (2, -1)
    x = VectorField.term(sig12, e, 0b01, ("dt", 1), 3)
    assert x.terms == {((2, -2), 0b01, ("d", 1)): 3}
    assert (x - VectorField.term(sig12, (2, -2), 0b01, ("d", 1), 3)).is_zero()
    both = {(e, 0, ("dt", 0)): 1, ((1, -1), 0, ("d", 0)): -1}
    assert VectorField(sig12, both).is_zero()


def test_plain_view_round_trip(sig12, sampler):
    """plain_coefficient_polys gives back the coefficients of a field
    built from plain tags, and rebuilding from it gives the field."""
    for _ in range(100):
        coeff = sampler.poly(sig12)
        tag = sampler.tag(sig12, "tq")
        x = VectorField.from_poly_tag(coeff, tag)
        assert x.plain_coefficient_polys() == ({tag: coeff} if coeff else {})
        y = sampler.field(sig12, kinds="dtq")
        rebuilt = VectorField.zero(sig12)
        for t, p in y.plain_coefficient_polys().items():
            assert t[0] in ("dt", "q")
            rebuilt += VectorField.from_poly_tag(p, t)
        assert rebuilt == y


def test_apply_matches_the_plain_formula(sig12, sampler):
    """(Σ c·t^e ζ_M·∂)(f) = Σ c·t^e ζ_M·∂(f) with each ∂ as it was given,
    d/dt_i included, on random monomials f."""
    for _ in range(100):
        terms = _plain_terms(sampler, sig12, 3)
        x = VectorField.zero(sig12)
        for exps, mask, tag, c in terms:
            x += VectorField.term(sig12, exps, mask, tag, c)
        f = sampler.monomial(sig12)
        want = SuperPoly.zero(sig12)
        for exps, mask, tag, c in terms:
            want += SuperPoly.monomial(sig12, exps, mask, c) * derive(tag, f)
        assert x.apply(f) == want


def test_mode_membership_both_directions(sig12, sampler):
    for _ in range(50):
        k = random.Random(3).choice((1, 2))
        pos, neg, mask = sampler.shifted_basis(sig12, k)
        coeff = shift_basis(sig12, pos, neg, mask)
        x = VectorField.from_poly_tag(coeff, sampler.tag(sig12, "dtq"))
        for polys in (x.coefficient_polys(), x.plain_coefficient_polys()):
            assert all(filt_degree(c) >= k for c in polys.values())


def test_special_partial_instances():
    sig = Signature(1, 2, True)
    one = SuperPoly.one(sig)
    t0 = SuperPoly.t_var(sig, 0)
    got = special_partial(sig, "power_q", j=0, p=2, k=1, mask=0)
    assert got == VectorField.from_poly_tag((t0 - one) ** 2, ("q", 1))

    w = weight_of(got)
    assert w.hprime == (2, 0)
    assert w.h == (-1, 0)  # no Grassmann factor, one odd derivation

    # first display kind: weight p·eps_j - eps_i + Σ_{q≠j} s_q eps_q, h-weight 0
    got = special_partial(sig, "power_dt", i=0, j=1, p=2, sbar=(1, 1))
    w = weight_of(got)
    assert w.hprime == (1 - 1, 2)
    assert w.h == (0, 0)

    got = special_partial(sig, "power_q", j=1, p=1, k=2, mask=0b01)
    w = weight_of(got)
    assert w.hprime == (0, 1)
    assert w.h == (1, -1)  # delta_I - delta_k

    with pytest.raises(ValueError):
        special_partial(sig, "double_power_zeta_dt", i=1, j=1, p=1, p2=1,
                        sbar=(0, 0), mask=0)


def test_special_partial_weights_match_adjoint(sig12, sampler):
    """The placement data is an adjoint-eigenvalue statement; check it
    against brackets with the diagonal fields."""
    sig = sig12
    one = SuperPoly.one(sig)
    hps = [
        VectorField.from_poly_tag(SuperPoly.t_var(sig, i) - one, ("dt", i))
        for i in sig.tvars()
    ]
    hs = [
        VectorField.from_poly_tag(SuperPoly.zeta(sig, k), ("q", k))
        for k in (1, 2)
    ]
    cases = [
        special_partial(sig, "power_dt", i=1, j=0, p=1, sbar=(0, 1)),
        special_partial(sig, "power_q", j=0, p=1, k=1, mask=0b10),
        special_partial(sig, "power_zeta_dt", i=1, p=1, sbar=(1, 0), mask=0b01),
        special_partial(
            sig, "double_power_zeta_dt", i=0, j=1, p=1, p2=2, sbar=(0, 0), mask=0b11
        ),
    ]
    for x in cases:
        w = weight_of(x)
        for pos, hp in enumerate(hps):
            assert vf_bracket(hp, x) == x * w.hprime[pos]
        for pos, h in enumerate(hs):
            assert vf_bracket(h, x) == x * w.h[pos]


def test_weight_placement_general_display(sig12, sampler):
    """Shifted-power basis fields have the weights (s̄, δ_I − δ_k) for odd
    tags and (s̄ − ε_j, δ_I) for plain t-derivations."""
    from rinehart.superpoly import delta_of_mask, eps

    sig = sig12
    for _ in range(60):
        pos = sampler.pos_exps(sig)
        mask = sampler.mask(sig.n)
        coeff = shift_basis(sig, pos, (0,) * sig.nvars, mask)
        k = sampler.rng.randint(1, sig.n)
        w = weight_of(VectorField.from_poly_tag(coeff, ("q", k)))
        assert w.hprime == pos
        dI = delta_of_mask(sig, mask).h
        dk = [0] * sig.n
        dk[k - 1] = 1
        assert w.h == tuple(a - b for a, b in zip(dI, dk))

        j = sampler.rng.choice(list(sig.tvars()))
        w = weight_of(VectorField.from_poly_tag(coeff, ("dt", j)))
        assert w.hprime == tuple(
            p - e for p, e in zip(pos, eps(sig, j).hprime)
        )
        assert w.h == dI


def test_weight_of_field_example(sig11):
    one = SuperPoly.one(sig11)
    t0 = SuperPoly.t_var(sig11, 0)
    z1 = SuperPoly.zeta(sig11, 1)
    x = VectorField.from_poly_tag((t0 - one) * z1, ("dt", 0))
    w = weight_of(x)
    assert w.hprime == (0, 0)
    assert w.h == (1,)
    assert weight_of(VectorField.from_poly_tag(z1, ("q", 1))).h == (0,)


# ---------- algebra ⊕ derivations ----------

def test_qp_product_examples():
    dot = Signature(2, 1, False)
    one = SuperPoly.one(dot)
    t1 = SuperPoly.t_var(dot, 1)
    z1 = SuperPoly.zeta(dot, 1)
    d1 = VectorField.basis(dot, ("d", 1))
    d2 = VectorField.basis(dot, ("d", 2))
    assert qp_product(
        QPElement.from_poly(t1), QPElement.from_field(d1)
    ) == QPElement.from_field(VectorField.from_poly_tag(t1, ("d", 1)))
    assert qp_product(QPElement.from_poly(z1), QPElement.from_poly(z1)).is_zero()
    got = qp_product(QPElement.pair(one, d1), QPElement.pair(one, d2))
    assert got == QPElement.pair(one, d1 + d2)


def test_qp_bracket_examples():
    dot = Signature(1, 1, False)
    t1 = SuperPoly.t_var(dot, 1)
    d1 = VectorField.basis(dot, ("d", 1))
    assert qp_bracket(
        QPElement.from_poly(t1), QPElement.from_field(d1)
    ) == QPElement.from_poly(-t1)
    assert qp_bracket(
        QPElement.from_field(d1), QPElement.from_poly(t1)
    ) == QPElement.from_poly(t1)
    a = QPElement.from_poly(t1)
    b = QPElement.from_poly(SuperPoly.zeta(dot, 1))
    assert qp_bracket(a, b).is_zero()


def test_qp_algebra_laws(sampler):
    dot = Signature(1, 2, False)
    for _ in range(120):
        x = sampler.qp_homogeneous(dot)
        y = sampler.qp_homogeneous(dot)
        z = sampler.qp_homogeneous(dot)
        sign = (-1) ** (x.parity() * y.parity())
        assert qp_product(x, y) == sign * qp_product(y, x)
        assert qp_product(qp_product(x, y), z) == qp_product(x, qp_product(y, z))
        # the projection is an algebra homomorphism
        assert qp_product(x, y).a == x.a * y.a


def test_loop_bracket_examples():
    dot = Signature(1, 1, False)
    one = QPElement.from_poly(SuperPoly.one(dot))
    u = LoopElement.wrap(1, one)
    v = LoopElement.wrap(-1, one)
    assert loop_bracket(u, v) == LoopElement.wrap(0, one * (-2))

    x = QPElement.from_field(VectorField.basis(dot, ("q", 1)))
    y = QPElement.from_field(VectorField.from_poly_tag(SuperPoly.zeta(dot, 1), ("q", 1)))
    got = loop_bracket(LoopElement.wrap(2, x), LoopElement.wrap(3, y))
    assert got == LoopElement.wrap(5, qp_bracket(x, y))
    got = loop_bracket(LoopElement.wrap(0, x), LoopElement.wrap(0, y))
    assert got == LoopElement.wrap(0, qp_bracket(x, y))


def test_loop_der_correspondence(sig11, sampler):
    dot = sig11.dotted()
    one = QPElement.from_poly(SuperPoly.one(dot))
    u = LoopElement.wrap(1, one)
    assert loop_der_correspond(u) == VectorField.from_poly_tag(
        SuperPoly.t_var(sig11, 0), ("d", 0)
    )
    q = LoopElement.wrap(0, QPElement.from_field(VectorField.basis(dot, ("q", 1))))
    assert loop_der_correspond(q) == VectorField.basis(sig11, ("q", 1))
    # oracle: the full-signature bracket
    for _ in range(80):
        x = sampler.loop_qp(dot)
        y = sampler.loop_qp(dot)
        assert loop_der_correspond(loop_bracket(x, y)) == vf_bracket(
            loop_der_correspond(x), loop_der_correspond(y)
        )
        f = sampler.monomial(sig11)
        assert loop_apply_to_poly(x, f) == loop_der_correspond(x).apply(f)


# ---------- the bracket kernel against SuperPoly temporaries ----------

def to_plain(x):
    """The terms of x in the plain basis d/dt_i, ∂/∂ζ_k, rewritten here:
    t_i d/dt_i = t_i·(d/dt_i)."""
    out = {}
    for (exps, mask, (kind, i)), c in x.terms.items():
        if kind == "d":
            p = x.sig.tpos(i)
            exps, kind = exps[:p] + (exps[p] + 1,) + exps[p + 1:], "dt"
        out[(exps, mask, (kind, i))] = c
    return out


def bracket_via_temporaries(sig, xterms, yterms):
    """vf_bracket written with SuperPoly monomials and derive, over two
    term maps whose tags all supercommute (one basis family)."""
    out = {}

    def add(key, c):  # as Sparse._iadd_term: a key keeps its place
        new = out[key] + c if key in out else c
        if new:
            out[key] = new
        else:
            out.pop(key, None)

    for (ea, ma, ta), ca in xterms.items():
        pa = (bin(ma).count("1") + tag_parity(ta)) & 1
        amon = SuperPoly.monomial(sig, ea, ma)
        for (eb, mb, tb), cb in yterms.items():
            pb = (bin(mb).count("1") + tag_parity(tb)) & 1
            coef = ca * cb
            bmon = SuperPoly.monomial(sig, eb, mb)
            for (e2, m2), c2 in (amon * derive(ta, bmon)).terms.items():
                add((e2, m2, tb), coef * c2)
            ksign = -1 if (pa & pb) else 1
            for (e2, m2), c2 in (bmon * derive(tb, amon)).terms.items():
                add((e2, m2, ta), coef * c2 * (-ksign))
    return VectorField(sig, out)


@st.composite
def field_pairs(draw):
    sig = Signature(draw(st.integers(1, 2)), draw(st.integers(1, 3)), draw(st.booleans()))
    modes = draw(st.sampled_from(["d", "dt", "mixed"]))
    kinds = {"d": ["d"], "dt": ["dt"], "mixed": ["d", "dt"]}[modes] + ["q"]

    def field():
        out = VectorField.zero(sig)
        for _ in range(draw(st.integers(0, 4))):
            kind = draw(st.sampled_from(kinds))
            idx = draw(st.sampled_from(
                list(sig.tvars()) if kind != "q" else list(range(1, sig.n + 1))))
            out += VectorField.term(
                sig,
                draw(st.tuples(*[st.integers(-2, 2)] * sig.nvars)),
                draw(st.integers(0, (1 << sig.n) - 1)),
                (kind, idx),
                Scalar(Fraction(draw(st.integers(-3, 3)), draw(st.integers(1, 3))),
                       draw(st.integers(-1, 1))),
            )
        return out

    return field(), field()


@settings(max_examples=200, deadline=None)
@given(field_pairs())
def test_vf_bracket_matches_temporaries(pair):
    x, y = pair
    got = vf_bracket(x, y)
    # over the stored terms: the same terms in the same insertion order
    want = bracket_via_temporaries(x.sig, x.terms, y.terms)
    assert list(got.terms.items()) == list(want.terms.items())
    # over the plain basis: the same operator
    assert got == bracket_via_temporaries(x.sig, to_plain(x), to_plain(y))


# ---------- QPElement.along: p·∂ with ('d', 0) as the algebra summand ----------

@pytest.mark.parametrize("m,n", [(1, 1), (1, 2), (2, 1), (2, 2)])
def test_along_matches_the_per_site_constructions(m, n):
    """QPElement.along agrees with the constructions it replaced: the
    ψ-subscript and φ̂-tag of the loop module and the loop element of
    f·∂_α, each spelled out here by cases."""
    from rinehart.suites import _loop_g_for

    full = Signature(m, n)
    dot = full.dotted()
    rng = random.Random(m * 10 + n)
    for tag in full.tags():
        exps = tuple(rng.randint(-2, 2) for _ in range(dot.nvars))
        mask = rng.randrange(1 << n)
        mono = SuperPoly.monomial(dot, exps, mask)
        if tag == ("d", 0):
            subscript = QPElement.from_poly(mono)
            hat = QPElement.from_poly(SuperPoly.one(dot))
        else:
            subscript = QPElement.from_field(VectorField.term(dot, exps, mask, tag))
            hat = QPElement.from_field(VectorField.basis(dot, tag))
        assert QPElement.along(mono, tag) == subscript
        assert QPElement.along(SuperPoly.one(dot), tag) == hat

    f = SuperPoly.monomial(full, (1,) + (-1,) * m, 1) + SuperPoly.t_var(full, 0, -2)
    for alpha in range(m + n + 1):
        want = LoopElement.zero(dot)
        for r0, a in f.t0_slices().items():
            if alpha == 0:
                qp = QPElement.from_poly(a)
            elif alpha <= m:
                qp = QPElement.from_field(VectorField.from_poly_tag(a, ("d", alpha)))
            else:
                qp = QPElement.from_field(VectorField.from_poly_tag(a, ("q", alpha - m)))
            want = want + LoopElement.wrap(r0, qp)
        assert _loop_g_for(f, alpha) == want


def test_algebra_tag_is_the_zero_derivation_only_inside_derive_mono():
    """On the dotted algebra ('d', 0) is the tag of the algebra summand of a
    QPElement: `derive_mono` makes it the zero derivation, so the field
    bracket is the quasi-Poisson bracket.  Everywhere else it is still no
    derivation of the dotted algebra."""
    dot = Signature(2, 2, False)
    for exps, mask in (((0, 0), 0), ((1, -2), 0b11), ((3, 0), 0b10)):
        assert derive_mono(("d", 0), dot, exps, mask) == (0, exps, mask)
    assert derive_mono(("d", 0), dot.full(), (2, 1, 0), 0) == (2, (2, 1, 0), 0)
    f = SuperPoly.t_var(dot, 1)
    for refuse in (lambda: check_tag(dot, ("d", 0)),
                   lambda: VectorField.basis(dot, ("d", 0)),
                   lambda: derive(("d", 0), f),
                   lambda: parse_element("D0", dot)):
        with pytest.raises(ValueError):
            refuse()
    x = QPElement.pair(f, VectorField.basis(dot, ("d", 1)))
    assert x.apply(f) == f and set(x.terms) == {((1, 0), 0, ("d", 0)), ((0, 0), 0, ("d", 1))}


def test_qp_of_promotes_each_summand():
    dot = Signature(1, 1, False)
    t1, d1 = SuperPoly.t_var(dot, 1), VectorField.basis(dot, ("d", 1))
    both = QPElement.pair(t1, d1)
    assert QPElement.of(t1) == QPElement.from_poly(t1)
    assert QPElement.of(d1) == QPElement.from_field(d1)
    assert QPElement.of(both) is both
    with pytest.raises(TypeError):
        QPElement.of(3)
