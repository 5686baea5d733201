import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import along

from rinehart.glmodules import natural_module
from rinehart.parser import parse_element
from rinehart.sampling import Sampler
from rinehart.scalars import Scalar
from rinehart.superpoly import (
    Signature,
    SuperPoly,
    derive,
    derive_mono,
    filt_degree,
    shift_basis,
)
from rinehart.tensorqp import TensorVec
from rinehart.vectorfields import (
    QPElement,
    VectorField,
    degree_field,
    loop_apply_to_poly,
    loop_bracket,
    qp_bracket,
    qp_product,
    t0_embed,
    t0_slices,
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
    z12 = SuperPoly.monomial(sig, sig.zero_exps(), 0b11)
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
            x += VectorField(sig12, {(exps, mask, tag): c})
        assert all(tag[0] != "dt" for (_, _, tag) in x.terms)
    e = (2, -1)
    x = VectorField(sig12, {(e, 0b01, ("dt", 1)): 3})
    assert x.terms == {((2, -2), 0b01, ("d", 1)): 3}
    assert (x - VectorField(sig12, {((2, -2), 0b01, ("d", 1)): 3})).is_zero()
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
            x += VectorField(sig12, {(exps, mask, tag): c})
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


def test_special_partial_weights_match_adjoint(sig12, sampler):
    """The placement data is an adjoint-eigenvalue statement; check it
    against brackets with the diagonal fields, on a special partial
    derivation (a shifted-power field) of each displayed kind."""
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
    # (t_0-1)(t_1-1) d/dt_1, (t_0-1) ζ_2 ∂_1, (t_0-1)(t_1-1) ζ_1 d/dt_1 and
    # (t_0-1)(t_1-1)^2 ζ_1 ζ_2 d/dt_0
    cases = [
        VectorField.from_poly_tag(shift_basis(sig, pos, (0, 0), mask), tag)
        for pos, mask, tag in [((1, 1), 0, ("dt", 1)), ((1, 0), 0b10, ("q", 1)),
                               ((1, 1), 0b01, ("dt", 1)), ((1, 2), 0b11, ("dt", 0))]
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
    from rinehart.superpoly import mask_indices

    sig = sig12
    for _ in range(60):
        pos = sampler.pos_exps(sig)
        mask = sampler.mask(sig.n)
        coeff = shift_basis(sig, pos, (0,) * sig.nvars, mask)
        k = sampler.rng.randint(1, sig.n)
        w = weight_of(VectorField.from_poly_tag(coeff, ("q", k)))
        assert w.hprime == pos
        dI = tuple(int(i in mask_indices(mask)) for i in range(1, sig.n + 1))
        dk = [0] * sig.n
        dk[k - 1] = 1
        assert w.h == tuple(a - b for a, b in zip(dI, dk))

        j = sampler.rng.choice(list(sig.tvars()))
        w = weight_of(VectorField.from_poly_tag(coeff, ("dt", j)))
        ej = [0] * sig.nvars
        ej[sig.tpos(j)] = 1
        assert w.hprime == tuple(p - e for p, e in zip(pos, ej))
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
    u = t0_embed(1, one)
    v = t0_embed(-1, one)
    assert loop_bracket(u, v) == t0_embed(0, one * (-2))

    x = QPElement.from_field(VectorField.basis(dot, ("q", 1)))
    y = QPElement.from_field(VectorField.from_poly_tag(SuperPoly.zeta(dot, 1), ("q", 1)))
    got = loop_bracket(t0_embed(2, x), t0_embed(3, y))
    assert got == t0_embed(5, qp_bracket(x, y))
    got = loop_bracket(t0_embed(0, x), t0_embed(0, y))
    assert got == t0_embed(0, qp_bracket(x, y))


def test_loop_der_correspondence(sig11, sampler):
    """t_0^r ⊗ (a ⊕ x) is stored as the field t_0^r·a·t_0 d/dt_0 + t_0^r·x.
    The loop bracket and action, computed slice by slice, are then the
    field bracket and action of the full algebra."""
    dot = sig11.dotted()
    one = QPElement.from_poly(SuperPoly.one(dot))
    assert t0_embed(1, one) == VectorField.from_poly_tag(
        SuperPoly.t_var(sig11, 0), ("d", 0)
    )
    q = QPElement.from_field(VectorField.basis(dot, ("q", 1)))
    assert t0_embed(0, q) == VectorField.basis(sig11, ("q", 1))
    # oracle: the full-signature bracket and action
    for _ in range(80):
        x = sampler.loop_qp(sig11)
        y = sampler.loop_qp(sig11)
        assert loop_bracket(x, y) == vf_bracket(x, y)
        f = sampler.monomial(sig11)
        assert loop_apply_to_poly(x, f) == x.apply(f)


# ---------- the t_0 split ----------

@pytest.mark.parametrize("m,n", [(1, 1), (2, 3)])
def test_t0_slices_and_t0_embed_are_inverse(m, n):
    """Slicing a sampled element by its t_0 exponent and embedding each
    slice back gives the element; a slice embedded and sliced again is
    itself.  A field slices to QPElements, every other type to itself."""
    full = Signature(m, n)
    omega = natural_module(m, n)
    s = Sampler(random.Random(f"t0:{m}:{n}"), 2)
    for _ in range(30):
        tensor = s.tensor(full, omega) + s.loop_tensor(full, omega) + s.tensor(full, omega)
        for x in (s.poly(full, 3), s.field(full, 3, "dtq"), s.loop_qp(full), tensor):
            slices = t0_slices(x)
            kind = QPElement if type(x) is VectorField else type(x)
            back = type(x).zero(full)
            for r, v in slices.items():
                assert type(v) is kind and v.sig is full.dotted() and v
                assert t0_slices(t0_embed(r, v)) == {r: v}
                back += t0_embed(r, v)
            assert back == x


def test_field_slices_keep_t0_euler_terms_as_the_algebra_summand():
    """A field's t_0 d/dt_0 terms and a QPElement's algebra summand share
    the tag ('d', 0), so each slice's `a` is the field's t_0 d/dt_0
    coefficient at that t_0 power."""
    full = Signature(1, 2)
    dot = full.dotted()
    x = VectorField(full, {((2, -1), 1, ("d", 0)): 3, ((2, 0), 0, ("q", 2)): 1,
                           ((-1, 1), 0, ("d", 1)): 2, ((-1, 0), 2, ("d", 0)): 5})
    assert t0_slices(x) == {
        2: QPElement.pair(SuperPoly.monomial(dot, (-1,), 1, 3),
                          VectorField.basis(dot, ("q", 2))),
        -1: QPElement.pair(SuperPoly.monomial(dot, (0,), 2, 5),
                           VectorField(dot, {((1,), 0, ("d", 1)): 2})),
    }
    d0 = x.coefficient_polys()[("d", 0)]
    for r, qp in t0_slices(x).items():
        assert qp.a == t0_slices(d0)[r]


def test_t0_helpers_refuse_the_wrong_signature():
    full = Signature(1, 1)
    dot = full.dotted()
    for x in (SuperPoly.one(dot), VectorField.basis(dot, ("q", 1)),
              QPElement.from_poly(SuperPoly.one(dot)), TensorVec.basis(dot, (0,), 0, 0)):
        with pytest.raises(ValueError, match="full signature"):
            t0_slices(x)
    for x in (SuperPoly.one(full), VectorField.basis(full, ("d", 0)),
              TensorVec.basis(full, (0, 0), 0, 0)):
        with pytest.raises(ValueError, match="t_0-free signature"):
            t0_embed(0, x)


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
            key = (draw(st.tuples(*[st.integers(-2, 2)] * sig.nvars)),
                   draw(st.integers(0, (1 << sig.n) - 1)), (kind, idx))
            out += VectorField(sig, {key: Scalar(
                Fraction(draw(st.integers(-3, 3)), draw(st.integers(1, 3))),
                draw(st.integers(-1, 1)))})
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


# ---------- along: p·∂ with ('d', 0) as the algebra summand ----------

@pytest.mark.parametrize("m,n", [(1, 1), (1, 2), (2, 1), (2, 2)])
def test_along_matches_the_per_site_constructions(m, n):
    """`along` (conftest) agrees with the constructions it replaced, the
    ψ-subscript and φ̂-tag of the loop module; and the field f·∂_α by which
    the loop module acts slices into the QPElements spelled out here by
    cases."""
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
            subscript = QPElement.from_field(VectorField(dot, {(exps, mask, tag): 1}))
            hat = QPElement.from_field(VectorField.basis(dot, tag))
        assert along(mono, tag) == subscript
        assert along(SuperPoly.one(dot), tag) == hat

    f = SuperPoly.monomial(full, (1,) + (-1,) * m, 1) + SuperPoly.t_var(full, 0, -2)
    for alpha in range(m + n + 1):
        want = {}
        for r0, a in t0_slices(f).items():
            if alpha == 0:
                qp = QPElement.from_poly(a)
            elif alpha <= m:
                qp = QPElement.from_field(VectorField.from_poly_tag(a, ("d", alpha)))
            else:
                qp = QPElement.from_field(VectorField.from_poly_tag(a, ("q", alpha - m)))
            want[r0] = qp
        assert t0_slices(VectorField.from_poly_tag(f, full.dir_tag(alpha))) == want


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
    for refuse in (lambda: dot.check_tag(("d", 0)),
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
