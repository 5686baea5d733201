"""The quasi-Poisson and loop products, the field and smash brackets and
the gl projection are term loops; these references are the forms they
replaced (split by parity, one SuperPoly or VectorField per partial
product, one bracket per smash term pair, one SuperPoly per projected
coefficient), kept to check the loops term for term."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rinehart.glmatrix import GlMatrix
from rinehart.scalars import ONE, Scalar
from rinehart.smash import SmashElement, smash_commutator, theta_project
from rinehart.superpoly import Signature, SuperPoly, mask_size, mono_apply, mono_mul, shift_basis
from rinehart.vectorfields import (
    QPElement,
    VectorField,
    loop_bracket,
    qp_bracket,
    qp_product,
    tag_parity,
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


def vf_bracket_reference(x, y):
    """[aδ, bγ] with both derivatives taken by `mono_apply` for every term
    pair and ca·cb formed first."""
    sig = x.sig
    out = x._trusted(sig, {})
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
                out._iadd_term((e2, m2, ta), coef * ((1 if pa & pb else -1) * f))
    return out


def smash_commutator_reference(u, v):
    """The smash bracket with [pδ, qγ] taken as the bracket of two
    one-term fields for every term pair."""
    sig = u.sig
    out = SmashElement.zero(sig)
    for (ae, am, pe, pm, ta), ca in u.terms.items():
        pa = (mask_size(am) + mask_size(pm) + (ta is not None and tag_parity(ta))) & 1
        for (ce, cm, qe, qm, tb), cb in v.terms.items():
            pb = (mask_size(cm) + mask_size(qm) + (tb is not None and tag_parity(tb))) & 1
            coef = ca * cb
            big_sign = -1 if (pa & pb) else 1
            if ta is not None:
                f, e, m = mono_apply(ta, sig, pe, pm, ce, cm)
                if f:
                    s, e, m = mono_mul(ae, am, e, m)
                    if s:
                        out._iadd_term((e, m, qe, qm, tb), coef * (f * s))
            if tb is not None:
                f, e, m = mono_apply(tb, sig, qe, qm, ae, am)
                if f:
                    s, e, m = mono_mul(ce, cm, e, m)
                    if s:
                        out._iadd_term((e, m, pe, pm, ta), coef * (-big_sign * f * s))
            if ta is not None and tb is not None:
                p_par = (mask_size(pm) + tag_parity(ta)) & 1
                sign = -1 if (mask_size(cm) & 1 & p_par) else 1
                s_ac, e1, m1 = mono_mul(ae, am, ce, cm)
                if not s_ac:
                    continue
                br = vf_bracket_reference(VectorField._trusted(sig, {(pe, pm, ta): ONE}),
                                          VectorField._trusted(sig, {(qe, qm, tb): ONE}))
                for (e2, m2, t2), c2 in br.terms.items():
                    out._iadd_term((e1, m1, e2, m2, t2), coef * (sign * s_ac) * c2)
    return out


def mods2_linear_reference(f):
    """Degree-one data ({t_i: c}, {ζ_k: c}) of f ∈ S modulo S², t rows in
    variable order, then ζ rows; ValueError when f ∉ S."""
    const, lin_t, lin_z = Scalar(0), [Scalar(0)] * f.sig.nvars, [Scalar(0)] * f.sig.n
    for (exps, mask), c in f.terms.items():
        if not mask:
            const += c
            lin_t = [lt + c * e for lt, e in zip(lin_t, exps)]
        elif mask_size(mask) == 1:
            lin_z[mask.bit_length() - 1] += c
    if const:
        raise ValueError("element is not in the vanishing ideal")
    return ({i: c for i, c in zip(f.sig.tvars(), lin_t) if c},
            {k: c for k, c in enumerate(lin_z, 1) if c})


def theta_project_reference(x):
    """The projection through one SuperPoly per tag (`coefficient_polys`)."""
    sig = x.sig
    out = GlMatrix.zero(sig)
    for tag, coeff in x.coefficient_polys().items():
        try:
            tcoeffs, zcoeffs = mods2_linear_reference(coeff)
        except ValueError:
            raise ValueError(f"coefficient of {tag} is not in the vanishing ideal") from None
        col = sig.dir_of(tag)
        for i, c in tcoeffs.items():
            out._iadd_term((i, col), c)
        for k, c in zcoeffs.items():
            out._iadd_term((sig.dir_of(("q", k)), col), c)
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


FULL = [s.full() for s in SIGS]


@st.composite
def smash_pairs(draw):
    sig = draw(st.sampled_from(FULL))

    def element():  # Σ a # b·∂ and Σ a # 1
        terms = {}
        for (ae, am), (be, bm), tag, c in draw(st.lists(st.tuples(
                monomials(sig), monomials(sig), st.sampled_from(sig.tags() + [None]),
                scalars()), max_size=3)):
            if tag is None:
                be, bm = sig.zero_exps(), 0
            terms[(ae, am, be, bm, tag)] = c
        return SmashElement(sig, terms)

    return element(), element()


@st.composite
def projectable_fields(draw):
    """A full-signature field; with `into_s`, each tag's constant Taylor
    term is cancelled by a t^0 term added (or changed) under that tag."""
    x = draw(fields(draw(st.sampled_from(FULL))))
    if draw(st.booleans()):
        z = x.sig.zero_exps()
        for tag in {tag: None for (_e, _m, tag) in x.terms}:
            const = sum((c for (_e, m, t), c in x.terms.items() if t == tag and not m),
                        Scalar(0))
            x._iadd_term((z, 0, tag), -const)
    return x


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


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(SIGS + FULL).flatmap(lambda sig: st.tuples(fields(sig), fields(sig))))
def test_vf_bracket_matches_the_per_pair_form_in_order(pair):
    x, y = pair
    assert list(vf_bracket(x, y).terms.items()) == list(vf_bracket_reference(x, y).terms.items())


@settings(max_examples=150, deadline=None)
@given(smash_pairs())
def test_smash_commutator_matches_the_per_pair_bracket_in_order(pair):
    u, v = pair
    got, want = smash_commutator(u, v), smash_commutator_reference(u, v)
    assert list(got.terms.items()) == list(want.terms.items())


@settings(max_examples=150, deadline=None)
@given(projectable_fields())
def test_theta_project_matches_the_per_tag_form_in_order(x):
    """Equal GlMatrix terms in the same key order, or the same refusal,
    naming the same tag."""
    try:
        want = theta_project_reference(x)
    except ValueError as exc:
        with pytest.raises(ValueError) as info:
            theta_project(x)
        assert str(info.value) == str(exc)
    else:
        assert list(theta_project(x).terms.items()) == list(want.terms.items())


def test_theta_project_names_the_first_tag_outside_s_in_term_order():
    sig = Signature(1, 2, True)
    z = sig.zero_exps()
    x = VectorField(sig, {((1, 0), 0, ("d", 1)): 1, ((0, 0), 0, ("d", 1)): -1,
                          (z, 0b10, ("q", 2)): 1, (z, 0, ("q", 2)): 3,
                          ((0, 2), 0, ("d", 0)): 1})
    for first, keys in ((("q", 2), list(x.terms)), (("d", 0), list(x.terms)[::-1])):
        y = VectorField._trusted(sig, {key: x.terms[key] for key in keys})
        with pytest.raises(ValueError) as info:
            theta_project(y)
        assert str(info.value) == f"coefficient of {first} is not in the vanishing ideal"
