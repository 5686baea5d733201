import copy
import itertools
import math
import pickle
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rinehart.glmatrix import GlMatrix
from rinehart.scalars import Scalar
from rinehart.smash import theta_project
from rinehart.superpoly import (
    Signature,
    SuperPoly,
    derive,
    derive_mono,
    filt_degree,
    mask_indices,
    merge_masks,
    mono_apply,
    mono_mul,
    shift_basis,
    shifted_form,
    splus_part,
    weight_of_poly,
)
from rinehart.vectorfields import VectorField

# ---------- independent Grassmann oracle (ordered index lists) ----------

def indices_mask(indices):
    """Bitmask of 1-based ζ indices; the inverse of ``mask_indices``."""
    return sum(1 << (k - 1) for k in indices)


def list_mul(a, b):
    """Sort the concatenation a ++ b counting swaps; None on repeats."""
    seq = list(a) + list(b)
    if len(set(seq)) != len(seq):
        return None
    sign = 1
    for i in range(len(seq)):
        for j in range(len(seq) - 1 - i):
            if seq[j] > seq[j + 1]:
                seq[j], seq[j + 1] = seq[j + 1], seq[j]
                sign = -sign
    return sign, tuple(seq)


def list_derive(k, seq):
    """Left superderivation on an increasing index list via Leibniz."""
    if not seq:
        return None
    head, rest = seq[0], seq[1:]
    if head == k:
        return 1, rest
    tail = list_derive(k, rest)
    if tail is None:
        return None
    sign, reduced = tail
    return -sign, (head,) + reduced


def test_merge_masks_against_list_oracle():
    rng = random.Random(5)
    for _ in range(300):
        a = tuple(sorted(rng.sample(range(1, 7), rng.randint(0, 3))))
        b = tuple(sorted(rng.sample(range(1, 7), rng.randint(0, 3))))
        got = merge_masks(indices_mask(a), indices_mask(b))
        want = list_mul(a, b)
        if want is None:
            assert got == (0, 0)
        else:
            assert got == (want[0], indices_mask(want[1]))


# ---------- spec examples ----------

def test_mul_examples(sig12):
    z1 = SuperPoly.zeta(sig12, 1)
    z2 = SuperPoly.zeta(sig12, 2)
    assert z1 * z2 == SuperPoly.zeta_mask(sig12, 0b11)
    assert z2 * z1 == -SuperPoly.zeta_mask(sig12, 0b11)
    one = SuperPoly.one(sig12)
    t1 = SuperPoly.t_var(sig12, 1)
    t1inv = SuperPoly.t_var(sig12, 1, -1)
    assert (t1 - one) * (t1inv - one) == 2 * one - t1 - t1inv


def test_derive_examples():
    sig = Signature(2, 3, True)
    f = SuperPoly.monomial(sig, (0, 3, -2))
    assert derive(("d", 1), f) == f * 3

    # oracle: signed Leibniz on index lists, frozen expectation -z1
    sign, rest = list_derive(2, (1, 2))
    assert (sign, rest) == (-1, (1,))
    z12 = SuperPoly.zeta_mask(sig, 0b011)
    assert derive(("q", 2), z12) == -SuperPoly.zeta(sig, 1)

    z123 = SuperPoly.zeta_mask(sig, 0b111)
    assert derive(("q", 1), z123) == SuperPoly.zeta_mask(sig, 0b110)


def test_derive_matches_list_oracle():
    sig = Signature(1, 4, True)
    rng = random.Random(9)
    for _ in range(200):
        idx = tuple(sorted(rng.sample(range(1, 5), rng.randint(0, 4))))
        k = rng.randint(1, 4)
        f = SuperPoly.zeta_mask(sig, indices_mask(idx))
        got = derive(("q", k), f)
        want = list_derive(k, idx)
        if want is None:
            assert got.is_zero()
        else:
            sign, rest = want
            assert got == SuperPoly.zeta_mask(sig, indices_mask(rest)) * sign


def test_filt_degree_examples(sig11):
    one = SuperPoly.one(sig11)
    t0 = SuperPoly.t_var(sig11, 0)
    t1 = SuperPoly.t_var(sig11, 1)
    z1 = SuperPoly.zeta(sig11, 1)
    assert filt_degree((t0 - one) ** 2 * z1) == 3
    assert filt_degree(t0 * t1 - one - (t0 - one) - (t1 - one)) == 2
    assert filt_degree(SuperPoly.t_var(sig11, 1, -1) - one) == 1
    assert filt_degree(SuperPoly.zero(sig11)) == math.inf
    assert filt_degree(one) == 0


def test_weight_examples(sig11):
    one = SuperPoly.one(sig11)
    t0 = SuperPoly.t_var(sig11, 0)
    z1 = SuperPoly.zeta(sig11, 1)
    w = weight_of_poly((t0 - one) ** 2 * z1)
    assert w.hprime == (2, 0)
    assert w.h == (1,)
    with pytest.raises(ValueError):
        weight_of_poly(t0 - one + z1)
    with pytest.raises(ValueError):
        weight_of_poly(SuperPoly.t_var(sig11, 0, -1))


# ---------- invariants ----------

small_exp = st.integers(min_value=-3, max_value=3)
small_mask = st.integers(min_value=0, max_value=3)


def mono(sig, e0, e1, mask, num):
    return SuperPoly.monomial(sig, (e0, e1), mask, Scalar(Fraction(num, 2)))


@settings(max_examples=150, deadline=None)
@given(small_exp, small_exp, small_mask, small_exp, small_exp, small_mask,
       st.integers(min_value=1, max_value=5), st.integers(min_value=1, max_value=5))
def test_supercommutativity(a0, a1, ma, b0, b1, mb, ca, cb):
    sig = Signature(1, 2, True)
    f = mono(sig, a0, a1, ma, ca)
    g = mono(sig, b0, b1, mb, cb)
    sign = (-1) ** (f.parity() * g.parity())
    assert f * g == sign * (g * f)


@settings(max_examples=100, deadline=None)
@given(small_exp, small_mask, small_exp, small_mask, small_exp, small_mask)
def test_associativity(a0, ma, b0, mb, c0, mc):
    sig = Signature(1, 2, True)
    f = mono(sig, a0, 1, ma, 1)
    g = mono(sig, b0, -1, mb, 3)
    h = mono(sig, c0, 0, mc, -2 or 1)
    assert (f * g) * h == f * (g * h)


@settings(max_examples=100, deadline=None)
@given(small_exp, small_mask, small_exp, small_mask,
       st.sampled_from([("d", 0), ("d", 1), ("dt", 0), ("dt", 1), ("q", 1), ("q", 2)]))
def test_signed_leibniz(a0, ma, b0, mb, tag):
    sig = Signature(1, 2, True)
    f = mono(sig, a0, 2, ma, 1)
    g = mono(sig, b0, -2, mb, 3)
    sign = -1 if tag[0] == "q" and f.parity() else 1
    assert derive(tag, f * g) == derive(tag, f) * g + sign * (f * derive(tag, g))


def test_filtration_superadditivity(sig12, sampler):
    for _ in range(200):
        f = sampler.monomial(sig12)
        g = sampler.poly(sig12)
        assert filt_degree(f * g) >= filt_degree(f) + filt_degree(g)


def test_mods2_congruences(sig12, sampler):
    one = SuperPoly.one(sig12)
    for _ in range(100):
        rbar = sampler.exps(sig12)
        tmon = SuperPoly.monomial(sig12, rbar)
        lin = SuperPoly.zero(sig12)
        for i in sig12.tvars():
            lin += (SuperPoly.t_var(sig12, i) - one) * rbar[sig12.tpos(i)]
        assert filt_degree(tmon - one - lin) >= 2
        for k in (1, 2):
            zk = SuperPoly.zeta(sig12, k)
            assert filt_degree(tmon * zk - zk) >= 2


def test_splus_part_rewrite(sig11, sampler):
    for k, kprime in ((1, 3), (2, 3)):
        for _ in range(40):
            pos, neg, mask = sampler.shifted_basis(sig11, k)
            f = shift_basis(sig11, pos, neg, mask)
            g = splus_part(sig11, pos, neg, mask, kprime)
            assert all(e >= 0 for e in g.min_t_exponents())
            if g:
                assert filt_degree(g) >= k
            assert filt_degree(f - g) >= kprime


def test_signatures_are_interned():
    sig = Signature(1, 2)
    assert sig is Signature(1, 2, True) is Signature(m=1, n=2, includes_t0=True)
    assert sig.dotted() is Signature(1, 2, False)
    assert sig.dotted().full() is sig
    assert sig != Signature(2, 1) and sig != sig.dotted()
    assert hash(sig) == hash((1, 2, True))
    # the hash is stored once, at interning; a copy or a pickle is the same object
    assert copy.copy(sig) is sig and pickle.loads(pickle.dumps(sig)) is sig
    assert sig._hash == hash(copy.deepcopy(sig)) == hash((1, 2, True))
    assert (sig.m, sig.n, sig.includes_t0, sig.nvars) == (1, 2, True, 2)
    assert sig.dotted().nvars == 1


@pytest.mark.parametrize("m,n", [(1, 1), (2, 3)])
def test_signature_keeps_its_other_kind(m, n):
    """dotted() and full() hand back the interned partner, kept after the
    first call; a pickle still reads back as the same object."""
    full, dot = Signature(m, n, True), Signature(m, n, False)
    assert full.dotted() is dot and dot.full() is full
    assert full.dotted().full() is full and dot.full().dotted() is dot
    assert full.full() is full and dot.dotted() is dot
    for sig in (full, dot):
        assert pickle.loads(pickle.dumps(sig)) is sig
        assert pickle.loads(pickle.dumps(sig.dotted())).full() is full


def test_invalid_signature_raises_every_time_and_is_never_cached():
    for _ in range(3):
        for m, n in ((0, 1), (1, 0), (-1, 2)):
            with pytest.raises(ValueError, match="m >= 1 and n >= 1"):
                Signature(m, n)
    assert all(sig.m >= 1 and sig.n >= 1 for sig in Signature._interned.values())


# ---------- the gl(m+1, n) direction convention ----------

SIGS = [Signature(m, n, t0) for m in (1, 2) for n in (1, 2) for t0 in (True, False)]


@pytest.mark.parametrize("sig", SIGS, ids=repr)
def test_direction_tags_round_trip_with_parity(sig):
    from rinehart.vectorfields import tag_parity

    assert list(sig.directions()) == list(range(sig.m + sig.n + 1))
    for alpha in range(sig.m + sig.n + 1):
        tag = sig.dir_tag(alpha)
        assert tag == (("d", alpha) if alpha <= sig.m else ("q", alpha - sig.m))
        assert sig.dir_of(tag) == alpha
        assert sig.dir_parity(alpha) == tag_parity(tag)
        for beta in range(sig.m + sig.n + 1):
            assert sig.gl_parity(alpha, beta) == ((alpha > sig.m) != (beta > sig.m))
    with pytest.raises(ValueError, match="no direction index"):
        sig.dir_of(("dt", 1))


@pytest.mark.parametrize("sig", SIGS, ids=repr)
def test_tag_lists_keep_their_order(sig):
    euler = [("d", i) for i in sig.tvars()]
    plain = [("dt", i) for i in sig.tvars()]
    odd = [("q", k) for k in range(1, sig.n + 1)]
    assert sig.tags() == sig.tags("dq") == euler + odd
    assert sig.tags("dtq") == sig.tags("qtd") == euler + plain + odd
    assert sig.tags("tq") == plain + odd
    assert sig.tags("d") == euler and sig.tags("q") == odd


# ---------- term-level kernels ----------

def test_mono_mul_against_list_oracle_and_product():
    rng = random.Random(11)
    for n in range(1, 5):
        sig = Signature(1, n, True)
        for ma in range(1 << n):
            for mb in range(1 << n):
                ea = (rng.randint(-3, 3), rng.randint(-3, 3))
                eb = (rng.randint(-3, 3), rng.randint(-3, 3))
                sign, exps, mask = mono_mul(ea, ma, eb, mb)
                want = list_mul(mask_indices(ma), mask_indices(mb))
                prod = SuperPoly.monomial(sig, ea, ma) * SuperPoly.monomial(sig, eb, mb)
                if want is None:
                    assert sign == 0
                    assert prod.is_zero()
                    continue
                assert (sign, mask) == (want[0], indices_mask(want[1]))
                assert exps == (ea[0] + eb[0], ea[1] + eb[1])
                assert prod == SuperPoly.monomial(sig, exps, mask, sign)


def test_derive_mono_and_mono_apply_match_derive():
    rng = random.Random(12)
    for sig in (Signature(2, 3, True), Signature(2, 3, False)):
        for tag in sig.tags():
            for mask in range(1 << sig.n):
                exps = tuple(rng.randint(-3, 3) for _ in range(sig.nvars))
                factor, e2, m2 = derive_mono(tag, sig, exps, mask)
                want = derive(tag, SuperPoly.monomial(sig, exps, mask))
                got = SuperPoly.monomial(sig, e2, m2, factor) if factor else SuperPoly.zero(sig)
                assert got == want
                left = tuple(rng.randint(-3, 3) for _ in range(sig.nvars))
                lmask = rng.randrange(1 << sig.n)
                factor, e3, m3 = mono_apply(tag, sig, left, lmask, exps, mask)
                want = SuperPoly.monomial(sig, left, lmask) * want
                got = SuperPoly.monomial(sig, e3, m3, factor) if factor else SuperPoly.zero(sig)
                assert got == want
    with pytest.raises(ValueError):
        derive_mono(("q", 4), Signature(2, 3, True), (0, 0, 0), 0)
    with pytest.raises(ValueError):
        derive_mono(("x", 1), Signature(2, 3, True), (0, 0, 0), 0)
    # fields and smash terms store no plain d/dt_i, so derive_mono takes none
    with pytest.raises(ValueError):
        derive_mono(("dt", 1), Signature(2, 3, True), (0, 0, 0), 0)


# Reference Taylor data, independent of the library's shifted_form:
# multiply by the unit t^N that clears negative exponents, expand each
# t^e as Π Σ_j C(e_p, j) u_p^j, and collect by (u-exponents, mask).

def ref_shifted(f):
    mins = [min([0] + [exps[p] for (exps, _m) in f.terms]) for p in range(f.sig.nvars)]
    out = {}
    for (exps, mask), c in f.terms.items():
        cleared = [e - lo for e, lo in zip(exps, mins)]
        for js in itertools.product(*(range(e + 1) for e in cleared)):
            w = math.prod(math.comb(e, j) for e, j in zip(cleared, js))
            key = (js, mask)
            out[key] = out.get(key, Scalar(0)) + c * w
    return {k: c for k, c in out.items() if c}


def ref_filt_degree(f):
    sf = ref_shifted(f)
    if not sf:
        return math.inf
    return min(sum(ue) + bin(mask).count("1") for (ue, mask) in sf)


def ref_mods2_linear(f):
    sf = ref_shifted(f)
    if any(not any(ue) and not mask for (ue, mask) in sf):
        raise ValueError("element is not in the vanishing ideal")
    tvars = list(f.sig.tvars())
    tco, zco = {}, {}
    for (ue, mask), c in sf.items():
        if sum(ue) == 1 and not mask:
            tco[tvars[ue.index(1)]] = c
        elif not any(ue) and bin(mask).count("1") == 1:
            zco[mask.bit_length()] = c
    return tco, zco


gauss = st.builds(
    lambda re, im, den: Scalar(Fraction(re, den), Fraction(im, den)),
    st.integers(-4, 4), st.integers(-2, 2), st.integers(1, 3),
).filter(bool)


@st.composite
def laurent_grassmann(draw):
    """A random element, optionally pushed into S or S² by construction."""
    sig = Signature(draw(st.integers(1, 2)), draw(st.integers(1, 3)), draw(st.booleans()))
    terms = draw(st.lists(
        st.tuples(
            st.tuples(*[st.integers(-3, 3)] * sig.nvars),
            st.integers(0, (1 << sig.n) - 1),
            gauss,
        ),
        min_size=1, max_size=5,
    ))
    f = SuperPoly.zero(sig)
    for exps, mask, c in terms:
        f += SuperPoly.monomial(sig, exps, mask, c)
    one = SuperPoly.one(sig)
    ideal = [SuperPoly.t_var(sig, i) - one for i in sig.tvars()]
    ideal += [SuperPoly.zeta(sig, k) for k in range(1, sig.n + 1)]
    for _ in range(draw(st.integers(0, 2))):  # into S, then S²
        f = f * draw(st.sampled_from(ideal))
    if draw(st.booleans()):  # subtract the constant Taylor term: into S
        f = f - SuperPoly.scalar(sig, sum(
            (c for (_e, m), c in f.terms.items() if not m), Scalar(0)))
    return f


def on_full(f):
    """f over the full signature (t_0 exponent 0 on a t_0-free f)."""
    if f.sig.includes_t0:
        return f
    return SuperPoly(f.sig.full(), {((0,) + e, m): c for (e, m), c in f.terms.items()})


@settings(max_examples=300, deadline=None)
@given(laurent_grassmann())
def test_taylor_kernel_matches_full_expansion(f):
    """filt_degree, and theta_project's degree-one data of f as the
    coefficient of t_0 d/dt_0 (column 0), against the full expansion."""
    assert filt_degree(f) == ref_filt_degree(f)
    x = VectorField.from_poly_tag(on_full(f), ("d", 0))
    try:
        tco, zco = ref_mods2_linear(f)
    except ValueError:
        with pytest.raises(ValueError, match="not in the vanishing ideal"):
            theta_project(x)
    else:
        terms = {(i, 0): c for i, c in tco.items()}
        terms.update({(f.sig.m + k, 0): c for k, c in zco.items()})
        assert theta_project(x) == GlMatrix(x.sig, terms)
    if all(e >= 0 for e in f.min_t_exponents()):
        assert shifted_form(f) == ref_shifted(f)


@pytest.mark.parametrize("order", range(7))
def test_filt_degree_matches_the_full_expansion_at_each_order(order):
    """f = c·t^e·B + c'·B' with B a `shift_basis` product of order `order`,
    B' one of a higher order, e in [-3, 3]^nvars and Gaussian c, c': the
    truncated expansion reads `order`, as the full expansion does."""
    rng = random.Random(order)

    def product(sig, k):  # a shift_basis product of order exactly k
        mask = indices_mask(rng.sample(range(1, sig.n + 1), rng.randint(0, min(k, sig.n))))
        slots = [0] * (2 * sig.nvars)
        for _ in range(k - bin(mask).count("1")):
            slots[rng.randrange(len(slots))] += 1
        return shift_basis(sig, slots[:sig.nvars], slots[sig.nvars:], mask)

    for sig in (Signature(1, 2, True), Signature(2, 1, True), Signature(2, 2, False)):
        for _ in range(6):
            unit = SuperPoly.monomial(sig, [rng.randint(-3, 3) for _ in range(sig.nvars)],
                                      0, Scalar(rng.randint(1, 3), rng.randint(-2, 2)))
            f = unit * product(sig, order)
            f += product(sig, order + rng.randint(1, 2)) * Scalar(rng.randint(-2, 2), 1)
            assert filt_degree(f) == ref_filt_degree(f) == order


def test_theta_project_rejects_coefficient_outside_s():
    sig = Signature(1, 1, True)
    one = SuperPoly.one(sig)
    x = VectorField.from_poly_tag(SuperPoly.t_var(sig, 1) - one, ("d", 0))
    x += VectorField.from_poly_tag(SuperPoly.t_var(sig, 1, -1) + one, ("q", 1))
    with pytest.raises(ValueError) as info:
        theta_project(x)
    assert str(info.value) == "coefficient of ('q', 1) is not in the vanishing ideal"


def test_derive_refuses_a_foreign_tag_even_on_zero():
    """derive checks its tag before it reads a term: ('d', 0) and ('dt', 0)
    are no derivations of the dotted algebra, and an unknown or
    out-of-range tag is none anywhere."""
    dot = Signature(2, 2, False)
    full = dot.full()
    for sig, tag in ((dot, ("d", 0)), (dot, ("dt", 0)), (dot, ("x", 1)),
                     (dot, ("q", 3)), (full, ("d", 3)), (full, ("q", 0))):
        for f in (SuperPoly.zero(sig), SuperPoly.one(sig)):
            with pytest.raises(ValueError):
                derive(tag, f)


def test_euler_derivation_is_t_times_the_plain_one():
    """t_i d/dt_i = t_i · d/dt_i: derive's Euler case, which `derive_mono`
    computes, against its own plain exponent shift."""
    rng = random.Random(5)
    for sig in (Signature(2, 2, True), Signature(2, 2, False)):
        for _ in range(40):
            f = SuperPoly(sig, {
                (tuple(rng.randint(-3, 3) for _ in range(sig.nvars)),
                 rng.randrange(1 << sig.n)): rng.randint(-3, 3)
                for _ in range(4)})
            for i in sig.tvars():
                assert derive(("d", i), f) == SuperPoly.t_var(sig, i) * derive(("dt", i), f)


@pytest.mark.parametrize("includes_t0", [True, False])
def test_derive_mono_edges(includes_t0):
    """`derive_mono` reads the Euler position inline and keeps `tpos`'s
    refusal: t_{m+1} and t_{-1} are outside either kind, ζ_0 and ζ_{n+1}
    too; ('d', 0) is t_0 d/dt_0 on the full algebra and 0 on Ȧ."""
    sig = Signature(2, 3, includes_t0)
    exps = tuple(range(5, 5 + sig.nvars))
    for idx in (sig.m + 1, -1):
        with pytest.raises(ValueError, match=f"^variable t{idx} outside signature$"):
            derive_mono(("d", idx), sig, exps, 0b101)
    for k in (0, sig.n + 1):
        with pytest.raises(ValueError, match=f"^variable z{k} outside signature$"):
            derive_mono(("q", k), sig, exps, 0b101)
    for i in sig.tvars():
        assert derive_mono(("d", i), sig, exps, 0b101) == (exps[sig.tpos(i)], exps, 0b101)
    want = exps[0] if includes_t0 else 0
    assert derive_mono(("d", 0), sig, exps, 0b101) == (want, exps, 0b101)


def test_negative_powers_are_refused_with_a_pointer_to_t_var():
    """No power is inverted, not even of a unit monomial; the message says
    so and names the constructor of t_i^-k."""
    sig = Signature(1, 1)
    t1 = SuperPoly.t_var(sig, 1)
    for f in (t1, SuperPoly.one(sig), t1 + SuperPoly.zeta(sig, 1)):
        with pytest.raises(ValueError, match=r"negative powers are refused; t_var\(sig, i, -k\)"):
            f ** -1
    assert t1 ** 3 == SuperPoly.t_var(sig, 1, 3)
    assert SuperPoly.t_var(sig, 1, -1) * t1 == t1 ** 0 == SuperPoly.one(sig)
