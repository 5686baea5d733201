"""The shared sparse container: one term-map algebra for all six types.

Every container's `+`, `-`, negation and scalar `*` is compared with the
same arithmetic done here on plain dicts; signatures, operand types and
hashability are checked type by type.  A field and a smash b-side store a
plain d/dt_i as t_i^{-1}·(t_i d/dt_i); the reference applies the same
rewrite to its dicts.
"""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rinehart.glmatrix import GlMatrix
from rinehart.scalars import Scalar
from rinehart.smash import SmashElement, make_X
from rinehart.superpoly import Signature, SuperPoly, derive, shift_basis
from rinehart.tensorqp import TensorVec
from rinehart.vectorfields import QPElement, VectorField

FULL = Signature(1, 2)
DOT = FULL.dotted()

EXPS_FULL = st.tuples(st.integers(-1, 1), st.integers(-1, 1))
EXPS_DOT = st.tuples(st.integers(-1, 1))
MASKS = st.integers(0, 3)
TAGS = st.sampled_from([("d", 0), ("d", 1), ("dt", 1), ("q", 1), ("q", 2)])
# a QPElement's algebra summand is stored under the t_0-Euler tag ('d', 0)
QP_TAGS = st.sampled_from([("d", 0), ("d", 1), ("q", 1), ("q", 2)])
# small values, zero included, so that sums cancel often
SCALARS = st.builds(
    lambda re, im: Scalar(Fraction(re, 2), im), st.integers(-2, 2), st.integers(-1, 1)
)
GL_INDEX = st.integers(0, FULL.m + FULL.n)


def _terms(keys, values=SCALARS):
    return st.dictionaries(keys, values, max_size=5)


SMASH_KEYS = st.one_of(
    st.tuples(EXPS_FULL, MASKS, EXPS_FULL, MASKS, TAGS),
    st.tuples(EXPS_FULL, MASKS, st.just((0, 0)), st.just(0), st.just(None)),
)

# type -> (signature, strategy for the `terms` argument)
KINDS = {
    SuperPoly: (FULL, _terms(st.tuples(EXPS_FULL, MASKS))),
    VectorField: (FULL, _terms(st.tuples(EXPS_FULL, MASKS, TAGS))),
    QPElement: (DOT, _terms(st.tuples(EXPS_DOT, MASKS, QP_TAGS))),
    SmashElement: (FULL, _terms(SMASH_KEYS)),
    TensorVec: (DOT, _terms(st.tuples(EXPS_DOT, MASKS, st.integers(0, 2)))),
    GlMatrix: (FULL, _terms(st.tuples(GL_INDEX, GL_INDEX))),
}
HASHABLE = (SuperPoly, VectorField)


def _ref_build(terms: dict) -> dict:
    return {k: c for k, c in terms.items() if c != 0}


def _ref_stored(cls, terms: dict) -> dict:
    """The terms as `cls` stores them: in a VectorField or SmashElement
    key (..., exps, mask, ('dt', i)) becomes (..., exps - e_i, mask,
    ('d', i)), and keys that meet are summed.  Both use FULL, where t_i
    sits at position i."""
    out = {}
    for key, c in terms.items():
        if cls in (VectorField, SmashElement) and key[-1] and key[-1][0] == "dt":
            *head, exps, mask, (_, i) = key
            exps = tuple(e - (p == i) for p, e in enumerate(exps))
            key = (*head, exps, mask, ("d", i))
        out[key] = out[key] + c if key in out else c
    return out


def _ref_combine(a: dict, b: dict, sign: int) -> dict:
    out = dict(a)
    for k, c in b.items():
        c = c if sign > 0 else c * -1
        out[k] = out[k] + c if k in out else c
    return _ref_build(out)


def _check(result, cls, ref: dict):
    """`+ - neg` and scalar `*` store their results unchecked, so each must
    hold only nonzero Scalar coefficients, and equal the same terms built
    through the public constructor."""
    assert type(result) is cls
    assert result.sig is KINDS[cls][0]
    assert result.terms == ref
    assert all(type(c) is Scalar and c != 0 for c in result.terms.values())
    assert result == cls(result.sig, ref)
    assert bool(result) == bool(ref) == (not result.is_zero())


@pytest.mark.parametrize("cls", list(KINDS), ids=lambda c: c.__name__)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_arithmetic_matches_plain_dicts(cls, data):
    sig, terms = KINDS[cls]
    ta, tb = data.draw(terms), data.draw(terms)
    if data.draw(st.booleans()):  # force cancellations
        tb.update({k: c * -1 for k, c in ta.items()})
    a, b = cls(sig, ta), cls(sig, tb)
    ra, rb = _ref_build(_ref_stored(cls, ta)), _ref_build(_ref_stored(cls, tb))
    _check(a, cls, ra)
    _check(cls.zero(sig), cls, {})
    _check(a + b, cls, _ref_combine(ra, rb, 1))
    _check(a - b, cls, _ref_combine(ra, rb, -1))
    _check(a - a, cls, {})
    _check(-a, cls, _ref_build({k: c * -1 for k, c in ra.items()}))
    for s in (0, 1, -1, -3, Fraction(2, 3), Scalar(0), Scalar(Fraction(1, 2), -1)):
        ref = _ref_build({k: c * s for k, c in ra.items()})
        _check(a * s, cls, ref)
        _check(s * a, cls, ref)
    assert a == cls(sig, ta)
    assert (a == b) == (ra == rb)
    _check(a, cls, ra)  # no result shares or changed its operand's terms


def _nonzero_element(cls, sig):
    if cls is SuperPoly:
        return SuperPoly.one(sig)
    if cls is VectorField:
        return VectorField.basis(sig, ("q", 1))
    if cls is QPElement:
        return QPElement.from_poly(SuperPoly.one(sig))
    if cls is SmashElement:
        return SmashElement(sig, {(sig.zero_exps(), 0, sig.zero_exps(), 0, None): 1})
    if cls is TensorVec:
        return TensorVec.basis(sig, sig.zero_exps(), 1, 0)
    return GlMatrix.elementary(sig, 0, 0)


@pytest.mark.parametrize("cls", list(KINDS), ids=lambda c: c.__name__)
def test_signature_mismatch_raises(cls):
    full = KINDS[cls][0].includes_t0
    s1, s2 = Signature(1, 1, full), Signature(1, 2, full)
    x, y = _nonzero_element(cls, s1), _nonzero_element(cls, s2)
    for op in (lambda u, v: u + v, lambda u, v: u - v):
        with pytest.raises(ValueError, match="signature mismatch"):
            op(x, y)
        with pytest.raises(ValueError, match="signature mismatch"):
            op(y, x)


@pytest.mark.parametrize(
    "cls1,cls2", list(itertools.permutations(KINDS, 2)),
    ids=lambda c: c.__name__,
)
def test_cross_type_addition_raises(cls1, cls2):
    x = _nonzero_element(cls1, KINDS[cls1][0])
    y = _nonzero_element(cls2, KINDS[cls2][0])
    with pytest.raises(TypeError):
        x + y
    with pytest.raises(TypeError):
        x - y
    assert x != y


@pytest.mark.parametrize("cls", list(KINDS), ids=lambda c: c.__name__)
def test_hashability(cls):
    sig = KINDS[cls][0]
    x = _nonzero_element(cls, sig)
    if cls in HASHABLE:
        assert hash(x) == hash(x * 1)
        assert {x: 1}[x * 1] == 1
    else:
        with pytest.raises(TypeError):
            hash(x)


def test_parity_hooks():
    tv = TensorVec.basis(DOT, (0,), 1, 0) + TensorVec.basis(DOT, (0,), 0, 1)
    assert tv.parity([0, 1, 0]) == 1
    assert tv.parity([0, 0, 0]) is None
    ev, od = tv.even_odd([0, 0, 0])
    assert (ev, od) == (TensorVec.basis(DOT, (0,), 0, 1), TensorVec.basis(DOT, (0,), 1, 0))
    unit = SmashElement(FULL, {((0, 0), 1, (0, 0), 0, None): 1})
    assert unit.parity() == 1
    assert SmashElement.zero(FULL).parity() is None
    x = VectorField.basis(FULL, ("q", 1)) + VectorField.basis(FULL, ("d", 1))
    assert x.parity() is None
    assert [p.parity() for p in x.even_odd()] == [0, 1]
    diag, odd = GlMatrix.elementary(FULL, 0, 0), GlMatrix.elementary(FULL, 0, FULL.m + 1)
    assert (diag.parity(), odd.parity()) == (0, 1)
    assert (diag + odd).parity() is None
    assert (diag + odd).even_odd() == (diag, odd)


@pytest.mark.parametrize("cls", [VectorField, TensorVec], ids=lambda c: c.__name__)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_left_mul_is_the_product_on_each_label(cls, data):
    """p · Σ t^e ζ_M ⊗ label multiplies the coefficient polynomial of each
    label by p, as SuperPoly products."""
    sig, terms = KINDS[cls]
    x = cls(sig, data.draw(terms))
    p = SuperPoly(sig, data.draw(_terms(st.tuples(EXPS_DOT if sig is DOT else EXPS_FULL,
                                                  MASKS))))
    by_label = {}
    for (exps, mask, label), c in x.terms.items():
        by_label.setdefault(label, {})[(exps, mask)] = c
    ref = {}
    for label, coeff in by_label.items():
        for (exps, mask), c in (p * SuperPoly(sig, coeff)).terms.items():
            ref[(exps, mask, label)] = c
    _check(x.left_mul(p), cls, ref)


# One t and one ζ, t_0-free: the Ȧ at (m, n) = (1, 1).
DOT11 = Signature(1, 1, False)
# (type, signature, key) that the constructor refuses
MALFORMED = {
    "poly: short exponents": (SuperPoly, FULL, ((0,), 0)),
    "poly: long exponents": (SuperPoly, FULL, ((0, 0, 0), 0)),
    "poly: mask 8 at n = 1": (SuperPoly, Signature(1, 1), ((0, 0), 8)),
    "poly: negative mask": (SuperPoly, FULL, ((0, 0), -1)),
    "field: 3 exponents on one t": (VectorField, DOT11, ((0, 0, 0), 0, ("d", 1))),
    "field: mask 4 at n = 2": (VectorField, FULL, ((0, 0), 4, ("q", 1))),
    "field: negative mask": (VectorField, FULL, ((0, 0), -2, ("q", 1))),
    "field: unknown tag": (VectorField, DOT11, ((0,), 0, ("x", 3))),
    "field: t0-Euler on dotted": (VectorField, DOT11, ((0,), 0, ("d", 0))),
    "field: plain t0 on dotted": (VectorField, DOT11, ((0,), 0, ("dt", 0))),
    "field: t_2 at m = 1": (VectorField, FULL, ((0, 0), 0, ("d", 2))),
    "field: z0": (VectorField, FULL, ((0, 0), 0, ("q", 0))),
    "field: z3 at n = 2": (VectorField, FULL, ((0, 0), 0, ("q", 3))),
    "field: no tag": (VectorField, FULL, ((0, 0), 0, None)),
    "qp: short exponents": (QPElement, DOT, ((), 0, ("d", 0))),
    "qp: mask 4 at n = 2": (QPElement, DOT, ((0,), 4, ("d", 0))),
    "qp: unknown tag": (QPElement, DOT, ((0,), 0, ("x", 3))),
    "qp: z3 at n = 2": (QPElement, DOT, ((0,), 0, ("q", 3))),
    "qp: full signature": (QPElement, FULL, ((0, 0), 0, ("d", 1))),
    "smash: short a-exponents": (SmashElement, FULL, ((0,), 0, (0, 0), 0, ("d", 1))),
    "smash: short b-exponents": (SmashElement, FULL, ((0, 0), 0, (0,), 0, ("d", 1))),
    "smash: a-mask 4": (SmashElement, FULL, ((0, 0), 4, (0, 0), 0, ("d", 1))),
    "smash: b-mask 4": (SmashElement, FULL, ((0, 0), 0, (0, 0), 4, ("q", 1))),
    "smash: unknown tag": (SmashElement, FULL, ((0, 0), 0, (0, 0), 0, ("x", 3))),
    "smash: unit with b-exponents": (SmashElement, FULL, ((0, 0), 0, (1, 0), 0, None)),
    "smash: unit with b-mask": (SmashElement, FULL, ((0, 0), 0, (0, 0), 1, None)),
    "smash: unit with short b-exponents": (SmashElement, FULL, ((0, 0), 0, (0,), 0, None)),
    "smash: dotted signature": (SmashElement, DOT, ((0,), 0, (0,), 0, ("q", 1))),
    "tensor: short exponents": (TensorVec, DOT, ((), 0, 0)),
    "tensor: mask 4 at n = 2": (TensorVec, DOT, ((0,), 4, 0)),
    "tensor: index -4": (TensorVec, DOT, ((0,), 0, -4)),
    "tensor: index 1/2": (TensorVec, DOT, ((0,), 0, Fraction(1, 2))),
    "gl: E_7_9 in gl(2, 1)": (GlMatrix, Signature(1, 1), (7, 9)),
    "gl: E_-1_0": (GlMatrix, FULL, (-1, 0)),
    "gl: E_0_4 in gl(2, 2)": (GlMatrix, FULL, (0, 4)),
}

@pytest.mark.parametrize("case", sorted(MALFORMED))
@pytest.mark.parametrize("c", [1, 0])
def test_constructor_refuses_a_malformed_key(case, c):
    """Each type's key hook refuses, with ValueError, a key that is no basis
    key of the type, before the zero coefficient is dropped."""
    cls, sig, key = MALFORMED[case]
    with pytest.raises(ValueError):
        cls(sig, {key: c})


def test_keys_on_the_edge_are_accepted():
    """The t_0-Euler tag is a field's on the full algebra and the algebra
    summand's on Ȧ; the extreme masks, directions and index 0 are in range."""
    assert VectorField(FULL, {((0, 0), 3, ("d", 0)): 1}).terms == {
        ((0, 0), 3, ("d", 0)): 1}
    assert QPElement(DOT, {((0,), 3, ("d", 0)): 1}) == QPElement.from_poly(
        SuperPoly.zeta_mask(DOT, 3))
    assert QPElement(DOT, {((1,), 0, ("dt", 1)): 1}).terms == {((0,), 0, ("d", 1)): 1}
    assert SmashElement(FULL, {((0, 0), 3, (0, 0), 0, None): 1}).parity() == 0
    assert GlMatrix(FULL, {(3, 0): 1, (0, 3): 1}).parity() == 1
    assert TensorVec(DOT, {((0,), 3, 0): 1}).parity([0]) == 0


# sha256 of `check all --m 1 --n 2 --deg 2 --samples 20 --json`, as the
# library reports it with every key checked only where it enters.
CHECK_ALL_12 = "4cc35d08df703e4b01fc9beea41bb4cb583798b88b0b7d787da0c769aabcd004"


def test_trusted_constructions_hold_only_stored_keys(monkeypatch, capsys):
    """Run the key hook on everything the library builds unchecked: each
    term handed to `Sparse._trusted` or added by `_iadd_term` must pass
    its type's `_entry` unchanged (already in stored form, coefficient of
    the stored type), over a signature of the type's kind.  The report is
    the same with the audit in place."""
    import hashlib

    from rinehart.cli import main
    from rinehart.superpoly import Sparse

    seen = set()
    iadd_term = Sparse._iadd_term

    def audit(cls, sig, key, c):
        assert cls._full is None or sig.includes_t0 == cls._full, cls
        assert type(c) is Scalar, (cls, key, c)
        assert cls._entry(sig, key, c) == (key, c), (cls, key)
        seen.add(cls)

    def trusted(cls, sig, terms):
        for key, c in terms.items():
            audit(cls, sig, key, c)
        out = object.__new__(cls)
        out.sig, out.terms = sig, terms
        return out

    def checked_iadd_term(self, key, c):
        audit(type(self), self.sig, key, c)
        iadd_term(self, key, c)

    monkeypatch.setattr(Sparse, "_trusted", classmethod(trusted))
    monkeypatch.setattr(Sparse, "_iadd_term", checked_iadd_term)
    args = ["check", "all", "--m", "1", "--n", "2", "--deg", "2", "--samples", "20",
            "--json"]
    assert main(args) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == CHECK_ALL_12
    assert seen == set(KINDS)


# ---------- library builds that skip the key hook ----------

# the signature kind each type needs; the others take either
NEEDS = {QPElement: False, SmashElement: True}


def _same(got, want):
    """got holds want's terms, in want's order, as nonzero Scalars."""
    assert type(got) is type(want) and got.sig is want.sig
    assert list(got.terms.items()) == list(want.terms.items())
    assert all(type(c) is Scalar and c for c in got.terms.values())


def _rebuilt(x):
    """x through the public constructor: every key runs the key hook."""
    return type(x)(x.sig, dict(x.terms))


@pytest.mark.parametrize("full", [True, False])
@pytest.mark.parametrize("cls", list(KINDS), ids=lambda c: c.__name__)
def test_zero_is_the_empty_public_build(cls, full):
    """`zero` on either signature kind: the public constructor's empty
    element in a dict of its own, or that constructor's refusal."""
    sig = Signature(1, 2, full)
    if NEEDS.get(cls, full) != full:
        with pytest.raises(ValueError) as want:
            cls(sig)
        with pytest.raises(ValueError) as got:
            cls.zero(sig)
        assert str(got.value) == str(want.value)
        return
    z = cls.zero(sig)
    _same(z, cls(sig))
    assert z.terms is not cls.zero(sig).terms


def test_superpoly_constructors_equal_the_public_builds():
    for sig in (FULL, DOT):
        z = sig.zero_exps()
        for c in (1, -3, Fraction(2, 3), Scalar(1, -1), 0, Scalar(0)):
            _same(SuperPoly.scalar(sig, c), SuperPoly(sig, {(z, 0): c}))
        _same(SuperPoly.one(sig), SuperPoly(sig, {(z, 0): 1}))
        for exps in itertools.product(range(-1, 2), repeat=sig.nvars):
            for mask in range(1 << sig.n):
                _same(SuperPoly.monomial(sig, list(exps), mask),
                      SuperPoly(sig, {(exps, mask): 1}))
                for c in (Fraction(-1, 2), Scalar(0, 2), 0):
                    _same(SuperPoly.monomial(sig, exps, mask, c),
                          SuperPoly(sig, {(exps, mask): c}))
        for mask in range(1 << sig.n):
            _same(SuperPoly.zeta_mask(sig, mask), SuperPoly(sig, {(z, mask): 1}))
        for k in range(1, sig.n + 1):
            _same(SuperPoly.zeta(sig, k), SuperPoly(sig, {(z, 1 << (k - 1)): 1}))
        for i in sig.tvars():
            for power in (-2, 0, 1, 3):
                exps = tuple(power if q == i else 0 for q in sig.tvars())
                _same(SuperPoly.t_var(sig, i, power), SuperPoly(sig, {(exps, 0): 1}))


def test_constants_never_share_their_terms():
    """Containers are mutable through `_iadd_term`, so each call must give
    a dict of its own."""
    makers = [
        lambda: SuperPoly.one(FULL), lambda: SuperPoly.scalar(FULL, 2),
        lambda: SuperPoly.t_var(FULL, 1), lambda: SuperPoly.zeta(FULL, 2),
        lambda: SuperPoly.zeta_mask(FULL, 3), lambda: SuperPoly.monomial(FULL, (1, 0)),
        lambda: SuperPoly.zero(FULL),
    ]
    for make in makers:
        a, b = make(), make()
        assert a.terms is not b.terms
        a._iadd_term(((5, 5), 1), Scalar(1))
        assert b == make() and b != a


def _random_poly(rng, sig):
    return SuperPoly(sig, {
        (tuple(rng.randint(-2, 2) for _ in range(sig.nvars)), rng.randrange(1 << sig.n)):
        Scalar(Fraction(rng.randint(-3, 3), rng.randint(1, 2)), rng.randint(-1, 1))
        for _ in range(3)})


def test_products_derivatives_and_actions_hold_what_the_constructor_stores():
    """`SuperPoly.__mul__`, `shift_basis`, `derive` and `VectorField.apply`
    start from an unchecked empty element; every key they store passes
    the key hook unchanged, in order, with a Scalar coefficient."""
    rng = random.Random(28)
    for sig in (FULL, DOT):
        for _ in range(30):
            f, g = _random_poly(rng, sig), _random_poly(rng, sig)
            field = VectorField.zero(sig)
            for tag in sig.tags("dtq"):
                field += VectorField.from_poly_tag(_random_poly(rng, sig), tag)
            pos = tuple(rng.randint(0, 2) for _ in range(sig.nvars))
            neg = tuple(rng.randint(0, 2) for _ in range(sig.nvars))
            results = [f * g, field.apply(f), shift_basis(sig, pos, neg, rng.randrange(4))]
            results += [derive(tag, f) for tag in sig.tags("dtq")]
            for got in results:
                _same(got, _rebuilt(got))


def test_tagged_builds_equal_the_public_builds():
    """`VectorField.from_poly_tag`, `QPElement.along` and `from_poly` check
    the tag once; a plain ('dt', i) is still stored by `euler_key`."""
    rng = random.Random(5)
    for sig in (FULL, DOT):
        for p in [_random_poly(rng, sig) for _ in range(10)] + [SuperPoly.zero(sig)]:
            for tag in sig.tags("dtq"):
                terms = {(e, m, tag): c for (e, m), c in p.terms.items()}
                _same(VectorField.from_poly_tag(p, tag), VectorField(sig, terms))
                if not sig.includes_t0:
                    _same(QPElement.along(p, tag), QPElement(sig, terms))
            if not sig.includes_t0:
                terms = {(e, m, ("d", 0)): c for (e, m), c in p.terms.items()}
                _same(QPElement.along(p, ("d", 0)), QPElement(sig, terms))
                _same(QPElement.from_poly(p), QPElement(sig, terms))


REFUSED = {
    "monomial: short exponents": (
        lambda: SuperPoly.monomial(FULL, (0,)), ValueError, "wrong length"),
    "monomial: mask 4 at n = 2": (
        lambda: SuperPoly.monomial(FULL, (0, 0), 4), ValueError, "Grassmann index"),
    "monomial: negative mask": (
        lambda: SuperPoly.monomial(DOT, (0,), -1, 0), ValueError, "Grassmann index"),
    "zeta_mask: mask 4 at n = 2": (
        lambda: SuperPoly.zeta_mask(FULL, 4), ValueError, "Grassmann index"),
    "zeta: z3 at n = 2": (lambda: SuperPoly.zeta(FULL, 3), ValueError, "variable z3"),
    "zeta: z0": (lambda: SuperPoly.zeta(DOT, 0), ValueError, "variable z0"),
    "t_var: t2 at m = 1": (lambda: SuperPoly.t_var(FULL, 2), ValueError, "variable t2"),
    "t_var: t0 on dotted": (lambda: SuperPoly.t_var(DOT, 0), ValueError, "variable t0"),
    "scalar: float": (lambda: SuperPoly.scalar(FULL, 0.5), TypeError, "exact"),
    "scalar: float zero": (lambda: SuperPoly.scalar(DOT, 0.0), TypeError, "exact"),
    "monomial: float": (
        lambda: SuperPoly.monomial(FULL, (1, 0), 1, 1.5), TypeError, "exact"),
    "field: unknown tag": (
        lambda: VectorField.from_poly_tag(SuperPoly.one(FULL), ("x", 3)),
        ValueError, "unknown derivation tag"),
    "field: t0-Euler on dotted": (
        lambda: VectorField.from_poly_tag(SuperPoly.one(DOT), ("d", 0)),
        ValueError, "unknown derivation tag"),
    "field: t0-Euler on dotted, zero coefficient": (
        lambda: VectorField.from_poly_tag(SuperPoly.zero(DOT), ("d", 0)),
        ValueError, "unknown derivation tag"),
    "field: plain t0 on dotted": (
        lambda: VectorField.from_poly_tag(SuperPoly.one(DOT), ("dt", 0)),
        ValueError, "unknown derivation tag"),
    "qp: unknown tag": (
        lambda: QPElement.along(SuperPoly.one(DOT), ("x", 3)),
        ValueError, "unknown derivation tag"),
    "qp: z3 at n = 2": (
        lambda: QPElement.along(SuperPoly.one(DOT), ("q", 3)),
        ValueError, "unknown derivation tag"),
    "qp: along on the full signature": (
        lambda: QPElement.along(SuperPoly.one(FULL), ("d", 1)),
        ValueError, "QPElement needs the t_0-free signature"),
    "qp: from_poly on the full signature": (
        lambda: QPElement.from_poly(SuperPoly.zero(FULL)),
        ValueError, "QPElement needs the t_0-free signature"),
    "qp: from_field on the full signature": (
        lambda: QPElement.from_field(VectorField.basis(FULL, ("q", 1))),
        ValueError, "QPElement needs the t_0-free signature"),
    "qp: zero on the full signature": (
        lambda: QPElement.zero(FULL), ValueError, "QPElement needs the t_0-free signature"),
    "smash: zero on the dotted signature": (
        lambda: SmashElement.zero(DOT), ValueError, "SmashElement needs the full signature"),
    "smash: make_X on the dotted signature": (
        lambda: make_X(DOT, (1,), 1, ("q", 1)), ValueError,
        "SmashElement needs the full signature"),
}


@pytest.mark.parametrize("case", sorted(REFUSED))
def test_unchecked_builds_still_refuse_malformed_input(case):
    """Each path that skips the key hook still refuses what the public
    constructor refuses, with the same error."""
    make, exc, match = REFUSED[case]
    with pytest.raises(exc, match=match):
        make()


def test_check_all_calls_the_public_constructor_rarely(monkeypatch, capsys):
    """Work guard: the library builds its own elements without the key
    hook.  `check all` at (1,2) called `Sparse.__init__` 7654 times when
    every constant and product went through it; the bound leaves room."""
    import hashlib

    from rinehart.cli import main
    from rinehart.superpoly import Sparse

    calls = []
    init = Sparse.__init__

    def counted(self, sig, terms=None):
        calls.append(type(self))
        init(self, sig, terms)

    monkeypatch.setattr(Sparse, "__init__", counted)
    args = ["check", "all", "--m", "1", "--n", "2", "--deg", "2", "--samples", "20",
            "--json"]
    assert main(args) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == CHECK_ALL_12
    assert len(calls) <= 400


@pytest.mark.parametrize("cls", list(KINDS), ids=lambda c: c.__name__)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_int_factors_equal_the_scalar_products(cls, data):
    """x·k for an int k takes no Scalar product for k = ±1 and passes other
    ints to `Scalar.__mul__`; each result equals x·Scalar(k) term for term
    and in order, and is a container of its own that leaves x unchanged."""
    sig, terms = KINDS[cls]
    x = cls(sig, data.draw(terms))
    before = list(x.terms.items())
    for k in (1, -1, 2, -3, 0):
        for got in (x * k, k * x):
            _same(got, x * Scalar(k))
            got._iadd_term(_any_key(cls), Scalar(7))
            assert list(x.terms.items()) == before


def _any_key(cls):
    """One basis key of ``cls`` as stored over its KINDS signature."""
    return {SuperPoly: ((0, 0), 0), VectorField: ((0, 0), 0, ("q", 1)),
            QPElement: ((0,), 0, ("q", 1)), SmashElement: ((0, 0), 0, (0, 0), 0, None),
            TensorVec: ((0,), 0, 0), GlMatrix: (0, 0)}[cls]


def test_basis_constructors_equal_the_public_builds():
    """`VectorField.basis`, `GlMatrix.elementary` and `TensorVec.basis`
    check their key once and store it unchecked: each equals the public
    build of the same term, a zero coefficient gives zero, a plain
    ('dt', i) tag is stored by `euler_key`, and each call has a dict of
    its own."""
    for sig in (FULL, DOT, Signature(2, 1), Signature(2, 1, False)):
        z = sig.zero_exps()
        for tag in sig.tags("dtq"):
            for c in (1, -2, Fraction(1, 3), Scalar(0, 1), 0, Scalar(0)):
                _same(VectorField.basis(sig, tag, c), VectorField(sig, {(z, 0, tag): c}))
            _same(VectorField.basis(sig, tag), VectorField(sig, {(z, 0, tag): 1}))
        for a in sig.directions():
            for b in sig.directions():
                _same(GlMatrix.elementary(sig, a, b), GlMatrix(sig, {(a, b): 1}))
        for mask in range(1 << sig.n):
            for idx in (0, 3):
                exps = tuple(range(sig.nvars))
                _same(TensorVec.basis(sig, list(exps), mask, idx),
                      TensorVec(sig, {(exps, mask, idx): 1}))
                for c in (Fraction(-1, 2), Scalar(1, 1), 0):
                    _same(TensorVec.basis(sig, exps, mask, idx, c),
                          TensorVec(sig, {(exps, mask, idx): c}))
    assert VectorField.basis(FULL, ("dt", 1)).terms == {((0, -1), 0, ("d", 1)): 1}
    for make in (lambda: VectorField.basis(FULL, ("q", 1)),
                 lambda: GlMatrix.elementary(FULL, 0, 1),
                 lambda: TensorVec.basis(DOT, (0,), 0, 0)):
        a, b = make(), make()
        assert a.terms is not b.terms


@pytest.mark.parametrize("make,exc", [
    (lambda: VectorField.basis(DOT11, ("d", 0)), ValueError),
    (lambda: VectorField.basis(DOT11, ("dt", 0), 0), ValueError),
    (lambda: VectorField.basis(FULL, ("q", 3)), ValueError),
    (lambda: VectorField.basis(FULL, ("x", 1)), ValueError),
    (lambda: VectorField.basis(FULL, ("q", 1), 0.5), TypeError),
    (lambda: GlMatrix.elementary(FULL, 0, 4), ValueError),
    (lambda: GlMatrix.elementary(FULL, -1, 0), ValueError),
    (lambda: TensorVec.basis(DOT, (0, 0), 0, 0), ValueError),
    (lambda: TensorVec.basis(DOT, (0,), 4, 0), ValueError),
    (lambda: TensorVec.basis(DOT, (0,), 0, -1), ValueError),
    (lambda: TensorVec.basis(DOT, (0,), 0, 0, 1.5), TypeError),
], ids=range(11))
def test_basis_constructors_refuse_malformed_input(make, exc):
    with pytest.raises(exc):
        make()
