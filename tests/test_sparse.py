"""The shared sparse container: one term-map algebra for all six types.

Every container's `+`, `-`, negation and scalar `*` is compared with the
same arithmetic done here on plain dicts; signatures, operand types and
hashability are checked type by type.  A field and a smash b-side store a
plain d/dt_i as t_i^{-1}·(t_i d/dt_i); the reference applies the same
rewrite to its dicts.
"""

import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rinehart.glmatrix import GlMatrix
from rinehart.scalars import Scalar
from rinehart.smash import SmashElement
from rinehart.superpoly import Signature, SuperPoly
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
    for s in (0, 1, -3, Fraction(2, 3), Scalar(0), Scalar(Fraction(1, 2), -1)):
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
