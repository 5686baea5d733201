"""The shared sparse container: one term-map algebra for all eight types.

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
from rinehart.tensorqp import LoopTensor, TensorVec
from rinehart.vectorfields import LoopElement, QPElement, VectorField

FULL = Signature(1, 2)
DOT = FULL.dotted()

EXPS_FULL = st.tuples(st.integers(-1, 1), st.integers(-1, 1))
EXPS_DOT = st.tuples(st.integers(-1, 1))
MASKS = st.integers(0, 3)
TAGS = st.sampled_from([("d", 0), ("d", 1), ("dt", 1), ("q", 1), ("q", 2)])
DOT_TAGS = st.sampled_from([("d", 1), ("dt", 1), ("q", 1), ("q", 2)])
# a QPElement's algebra summand is stored under the t_0-Euler tag ('d', 0)
QP_TAGS = st.sampled_from([("d", 0), ("d", 1), ("q", 1), ("q", 2)])
# small values, zero included, so that sums cancel often
SCALARS = st.builds(
    lambda re, im: Scalar(Fraction(re, 2), im), st.integers(-2, 2), st.integers(-1, 1)
)
T0 = st.integers(-1, 1)
GL_INDEX = st.integers(0, FULL.m + FULL.n)


def _terms(keys, values=SCALARS):
    return st.dictionaries(keys, values, max_size=5)


QP_VALUES = st.builds(
    lambda a, x: QPElement.pair(SuperPoly(DOT, a), VectorField(DOT, x)),
    _terms(st.tuples(EXPS_DOT, MASKS)),
    _terms(st.tuples(EXPS_DOT, MASKS, DOT_TAGS)),
)
TENSOR_VALUES = st.builds(
    lambda t: TensorVec(DOT, t), _terms(st.tuples(EXPS_DOT, MASKS, st.integers(0, 2)))
)
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
    LoopElement: (DOT, _terms(T0, QP_VALUES)),
    LoopTensor: (DOT, _terms(T0, TENSOR_VALUES)),
    GlMatrix: (FULL, _terms(st.tuples(GL_INDEX, GL_INDEX))),
}
HASHABLE = (SuperPoly, VectorField)
# coefficient type of each container; Scalar for the others
VALUE_TYPE = {LoopElement: QPElement, LoopTensor: TensorVec}


def _nonzero(c) -> bool:
    if isinstance(c, Scalar):
        return c != 0
    return not c.is_zero()


def _ref_build(terms: dict) -> dict:
    return {k: c for k, c in terms.items() if _nonzero(c)}


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
    hold only nonzero coefficients of the right type, and equal the same
    terms built through the public constructor."""
    assert type(result) is cls
    assert result.sig is KINDS[cls][0]
    assert result.terms == ref
    assert all(_nonzero(c) for c in result.terms.values())
    assert all(type(c) is VALUE_TYPE.get(cls, Scalar) for c in result.terms.values())
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


def _nonzero_element(cls, sig, r=1):
    if cls is SuperPoly:
        return SuperPoly.one(sig)
    if cls is VectorField:
        return VectorField.basis(sig, ("q", 1))
    if cls is QPElement:
        return QPElement.from_poly(SuperPoly.one(sig))
    if cls is SmashElement:
        return SmashElement.a_unit(sig, sig.zero_exps())
    if cls is TensorVec:
        return TensorVec.basis(sig, sig.zero_exps(), 1, 0)
    if cls is LoopElement:
        return LoopElement.wrap(r, QPElement.from_poly(SuperPoly.one(sig)))
    if cls is GlMatrix:
        return GlMatrix.elementary(sig, 0, 0)
    return LoopTensor.wrap(r, TensorVec.basis(sig, sig.zero_exps(), 1, 0))


@pytest.mark.parametrize("cls", list(KINDS), ids=lambda c: c.__name__)
def test_signature_mismatch_raises(cls):
    full = KINDS[cls][0].includes_t0
    s1, s2 = Signature(1, 1, full), Signature(1, 2, full)
    # distinct t_0-exponents, so that no two loop slices meet
    x, y = _nonzero_element(cls, s1, 1), _nonzero_element(cls, s2, 2)
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
    unit = SmashElement.a_unit(FULL, (0, 0), 1)
    assert unit.parity() == 1
    assert SmashElement.zero(FULL).parity() is None
    x = VectorField.basis(FULL, ("q", 1)) + VectorField.basis(FULL, ("d", 1))
    assert x.parity() is None
    assert [p.parity() for p in x.even_odd()] == [0, 1]
    loop = LoopElement.wrap(0, QPElement.from_field(VectorField.basis(DOT, ("q", 2))))
    assert loop.parity() == 1
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
