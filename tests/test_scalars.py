import copy
import math
import pickle
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rinehart.sampling import _SCALARS
from rinehart.scalars import Scalar, _reduced, format_scalar


def test_field_operations_exact():
    a = Scalar(Fraction(1, 2), Fraction(1, 3))
    b = Scalar(Fraction(-2, 5), Fraction(4))
    assert a + b == Scalar(Fraction(1, 10), Fraction(13, 3))
    assert a * b - b * a == Scalar(0)
    assert (a * b) / b == a
    assert a - a == Scalar(0)
    assert not (a - a)


def test_zero_is_unique():
    assert Scalar(0, 0) == 0
    assert Scalar(Fraction(0, 7), Fraction(0, 3)) == Scalar(0)


def test_integer_coercion_and_hash():
    assert Scalar(3) == 3
    assert hash(Scalar(3)) == hash(3)
    assert Scalar(3) * 2 == 6
    assert Scalar(3, 1) * 2 == Scalar(3, 1) * Scalar(2) == Scalar(6, 2)
    assert 1 - Scalar(Fraction(1, 2)) == Scalar(Fraction(1, 2))


def test_conjugate_and_division():
    i = Scalar(0, 1)
    assert i * i == -1
    assert (1 / i) == -i


def test_format():
    assert format_scalar(Scalar(0)) == "0"
    assert format_scalar(Scalar(Fraction(-3, 2))) == "-3/2"
    assert format_scalar(Scalar(0, 2)) == "2i"
    assert format_scalar(Scalar(Fraction(1, 2), Fraction(1, 3))) == "1/2+1/3i"
    assert format_scalar(Scalar(Fraction(1, 2), Fraction(-1, 3))) == "1/2-1/3i"


def test_components_are_canonical():
    s = Scalar(Fraction(6, 2), Fraction(0, 5))
    assert type(s.re) is int and type(s.im) is int
    assert (s.re, s.im) == (3, 0)
    half = Scalar(Fraction(1, 2))
    assert isinstance(half.re, Fraction) and type(half.im) is int
    assert type((half + half).re) is int
    assert type((Scalar(1) / 1).re) is int


def test_float_and_complex_components_rejected():
    for bad in ((0.5,), (1, 0.5), (1j,), (1, 2j), (3.0,)):
        with pytest.raises(TypeError):
            Scalar(*bad)
    with pytest.raises(TypeError):
        Scalar(2) * 0.5
    with pytest.raises(TypeError):
        0.5 + Scalar(2)
    with pytest.raises(TypeError):
        Scalar(1) * 1.5
    with pytest.raises(TypeError):
        Scalar(1) * 2.0
    with pytest.raises(TypeError):
        Scalar(1) / 2.0
    with pytest.raises(TypeError):
        1.5 / Scalar(2)


def test_foreign_operands_defer_to_their_type():
    """A Scalar leaves a product with an algebra element to the element's
    reflected operator, so both operand orders agree."""
    from rinehart.superpoly import Signature, SuperPoly
    from rinehart.tensorqp import TensorVec
    from rinehart.vectorfields import VectorField

    sig = Signature(1, 1, True)
    poly = SuperPoly.t_var(sig, 1) + SuperPoly.zeta(sig, 1)
    field = VectorField.from_poly_tag(poly, ("q", 1))
    vec = TensorVec.basis(sig, (1, -1), 0b1, 0, 3)
    c = Scalar(Fraction(2, 3), 1)
    for x in (poly, field, vec):
        assert c * x == x * c
        assert type(c * x) is type(x)
        assert (c * x).terms == {k: v * c for k, v in x.terms.items()}
    for op in ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__",
               "__rmul__", "__truediv__", "__rtruediv__"):
        assert getattr(c, op)(poly) is NotImplemented
        assert getattr(c, op)(1.5) is NotImplemented


# ---------- property: canonical components under + - * / ----------

rationals = st.one_of(
    st.integers(-40, 40),
    st.fractions(min_value=-40, max_value=40, max_denominator=12),
)
gaussians = st.builds(Scalar, rationals, rationals)


def assert_canonical(s):
    for x in (s.re, s.im):
        if isinstance(x, Fraction):
            assert x.denominator != 1, s
        else:
            assert type(x) is int, s


def fraction_pair(s):
    return Fraction(s.re), Fraction(s.im)


def reference(op, a, b):
    """The same operation on plain Fraction pairs."""
    (p, q), (r, t) = fraction_pair(a), fraction_pair(b)
    if op == "+":
        return p + r, q + t
    if op == "-":
        return p - r, q - t
    if op == "*":
        return p * r - q * t, p * t + q * r
    norm = r * r + t * t
    return (p * r + q * t) / norm, (q * r - p * t) / norm


@settings(max_examples=300, deadline=None)
@given(a=gaussians, b=gaussians, k=st.integers(-40, 40))
def test_arithmetic_keeps_canonical_components(a, b, k):
    ops = {"+": a + b, "-": a - b, "*": a * b}
    if b:
        ops["/"] = a / b
    for op, got in ops.items():
        assert_canonical(got)
        assert fraction_pair(got) == reference(op, a, b)
        rebuilt = Scalar(Fraction(got.re), Fraction(got.im))
        assert rebuilt == got and hash(rebuilt) == hash(got)
    assert_canonical(-a)
    # an int factor takes its own path and must agree with Scalar(k)
    for got in (a * k, k * a):
        assert type(got) is Scalar
        assert_canonical(got)
        assert fraction_pair(got) == reference("*", a, Scalar(k))


def test_integral_value_equal_and_hash_across_representations():
    assert Scalar(3) == Scalar(Fraction(3))
    assert hash(Scalar(3)) == hash(Scalar(Fraction(3))) == hash(3)
    assert Scalar(3, -2) == Scalar(Fraction(6, 2), Fraction(-4, 2))
    assert hash(Scalar(3, -2)) == hash(Scalar(Fraction(6, 2), Fraction(-4, 2)))
    assert len({Scalar(3), Scalar(Fraction(3)), Scalar(Fraction(9, 3))}) == 1


# ---------- the (p, q, d) form against int and Fraction ----------

@settings(max_examples=200, deadline=None)
@given(x=rationals)
def test_real_scalar_equals_and_hashes_as_its_rational(x):
    s = Scalar(x)
    assert s == x and x == s
    assert hash(s) == hash(x)
    assert s.re == x and s.im == 0
    assert s.d > 0 and math.gcd(s.p, s.q, s.d) == 1


@settings(max_examples=100, deadline=None)
@given(a=gaussians)
def test_deepcopy_and_pickle_round_trips(a):
    for b in (copy.deepcopy(a), pickle.loads(pickle.dumps(a))):
        assert type(b) is Scalar
        assert b == a and hash(b) == hash(a)
        assert (b.p, b.q, b.d) == (a.p, a.q, a.d)


FRACTION_ARITHMETIC = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__",
                       "__rmul__", "__truediv__", "__rtruediv__", "__neg__")


def test_suites_never_do_fraction_arithmetic(monkeypatch, capsys):
    """Scalar arithmetic is integer arithmetic on (p, q, d): a whole
    `check all` run makes no Fraction arithmetic call."""
    from rinehart.cli import main

    calls = dict.fromkeys(FRACTION_ARITHMETIC, 0)

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    for name in FRACTION_ARITHMETIC:
        monkeypatch.setattr(Fraction, name, counted(name, getattr(Fraction, name)))
    assert Fraction(1, 2) + 1 == Fraction(3, 2) and calls["__add__"] == 1
    calls["__add__"] = 0
    for m, n in ((1, 1), (1, 2)):
        assert main(["check", "all", "--m", str(m), "--n", str(n), "--deg", "2",
                     "--samples", "10", "--json"]) == 0
    capsys.readouterr()
    assert calls == dict.fromkeys(FRACTION_ARITHMETIC, 0)


def _unit_product_holds(x):
    """x·k for an int k, either side, is `_reduced`'s canonical triple;
    ×1 is x itself and ×(−1) negates both components over the same d."""
    for k in (1, -1, 2, -3, 0):
        want = _reduced(x.p * k, x.q * k, x.d)
        for got in (x * k, k * x):
            assert type(got) is Scalar
            assert (got.p, got.q, got.d) == (want.p, want.q, want.d)
            assert got.d > 0 and math.gcd(got.p, got.q, got.d) == 1
            assert_canonical(got)
    assert x * 1 is x
    assert (x * -1).d == x.d


def test_unit_int_products_of_the_sampled_scalars():
    assert len(_SCALARS) == 21
    for x in _SCALARS:
        _unit_product_holds(x)


@settings(max_examples=200, deadline=None)
@given(x=gaussians)
def test_unit_int_products_of_gaussian_values(x):
    _unit_product_holds(x)


def _negation_holds(x):
    """-x is `_reduced`'s canonical triple for (-p, -q, d), over the same d,
    and a new Scalar that leaves x as it was."""
    before = (x.p, x.q, x.d)
    want = _reduced(-x.p, -x.q, x.d)
    got = -x
    assert type(got) is Scalar and got is not x
    assert (got.p, got.q, got.d) == (want.p, want.q, want.d) == (-x.p, -x.q, x.d)
    assert_canonical(got)
    assert got == x * -1 and -got == x
    assert (x.p, x.q, x.d) == before


def test_negation_of_the_sampled_scalars():
    assert len(_SCALARS) == 21
    for x in _SCALARS:
        _negation_holds(x)


@settings(max_examples=200, deadline=None)
@given(x=gaussians)
def test_negation_of_gaussian_values(x):
    _negation_holds(x)


def _scalar_unit_products_hold(x):
    """x·u and u·x for a Scalar u are `_reduced`'s canonical triple of the
    general product; a real ±1 over denominator 1 gives x itself or a
    negation over x's denominator, and other factors, i, 2 and 1/2 among
    them, keep the general path."""
    for u in (Scalar(1), Scalar(-1), Scalar(Fraction(2, 2)), Scalar(0, 1),
              Scalar(0, -1), Scalar(2), Scalar(Fraction(1, 2)), Scalar(-1, 1)):
        want = _reduced(x.p * u.p - x.q * u.q, x.p * u.q + x.q * u.p, x.d * u.d)
        for got in (x * u, u * x):
            assert type(got) is Scalar
            assert (got.p, got.q, got.d) == (want.p, want.q, want.d)
            assert_canonical(got)
    assert x * Scalar(1) is x
    if x != 1 and x != -1:  # a ±1 right factor is the one returned
        assert Scalar(1) * x is x
    assert (x * Scalar(-1)).d == (Scalar(-1) * x).d == x.d


def test_unit_scalar_products_of_the_sampled_scalars():
    for x in _SCALARS:
        _scalar_unit_products_hold(x)


@settings(max_examples=200, deadline=None)
@given(x=gaussians)
def test_unit_scalar_products_of_gaussian_values(x):
    _scalar_unit_products_hold(x)
