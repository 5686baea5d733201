import pytest

from rinehart.parser import (
    ParseError,
    format_element,
    parse_element,
    parse_scalar_literal,
)
from hypothesis import given
from hypothesis import strategies as st

from rinehart.scalars import Scalar, format_scalar
from rinehart.superpoly import SuperPoly
from rinehart.vectorfields import QPElement, VectorField
from fractions import Fraction


def test_parse_examples(sig12):
    sig = sig12
    got = parse_element("3/2*t0^2*t1^-1*z1*z2*D1", sig)
    want = VectorField.from_poly_tag(
        SuperPoly.monomial(sig, (2, -1), 0b11, Scalar(Fraction(3, 2))), ("d", 1)
    )
    assert got == want

    # oracle: the product z2·z1 reorders with one inversion
    z1 = SuperPoly.zeta(sig, 1)
    z2 = SuperPoly.zeta(sig, 2)
    assert parse_element("z2*z1", sig) == z2 * z1 == -(z1 * z2)

    assert parse_element("t0^0", sig) == SuperPoly.one(sig)
    assert parse_element("0", sig) == SuperPoly.zero(sig)


def test_parse_scalars(sig11):
    assert parse_element("1/2+1/3i", sig11) == SuperPoly.scalar(
        sig11, Scalar(Fraction(1, 2), Fraction(1, 3))
    )
    assert parse_element("2i*t1", sig11) == SuperPoly.monomial(
        sig11, (0, 1), 0, Scalar(0, 2)
    )
    assert parse_element("1/2-1/3i*t1", sig11) == SuperPoly.monomial(
        sig11, (0, 1), 0, Scalar(Fraction(1, 2), Fraction(-1, 3))
    )
    assert parse_scalar_literal("-3/2") == Scalar(Fraction(-3, 2))
    assert parse_scalar_literal("1/2-1/3i") == Scalar(Fraction(1, 2), Fraction(-1, 3))
    assert parse_scalar_literal("-1/3+2i") == Scalar(Fraction(-1, 3), 2)


@given(st.fractions(), st.fractions())
def test_scalar_literal_reads_its_canonical_text(re, im):
    """A leading minus belongs to the real part: format then parse is the
    identity, as a config file's round trip needs."""
    value = Scalar(re, im)
    assert parse_scalar_literal(format_scalar(value)) == value


def test_parse_parenthesized_polynomial_factor(sig11):
    got = parse_element("(t1-1)*D0", sig11)
    want = VectorField.from_poly_tag(
        SuperPoly.t_var(sig11, 1) - SuperPoly.one(sig11), ("d", 0)
    )
    assert got == want
    with pytest.raises(ParseError):
        parse_element("(D1)*t0", sig11)


def test_parse_mixed_element_needs_dotted(sig11):
    dotted = sig11.dotted()
    got = parse_element("t1+t1*D1", dotted)
    assert isinstance(got, QPElement)
    assert got.a == SuperPoly.t_var(dotted, 1)
    with pytest.raises(ParseError):
        parse_element("t1+t1*D1", sig11)


def test_zero_term_warning(sig11):
    warnings: list = []
    got = parse_element("z1*z1+t0", sig11, warnings=warnings)
    assert got == SuperPoly.t_var(sig11, 0)
    assert len(warnings) == 1 and "z1" in warnings[0]


def test_parse_errors_carry_positions(sig11):
    cases = {
        "3*": 2,
        "t0^": 3,
        "t0**t1": 3,
        "w1": 0,
    }
    for text, pos in cases.items():
        with pytest.raises(ParseError) as err:
            parse_element(text, sig11)
        assert err.value.position == pos
        assert "position" in str(err.value)
    with pytest.raises(ParseError):
        parse_element("t2", sig11)  # index out of signature
    with pytest.raises(ParseError):
        parse_element("Q2", sig11)
    with pytest.raises(ParseError):
        parse_element("D1*D1", sig11)
    with pytest.raises(ParseError):
        parse_element("D1*t0", sig11)


def test_format_examples(sig12):
    assert format_element(SuperPoly.zero(sig12)) == "0"
    z12 = SuperPoly.zeta_mask(sig12, 0b11)
    assert format_element(-z12) == "-1*z1*z2"
    assert format_element(z12) == "1*z1*z2"


def test_format_constant_goes_last(sig11):
    e = SuperPoly.one(sig11) * Scalar(Fraction(1, 2)) + SuperPoly.monomial(
        sig11, (0, 1), 0, Scalar(0, Fraction(1, 3))
    )
    text = format_element(e)
    assert text == "1/3i*t1+1/2"
    assert parse_element(text, sig11) == e


def test_roundtrip_random(sig12, sampler):
    dotted = sig12.dotted()
    for case in range(300):
        kind = case % 3
        if kind == 0:
            e = sampler.poly(sig12, 3)
            back = parse_element(format_element(e), sig12)
        elif kind == 1:
            e = sampler.field(sig12, 3)
            back = parse_element(format_element(e), sig12)
        else:
            e = QPElement(sampler.poly(dotted), sampler.field(dotted))
            back = parse_element(format_element(e), dotted, expect="qp")
        if kind == 2:
            assert back.a == e.a and back.x == e.x
        else:
            assert back == e
        assert format_element(back) == format_element(e)
