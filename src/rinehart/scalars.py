"""Exact Gaussian-rational scalars.

Every coefficient in this library is a Gaussian rational ``re + im*i``,
so equality checks are zero-tolerance.  Each component is held in
canonical form: a plain ``int`` when it is integral, a ``Fraction``
otherwise.  Integer arithmetic therefore never builds a ``Fraction``;
division always goes through ``Fraction``.  No floating point appears
anywhere: a ``float`` or ``complex`` component raises ``TypeError``.
"""

from __future__ import annotations

from fractions import Fraction


def _canon(x):
    """``x`` as an ``int`` when integral, else as a ``Fraction``."""
    if not isinstance(x, Fraction):
        if isinstance(x, (float, complex)):
            raise TypeError(f"Scalar components must be exact, got {x!r}")
        x = Fraction(x)
    return x.numerator if x.denominator == 1 else x


def _exact(x):
    """``x`` as a Scalar if it is an ``int`` or ``Fraction``, else None."""
    return Scalar(x) if isinstance(x, (int, Fraction)) else None


class Scalar:
    """Gaussian rational re + im*i.  Immutable by convention, hashable."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        self.re = re if type(re) is int else _canon(re)
        self.im = im if type(im) is int else _canon(im)

    @staticmethod
    def of(value) -> "Scalar":
        if isinstance(value, Scalar):
            return value
        return Scalar(value)

    def is_zero(self) -> bool:
        return not self.re and not self.im

    def __bool__(self) -> bool:
        return bool(self.re or self.im)

    def __add__(self, other):
        if type(other) is not Scalar:
            other = _exact(other)
            if other is None:
                return NotImplemented
        return Scalar(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __sub__(self, other):
        if type(other) is not Scalar:
            other = _exact(other)
            if other is None:
                return NotImplemented
        return Scalar(self.re - other.re, self.im - other.im)

    def __rsub__(self, other):
        other = _exact(other)
        return NotImplemented if other is None else other.__sub__(self)

    def __mul__(self, other):
        if type(other) is int:
            return Scalar(self.re * other, self.im * other)
        if type(other) is not Scalar:
            other = _exact(other)
            if other is None:
                return NotImplemented
        a, b, c, d = self.re, self.im, other.re, other.im
        if not b and not d:
            return Scalar(a * c)
        return Scalar(a * c - b * d, a * d + b * c)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if type(other) is not Scalar:
            other = _exact(other)
            if other is None:
                return NotImplemented
        a, b, c, d = self.re, self.im, other.re, other.im
        norm = Fraction(c * c + d * d)
        if not norm:
            raise ZeroDivisionError("division by zero scalar")
        return Scalar((a * c + b * d) / norm, (b * c - a * d) / norm)

    def __rtruediv__(self, other):
        other = _exact(other)
        return NotImplemented if other is None else other.__truediv__(self)

    def __neg__(self):
        return Scalar(-self.re, -self.im)

    def __pos__(self):
        return self

    def __eq__(self, other):
        if type(other) is Scalar:
            return self.re == other.re and self.im == other.im
        if isinstance(other, (int, Fraction)):
            return self.im == 0 and self.re == other
        return NotImplemented

    def __hash__(self):
        if not self.im:
            return hash(self.re)
        return hash((self.re, self.im))

    def __str__(self):
        return format_scalar(self)

    def __repr__(self):
        return f"Scalar({self.re!r}, {self.im!r})"


ZERO = Scalar(0)
ONE = Scalar(1)
I = Scalar(0, 1)


def format_scalar(s: Scalar) -> str:
    """Canonical text form: '0', '-3/2', '2i', '1/2+1/3i', '1/2-1/3i'."""
    if s.is_zero():
        return "0"
    if not s.im:
        return str(s.re)
    imtext = f"{abs(s.im)}i"
    if not s.re:
        return imtext if s.im > 0 else f"-{imtext}"
    sign = "+" if s.im > 0 else "-"
    return f"{s.re}{sign}{imtext}"
