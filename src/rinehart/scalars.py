"""Exact Gaussian-rational scalars.

Every coefficient in this library is a Gaussian rational, so equality
checks are zero-tolerance.  A ``Scalar`` holds ``(p + q*i) / d`` as three
ints with ``d > 0`` and ``gcd(p, q, d) == 1``, so each value has exactly
one form.  ``+ - * /`` and negation are integer arithmetic with at most
one ``math.gcd`` per result, and none when ``d == 1``, for a negation,
or when a factor is 1 or -1, as an int or as a ``Scalar`` (a copy or a
negation of the other factor); no ``Fraction`` is built.
``re`` and ``im`` read the components back as a plain ``int`` when
integral, a ``Fraction`` otherwise.  No floating point appears anywhere: a ``float`` or
``complex`` component raises ``TypeError``.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd


def _ratio(x) -> tuple[int, int]:
    """(numerator, denominator) of an exact rational ``x``, in lowest terms."""
    if isinstance(x, int):
        return int(x), 1
    if not isinstance(x, Fraction):
        if isinstance(x, (float, complex)):
            raise TypeError(f"Scalar components must be exact, got {x!r}")
        x = Fraction(x)
    return x.numerator, x.denominator


def _part(n: int, d: int):
    """n/d as an ``int`` when integral, else as a ``Fraction``."""
    if d == 1:
        return n
    g = gcd(n, d)
    return n // g if g == d else Fraction(n // g, d // g)


def _ratio_text(n: int, d: int) -> str:
    """n/d in lowest terms, as ``str`` of the ``int`` or ``Fraction`` prints it."""
    g = gcd(n, d)
    return str(n // g) if g == d else f"{n // g}/{d // g}"


def _exact(x):
    """``x`` as a Scalar if it is an ``int`` or ``Fraction``, else None."""
    return Scalar(x) if isinstance(x, (int, Fraction)) else None


_new = object.__new__


def _reduced(p: int, q: int, d: int) -> "Scalar":
    """The Scalar (p + q*i)/d for any d > 0, brought to canonical form."""
    if d != 1:
        g = gcd(p, q, d)
        if g != 1:
            p //= g
            q //= g
            d //= g
    s = _new(Scalar)
    s.p = p
    s.q = q
    s.d = d
    return s


class Scalar:
    """Gaussian rational (p + q*i)/d.  Immutable by convention, hashable.

    ``p``, ``q`` and ``d`` are the canonical triple (``d > 0``,
    ``gcd(p, q, d) == 1``); ``re`` and ``im`` are the components."""

    __slots__ = ("p", "q", "d")

    def __init__(self, re=0, im=0):
        if type(re) is int and type(im) is int:
            self.p, self.q, self.d = re, im, 1
            return
        a, b = _ratio(re)
        c, e = _ratio(im)
        # a/b and c/e are in lowest terms, so over lcm(b, e) the triple
        # is already canonical.
        d = b * e // gcd(b, e)
        self.p, self.q, self.d = a * (d // b), c * (d // e), d

    @property
    def re(self):
        return _part(self.p, self.d)

    @property
    def im(self):
        return _part(self.q, self.d)

    @staticmethod
    def ratio(p: int, d: int) -> "Scalar":
        """The real number p/d, for ints p and d > 0."""
        return _reduced(p, 0, d)

    @staticmethod
    def of(value) -> "Scalar":
        if isinstance(value, Scalar):
            return value
        return Scalar(value)

    def __bool__(self) -> bool:
        return bool(self.p or self.q)

    def __add__(self, other):
        if type(other) is not Scalar:
            if type(other) is int:
                return _reduced(self.p + other * self.d, self.q, self.d)
            other = _exact(other)
            if other is None:
                return NotImplemented
        d, e = self.d, other.d
        if d == e:
            return _reduced(self.p + other.p, self.q + other.q, d)
        return _reduced(self.p * e + other.p * d, self.q * e + other.q * d, d * e)

    __radd__ = __add__

    def __sub__(self, other):
        if type(other) is not Scalar:
            other = _exact(other)
            if other is None:
                return NotImplemented
        d, e = self.d, other.d
        if d == e:
            return _reduced(self.p - other.p, self.q - other.q, d)
        return _reduced(self.p * e - other.p * d, self.q * e - other.q * d, d * e)

    def __rsub__(self, other):
        other = _exact(other)
        return NotImplemented if other is None else other.__sub__(self)

    def __mul__(self, other):
        if type(other) is int:
            # ±1 keeps the triple canonical
            if other == 1:
                return self
            if other == -1:
                s = _new(Scalar)
                s.p, s.q, s.d = -self.p, -self.q, self.d
                return s
            return _reduced(self.p * other, self.q * other, self.d)
        if type(other) is not Scalar:
            other = _exact(other)
            if other is None:
                return NotImplemented
        a, b, c, e = self.p, self.q, other.p, other.q
        # a real ±1 over denominator 1 is a copy or a negation: no gcd
        if not e and other.d == 1 and (c == 1 or c == -1):
            return self if c == 1 else -self
        if not b and self.d == 1 and (a == 1 or a == -1):
            return other if a == 1 else -other
        if not b and not e:
            return _reduced(a * c, 0, self.d * other.d)
        return _reduced(a * c - b * e, a * e + b * c, self.d * other.d)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if type(other) is not Scalar:
            other = _exact(other)
            if other is None:
                return NotImplemented
        # (a + bi)/d ÷ (c + ei)/f = (a + bi)(c - ei)·f / (d·(c² + e²))
        a, b, c, e = self.p, self.q, other.p, other.q
        norm = c * c + e * e
        if not norm:
            raise ZeroDivisionError("division by zero scalar")
        f = other.d
        return _reduced((a * c + b * e) * f, (b * c - a * e) * f, self.d * norm)

    def __rtruediv__(self, other):
        other = _exact(other)
        return NotImplemented if other is None else other.__truediv__(self)

    def __neg__(self):
        # negating a canonical triple keeps it canonical: no gcd
        s = _new(Scalar)
        s.p, s.q, s.d = -self.p, -self.q, self.d
        return s

    def __pos__(self):
        return self

    def __eq__(self, other):
        if type(other) is Scalar:
            return self.p == other.p and self.q == other.q and self.d == other.d
        if isinstance(other, (int, Fraction)):
            return (not self.q and self.p == other.numerator
                    and self.d == other.denominator)
        return NotImplemented

    def __hash__(self):
        # a real value hashes as the int or Fraction it equals
        if not self.q:
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
    p, q, d = s.p, s.q, s.d
    if not q:
        return _ratio_text(p, d)
    imtext = _ratio_text(abs(q), d) + "i"
    if not p:
        return imtext if q > 0 else f"-{imtext}"
    return _ratio_text(p, d) + ("+" if q > 0 else "-") + imtext
