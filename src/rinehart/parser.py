"""Element literals: parsing and canonical formatting.

Grammar (whitespace is skipped):

    element := ['+'|'-'] term (('+'|'-') term)*
    term    := scalar ['*' factors] | factors
    factors := factor ('*' factor)*
    factor  := 't'IDX['^'INT] | 'z'IDX | 'D'IDX | 'Q'IDX | '(' element ')'
    scalar  := RAT['i'] | RAT('+'|'-')RAT'i'
    RAT     := INT['/'INT]

't'i is the Laurent variable, 'z'k a Grassmann variable, 'D'i the Euler
derivation t_i d/dt_i and 'Q'k the odd derivation; a derivation factor
must be rightmost and unique, and a parenthesized element must be a pure
polynomial.  A complex scalar merges its '+RAT i' tail greedily.

Canonical form: one term per (monomial, tag), sorted by (exponents,
mask, tag) with a bare constant placed last (so a trailing pure real
never captures the next term's imaginary coefficient), scalars reduced
and always printed.  `parse(format(e)) == e` exactly and formatting is
idempotent on parsed input.
"""

from __future__ import annotations

from fractions import Fraction

from .scalars import Scalar, format_scalar
from .superpoly import Signature, SuperPoly, mask_indices
from .vectorfields import QPElement, VectorField


class ParseError(ValueError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position
        self.message = message


def _tokenize(text: str):
    toks = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch in "+-*/^()":
            toks.append((ch, None, i))
            i += 1
            continue
        if ch.isdigit():
            j = i
            while j < len(text) and text[j].isdigit():
                j += 1
            toks.append(("int", int(text[i:j]), i))
            i = j
            continue
        if ch == "i":
            toks.append(("imag", None, i))
            i += 1
            continue
        if ch in "tzDQ":
            j = i + 1
            while j < len(text) and text[j].isdigit():
                j += 1
            if j == i + 1:
                raise ParseError(f"expected an index after {ch!r}", i)
            toks.append(("factor", (ch, int(text[i + 1:j])), i))
            i = j
            continue
        raise ParseError(f"unexpected character {ch!r}", i)
    toks.append(("end", None, len(text)))
    return toks


class _Parser:
    def __init__(self, text: str, sig: Signature):
        self.text = text
        self.sig = sig
        self.toks = _tokenize(text)
        self.pos = 0
        self.warnings: list[str] = []

    def peek(self):
        return self.toks[self.pos]

    def take(self, kind=None):
        tok = self.toks[self.pos]
        if kind is not None and tok[0] != kind:
            raise ParseError(f"expected {kind!r}, found {tok[0]!r}", tok[2])
        self.pos += 1
        return tok

    def parse_rat(self, sign: int = 1) -> Fraction:
        num = sign * self.take("int")[1]
        if self.peek()[0] == "/":
            self.take()
            dtok = self.take("int")
            if dtok[1] == 0:
                raise ParseError("zero denominator", dtok[2])
            return Fraction(num, dtok[1])
        return Fraction(num)

    def parse_scalar(self, sign: int = 1) -> Scalar:
        """p/q, p/qi or p/q±r/si; ``sign`` applies to the first part only."""
        r1 = self.parse_rat(sign)
        if self.peek()[0] == "imag":
            self.take()
            return Scalar(0, r1)
        if self.peek()[0] in ("+", "-"):
            mark = self.pos
            s2 = 1 if self.take()[0] == "+" else -1
            if self.peek()[0] == "int":
                r2 = self.parse_rat(s2)
                if self.peek()[0] == "imag":
                    self.take()
                    return Scalar(r1, r2)
            self.pos = mark
        return Scalar(r1)

    def parse_signed_int(self) -> int:
        sign = 1
        if self.peek()[0] in ("+", "-"):
            sign = 1 if self.take()[0] == "+" else -1
        return sign * self.take("int")[1]

    def parse_factors(self) -> tuple[SuperPoly, object]:
        """Product of factors; returns (polynomial part, derivation tag)."""
        sig = self.sig
        poly = SuperPoly.one(sig)
        tag = None
        while True:
            kind, val, at = self.peek()
            if kind == "factor":
                self.take()
                if tag is not None:
                    raise ParseError("derivation factor must be rightmost", at)
                ch, idx = val
                if ch == "t":
                    e = 1
                    if self.peek()[0] == "^":
                        self.take()
                        e = self.parse_signed_int()
                    try:
                        poly = poly * SuperPoly.t_var(sig, idx, e)
                    except ValueError:
                        raise ParseError(f"index t{idx} out of signature", at)
                elif ch == "z":
                    if not 1 <= idx <= sig.n:
                        raise ParseError(f"index z{idx} out of signature", at)
                    was_nonzero = bool(poly)
                    poly = poly * SuperPoly.zeta(sig, idx)
                    if was_nonzero and not poly:
                        self.warnings.append(
                            f"zero term: repeated Grassmann index z{idx}"
                            f" (at position {at})"
                        )
                elif ch == "D":
                    try:
                        sig.tpos(idx)
                    except ValueError:
                        raise ParseError(f"index D{idx} out of signature", at)
                    tag = ("d", idx)
                elif ch == "Q":
                    if not 1 <= idx <= sig.n:
                        raise ParseError(f"index Q{idx} out of signature", at)
                    tag = ("q", idx)
            elif kind == "(":
                self.take()
                if tag is not None:
                    raise ParseError("derivation factor must be rightmost", at)
                inner_poly, inner_field = self.parse_element_body()
                if not inner_field.is_zero():
                    raise ParseError(
                        "parenthesized factor must be a polynomial", at
                    )
                self.take(")")
                poly = poly * inner_poly
            else:
                raise ParseError("expected a factor", at)
            if self.peek()[0] == "*":
                self.take()
                continue
            return poly, tag

    def parse_term(self) -> tuple[SuperPoly, object]:
        kind, _val, at = self.peek()
        if kind == "int":
            coeff = self.parse_scalar()
            if self.peek()[0] == "*":
                self.take()
                poly, tag = self.parse_factors()
                return poly * coeff, tag
            return SuperPoly.scalar(self.sig, coeff), None
        if kind in ("factor", "("):
            return self.parse_factors()
        raise ParseError("expected a term", at)

    def parse_element_body(self) -> tuple[SuperPoly, VectorField]:
        sig = self.sig
        poly = SuperPoly.zero(sig)
        field = VectorField.zero(sig)
        sign = 1
        if self.peek()[0] in ("+", "-"):
            sign = 1 if self.take()[0] == "+" else -1
        while True:
            tpoly, tag = self.parse_term()
            if sign < 0:
                tpoly = -tpoly
            if tag is None:
                poly = poly + tpoly
            else:
                field = field + VectorField.from_poly_tag(tpoly, tag)
            if self.peek()[0] in ("+", "-"):
                sign = 1 if self.take()[0] == "+" else -1
                continue
            return poly, field


def parse_element(text: str, sig: Signature, expect: str | None = None,
                  warnings: list | None = None):
    """Parse an element literal.

    Returns a SuperPoly, VectorField or QPElement depending on content,
    unless `expect` pins one of 'poly', 'field', 'qp'.  Warnings about
    dropped zero terms are appended to `warnings` when given.
    """
    parser = _Parser(text, sig)
    poly, field = parser.parse_element_body()
    end = parser.take("end")
    if warnings is not None:
        warnings.extend(parser.warnings)
    if expect == "poly":
        if not field.is_zero():
            raise ParseError("expected a plain polynomial", end[2])
        return poly
    if expect == "field":
        if not poly.is_zero():
            raise ParseError("expected a pure vector field", end[2])
        return field
    if expect == "qp":
        if sig.includes_t0:
            raise ParseError("algebra ⊕ derivation elements are t0-free", 0)
        return QPElement.pair(poly, field)
    if field.is_zero():
        return poly
    if poly.is_zero():
        return field
    if sig.includes_t0:
        raise ParseError("mixed element needs the t0-free signature", 0)
    return QPElement.pair(poly, field)


def parse_scalar_literal(text: str) -> Scalar:
    """Parse a standalone scalar such as '-3/2' or '1/2+1/3i': the grammar's
    ['+'|'-'] scalar, and nothing after it."""
    parser = _Parser(text, Signature(1, 1))
    sign = 1
    if parser.peek()[0] in ("+", "-"):
        sign = 1 if parser.take()[0] == "+" else -1
    value = parser.parse_scalar(sign)
    parser.take("end")
    return value


# ---------- canonical formatting ----------

def _tag_key(tag):
    if tag is None:
        return (0, 0)
    return (1, tag[1]) if tag[0] == "d" else (2, tag[1])


def _sign_split(c: Scalar) -> tuple[bool, Scalar]:
    """(negative, c with that sign taken out): a printed term carries the
    sign of its leading numerator, the real one or, when that is 0, the
    imaginary one."""
    neg = (c.p or c.q) < 0
    return neg, -c if neg else c


def _term_text(sig: Signature, coeff: Scalar, exps, mask: int, tag) -> str:
    parts = []
    for i in sig.tvars():
        e = exps[sig.tpos(i)]
        if e == 1:
            parts.append(f"t{i}")
        elif e:
            parts.append(f"t{i}^{e}")
    parts.extend(f"z{k}" for k in mask_indices(mask))
    if tag is not None:
        parts.append(("D" if tag[0] == "d" else "Q") + str(tag[1]))
    text = format_scalar(coeff)
    if parts:
        text += "*" + "*".join(parts)
    return text


def _collect_terms(e):
    """(exps, mask, tag, coeff) of each term; tag None for the algebra
    part, which a QPElement stores under ('d', 0)."""
    if isinstance(e, SuperPoly):
        return e.sig, [(exps, mask, None, c) for (exps, mask), c in e.terms.items()]
    if not isinstance(e, (VectorField, QPElement)):
        raise TypeError("cannot format this element kind")
    algebra = ("d", 0) if isinstance(e, QPElement) else None
    return e.sig, [(exps, mask, None if tag == algebra else tag, c)
                   for (exps, mask, tag), c in e.terms.items()]


def _signed_sum(pieces, pad: str = "") -> str:
    """Join (negative, text) pieces into one signed sum: the first piece
    bare or after "-", each later one after pad + "+" or "-" + pad; "0"
    when there are none."""
    out = []
    for neg, text in pieces:
        if out:
            out.append(f"{pad}{'-' if neg else '+'}{pad}{text}")
        else:
            out.append("-" + text if neg else text)
    return "".join(out) or "0"


def format_element(e) -> str:
    """Canonical literal; round-trips exactly through parse_element."""
    sig, terms = _collect_terms(e)
    zero_key = (sig.zero_exps(), 0, None)
    terms.sort(key=lambda t: (t[:2] + (_tag_key(t[2]),)))
    terms.sort(key=lambda t: t[:3] == zero_key)
    pieces = []
    for exps, mask, tag, coeff in terms:
        neg, coeff = _sign_split(coeff)
        pieces.append((neg, _term_text(sig, coeff, exps, mask, tag)))
    return _signed_sum(pieces)


def format_smash(u) -> str:
    """Readable (not round-tripping) form of a smash element."""
    sig = u.sig
    items = sorted(u.terms.items(), key=lambda kv: (
        kv[0][0], kv[0][1], kv[0][2], kv[0][3], _tag_key(kv[0][4])
    ))
    pieces = []
    for (ae, am, be, bm, tag), c in items:
        neg, coeff = _sign_split(c)
        left = _term_text(sig, coeff, ae, am, None)
        right = _term_text(sig, Scalar(1), be, bm, tag)
        if right.startswith("1*"):
            right = right[2:]
        pieces.append((neg, f"{left} # {right}"))
    return _signed_sum(pieces, pad=" ")


def format_gl_matrix(g) -> str:
    """Combination of elementary matrices, e.g. 'E_0_0+E_1_0'."""
    pieces = []
    for (a, b), c in sorted(g.terms.items()):
        neg, cc = _sign_split(c)
        body = f"E_{a}_{b}" if cc == 1 else f"{format_scalar(cc)}*E_{a}_{b}"
        pieces.append((neg, body))
    return _signed_sum(pieces)


def format_tensor(v) -> str:
    """Readable (not round-tripping) form of a tensor vector."""
    sig = v.sig
    pieces = []
    for (exps, mask, idx), c in v.sorted_terms():
        neg, cc = _sign_split(c)
        pieces.append((neg, _term_text(sig, cc, exps, mask, None) + f"*e{idx}"))
    return _signed_sum(pieces)
