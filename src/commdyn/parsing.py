"""Text grammar for maps, scalars, and points.

Scalars combine integers, fractions written p/q, and zeta<k> tokens with
the operators + - * / ^.  Map expressions additionally use a single
variable letter.  The printed form of every map and scalar in this
package parses back to an equal value.

Every parse takes a degree cap, checked before each operation is built:
an exponent above the cap, a power whose degree would pass it, and a sum,
difference, product or quotient whose operand degrees add up past it all
raise BudgetError.
"""

from __future__ import annotations

import re

from .errors import BudgetError, InputParseError
from .exactfield import FieldElement, rational, zeta
from .polynomial import Polynomial
from .ratmap import INF, Point, RationalFunction, RationalMap

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<number>\d+)|(?P<zeta>zeta\d+)|(?P<name>[A-Za-z_]\w*)"
    r"|(?P<op>[-+*/^()]))")


def _tokenize(text: str) -> list[str]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None or m.end() == pos:
            raise InputParseError(f"unreadable input near {text[pos:pos + 12]!r}")
        tokens.append(m.group().strip())
        pos = m.end()
    return tokens


class _Parser:
    """Recursive descent over rational-function values."""

    def __init__(self, tokens: list[str], var: str | None, degree_cap: int):
        self.tokens = tokens
        self.pos = 0
        self.var = var
        self.degree_cap = degree_cap

    def within_cap(self, degree: int, what: str):
        if degree > self.degree_cap:
            raise BudgetError(f"{what} of degree {degree} exceeds cap {self.degree_cap}")

    def peek(self) -> str | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def take(self) -> str:
        tok = self.peek()
        if tok is None:
            raise InputParseError("unexpected end of expression")
        self.pos += 1
        return tok

    def expect(self, tok: str):
        got = self.take()
        if got != tok:
            raise InputParseError(f"expected {tok!r}, found {got!r}")

    def parse(self) -> RationalFunction:
        value = self.sum()
        if self.peek() is not None:
            raise InputParseError(f"trailing input from {self.peek()!r}")
        return value

    def sum(self) -> RationalFunction:
        value = self.product()
        while self.peek() in ("+", "-"):
            op = self.take()
            rhs = self.product()
            self.within_cap(value.degree + rhs.degree, "sum")
            value = value + rhs if op == "+" else value - rhs
        return value

    def product(self) -> RationalFunction:
        value = self.factor()
        while self.peek() in ("*", "/"):
            op = self.take()
            rhs = self.factor()
            self.within_cap(value.degree + rhs.degree, "product")
            try:
                value = value * rhs if op == "*" else value / rhs
            except ZeroDivisionError as exc:
                raise InputParseError("division by zero in expression") from exc
        return value

    def factor(self) -> RationalFunction:
        if self.peek() == "-":
            self.take()
            return -self.factor()
        if self.peek() == "+":
            self.take()
            return self.factor()
        return self.power()

    def power(self) -> RationalFunction:
        base = self.atom()
        if self.peek() == "^":
            self.take()
            negative = False
            if self.peek() == "-":
                self.take()
                negative = True
            tok = self.take()
            if not tok.isdigit():
                raise InputParseError(f"exponent must be an integer, found {tok!r}")
            e = int(tok)
            self.within_cap(max(e, e * base.degree), "power")
            try:
                return base ** (-e if negative else e)
            except ZeroDivisionError as exc:
                raise InputParseError("zero raised to a negative power") from exc
        return base

    def atom(self) -> RationalFunction:
        tok = self.take()
        if tok == "(":
            inner = self.sum()
            self.expect(")")
            return inner
        if tok.isdigit():
            return _const(rational(int(tok)))
        if tok.startswith("zeta") and tok[4:].isdigit():
            return _const(zeta(int(tok[4:])))
        if re.fullmatch(r"[A-Za-z_]\w*", tok):
            if self.var is None:
                raise InputParseError(f"variable {tok!r} in a scalar expression")
            if tok != self.var:
                raise InputParseError(
                    f"unknown symbol {tok!r}; the map variable is {self.var!r}")
            return RationalFunction(Polynomial.variable(self.var),
                                    Polynomial.one(self.var))
        raise InputParseError(f"unexpected token {tok!r}")


def _const(c: FieldElement) -> RationalFunction:
    return RationalFunction(Polynomial.constant(c), Polynomial.one())


def parse_function(text: str, var: str = "z", degree_cap: int = 5000) -> RationalFunction:
    return _Parser(_tokenize(text), var, degree_cap).parse()


def parse_map(text: str, var: str = "z", degree_cap: int = 5000) -> RationalMap:
    """Parse a dominant self-map; constants are rejected."""
    f = parse_function(text, var, degree_cap)
    if f.is_constant():
        raise InputParseError("expression is constant, not a map")
    return RationalMap.from_function(f)


def parse_scalar(text: str, degree_cap: int = 5000) -> FieldElement:
    f = _Parser(_tokenize(text), None, degree_cap).parse()
    return f.num.coeff(0) / f.den.coeff(0)


def parse_point(text: str, degree_cap: int = 5000) -> Point:
    stripped = text.strip()
    if stripped in ("inf", "oo", "infinity"):
        return INF
    return parse_scalar(stripped, degree_cap)
