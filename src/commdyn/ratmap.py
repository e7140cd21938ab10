"""Rational functions and dominant self-maps of the projective line.

A RationalFunction is a reduced fraction of polynomials over a cyclotomic
field; it may be constant.  A RationalMap adds the dominance requirement
(degree at least one) that makes composition and iteration meaningful.
The canonical scaling makes structural equality agree with equality of
maps: a nonconstant denominator is made monic, otherwise the numerator is
made monic and the constant denominator absorbs the scale.

Every instance is stored reduced, and composition preserves that: when
f = F/G and g = P/Q are reduced, the homogeneous composite of the two
coprime pairs is coprime, since its resultant is a product of powers of
their resultants (Silverman, The Arithmetic of Dynamical Systems, ch. 2).
So substitution, composition, iteration and conjugation only rescale and
never run the lowest-terms gcd; the general constructor keeps it for
sums, products, quotients and derivatives, which can share factors.

Infinity is a first-class point, handled through the INF sentinel rather
than through ad hoc degree bookkeeping at call sites.

agree() is the one certified test that two composition chains are the
same map; every commutation and identity check in the package uses it.
It has one branch: compose both chains and compare exactly.  With the
packed polynomial product this beats checking 2D + 1 sample points at
every degree measured (up to 1024).
"""

from __future__ import annotations

import random
from functools import reduce
from math import prod
from typing import Sequence, Union

from .errors import BudgetError, PreconditionError
from .exactfield import FieldElement, rational
from .polynomial import Polynomial, gcd_univariate

_ZERO = FieldElement.zero()
_ONE = FieldElement.one()


class _Infinity:
    """The point at infinity on the projective line."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "inf"


INF = _Infinity()

Point = Union[FieldElement, _Infinity]


def is_inf(p: Point) -> bool:
    return p is INF


def sample_points():
    """The integers 0, 1, -1, 2, -2, ... as field elements, without end.

    The one stream of distinct sample points behind the interpolations
    and anchor points; callers take what they need with itertools.islice.
    """
    k = 0
    while True:
        yield rational(k)
        k = -k if k > 0 else -k + 1


def point_sort_key(p: Point):
    """Deterministic ordering with infinity last."""
    if is_inf(p):
        return (1,)
    return (0, p.sort_key())


def agree(lhs: Sequence[RationalMap], rhs: Sequence[RationalMap]) -> bool:
    """Certified equality of two composition chains, each outermost first.

    Composites of different degrees differ.  Otherwise both chains are
    composed, from the innermost map outward, and compared exactly; the
    canonical scaling makes structural equality equality of maps.
    """
    deg = prod(m.degree for m in lhs)
    if deg != prod(m.degree for m in rhs):
        return False
    return _fold(lhs) == _fold(rhs)


def _fold(chain: Sequence[RationalMap]) -> RationalMap:
    """The composite of a chain, composed from the innermost map outward."""
    return reduce(lambda inner, outer: outer.compose(inner), reversed(chain))


class RationalFunction:
    """Reduced fraction of polynomials; constants allowed."""

    __slots__ = ("num", "den")

    def __init__(self, num: Polynomial, den: Polynomial):
        if not (num.is_zero() or den.is_zero()):
            g = gcd_univariate(num, den)
            if g.degree > 0:
                num = num.exact_div(g)
                den = den.exact_div(g)
        self._canonicalize(num, den)

    @classmethod
    def _from_coprime(cls, num: Polynomial, den: Polynomial):
        """Build from a pair with no common factor; only the scaling runs."""
        f = cls.__new__(cls)
        f._canonicalize(num, den)
        return f

    def _canonicalize(self, num: Polynomial, den: Polynomial) -> None:
        if den.is_zero():
            raise ZeroDivisionError("zero denominator")
        if num.is_zero():
            den = Polynomial.one(den.var)
        lead = (num if den.degree == 0 and not num.is_zero() else den).leading()
        if lead != _ONE:
            scale = lead.inverse()
            num, den = num.scale(scale), den.scale(scale)
        self.num = num
        self.den = den

    # -- queries -------------------------------------------------------------

    @property
    def degree(self) -> int:
        """Degree as a map: max of numerator and denominator degrees."""
        return max(self.num.degree, self.den.degree)

    def is_constant(self) -> bool:
        return self.num.degree <= 0 and self.den.degree <= 0

    def is_zero(self) -> bool:
        return self.num.is_zero()

    # -- arithmetic (field operations on functions) --------------------------

    def __add__(self, other: "RationalFunction") -> "RationalFunction":
        return RationalFunction(self.num * other.den + other.num * self.den,
                                self.den * other.den)

    def __sub__(self, other: "RationalFunction") -> "RationalFunction":
        return RationalFunction(self.num * other.den - other.num * self.den,
                                self.den * other.den)

    def __neg__(self) -> "RationalFunction":
        return RationalFunction._from_coprime(-self.num, self.den)

    def __mul__(self, other: "RationalFunction") -> "RationalFunction":
        return RationalFunction(self.num * other.num, self.den * other.den)

    def __truediv__(self, other: "RationalFunction") -> "RationalFunction":
        if other.is_zero():
            raise ZeroDivisionError("division by the zero function")
        return RationalFunction(self.num * other.den, self.den * other.num)

    def __pow__(self, n: int) -> "RationalFunction":
        if n < 0:
            return RationalFunction._from_coprime(self.den, self.num) ** (-n)
        return RationalFunction._from_coprime(self.num ** n, self.den ** n)

    # -- evaluation ----------------------------------------------------------

    def evaluate(self, x: Point) -> Point:
        if is_inf(x):
            dn, dd = self.num.degree, self.den.degree
            if dn > dd:
                return INF
            if dn < dd:
                return _ZERO
            return self.num.leading() / self.den.leading()
        d = self.den.evaluate(x)
        if d.is_zero():
            return INF
        return self.num.evaluate(x) / d

    __call__ = evaluate

    def substitute(self, inner: "RationalFunction") -> "RationalFunction":
        """Composition self(inner), reduced because both operands are.

        A constant inner at a pole of self raises ZeroDivisionError.
        """
        h = max(self.num.degree, self.den.degree)
        n = _homogeneous_eval(self.num, inner.num, inner.den, h)
        d = _homogeneous_eval(self.den, inner.num, inner.den, h)
        return RationalFunction._from_coprime(n, d)

    def derivative(self) -> "RationalFunction":
        n = self.num.derivative() * self.den - self.num * self.den.derivative()
        return RationalFunction(n, self.den * self.den)

    # -- structure -----------------------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, RationalFunction):
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self) -> int:
        return hash((self.num, self.den))

    def __str__(self) -> str:
        if self.den == Polynomial.one():
            return str(self.num)
        return f"({self.num})/({self.den})"

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self})"


def _homogeneous_eval(p: Polynomial, top: Polynomial, bottom: Polynomial,
                      height: int) -> Polynomial:
    """Sum of p[i] * top^i * bottom^(height - i)."""
    top_pows = [Polynomial.one(top.var)]
    bot_pows = [Polynomial.one(top.var)]
    for _ in range(height):
        top_pows.append(top_pows[-1] * top)
        bot_pows.append(bot_pows[-1] * bottom)
    total = Polynomial.zero(top.var)
    for i in range(p.degree + 1):
        c = p.coeff(i)
        if not c.is_zero():
            total = total + (top_pows[i] * bot_pows[height - i]).scale(c)
    return total


class RationalMap(RationalFunction):
    """A dominant endomorphism of the projective line (degree >= 1)."""

    def _canonicalize(self, num: Polynomial, den: Polynomial) -> None:
        super()._canonicalize(num, den)
        if self.degree < 1:
            raise PreconditionError("constant fractions are not maps")

    @staticmethod
    def from_function(f: RationalFunction) -> "RationalMap":
        return RationalMap._from_coprime(f.num, f.den)

    @staticmethod
    def polynomial_map(p: Polynomial) -> "RationalMap":
        return RationalMap._from_coprime(p, Polynomial.one(p.var))

    @staticmethod
    def identity() -> "RationalMap":
        return RationalMap._from_coprime(Polynomial.variable(), Polynomial.one())

    def compose(self, inner: "RationalMap") -> "RationalMap":
        """self after inner; degrees multiply.

        Both maps are stored reduced and composition preserves that, so
        the composite is only rescaled, never reduced by a gcd.
        """
        return RationalMap.from_function(self.substitute(inner))

    def iterate(self, n: int, degree_cap: int = 5000) -> "RationalMap":
        if n < 1:
            raise PreconditionError("iteration count must be at least one")
        if self.degree ** n > degree_cap:
            raise BudgetError(
                f"iterate degree {self.degree}^{n} exceeds cap {degree_cap}")
        result = self
        for _ in range(n - 1):
            result = self.compose(result)
        return result

    def commutes(self, other: "RationalMap") -> bool:
        return agree([self, other], [other, self])

    def conjugate(self, m: "Mobius") -> "RationalMap":
        """m^(-1) after self after m."""
        return m.inverse().to_map().compose(self).compose(m.to_map())

    def fiber_polynomial(self, value: Point) -> tuple[Polynomial, bool]:
        """Affine preimages of a value, plus whether infinity is a preimage."""
        if is_inf(value):
            poly = self.den
            inf_in = self.num.degree > self.den.degree
        else:
            poly = self.num - self.den.scale(value)
            inf_in = poly.degree < self.degree
        return poly, inf_in

    def critical_numerator(self) -> Polynomial:
        """Numerator of the derivative; roots are the affine critical points."""
        w = self.num.derivative() * self.den - self.num * self.den.derivative()
        return w


class Mobius:
    """Invertible linear fractional map (a*z + b)/(c*z + d)."""

    __slots__ = ("a", "b", "c", "d")

    def __init__(self, a, b, c, d):
        entries = [x if isinstance(x, FieldElement) else rational(x)
                   for x in (a, b, c, d)]
        det = entries[0] * entries[3] - entries[1] * entries[2]
        if det.is_zero():
            raise PreconditionError("linear fractional map must be invertible")
        unit = next(x for x in entries if not x.is_zero()).inverse()
        self.a, self.b, self.c, self.d = (x * unit for x in entries)

    @staticmethod
    def identity() -> "Mobius":
        return Mobius(_ONE, _ZERO, _ZERO, _ONE)

    @staticmethod
    def scaling(c: FieldElement) -> "Mobius":
        return Mobius(c, _ZERO, _ZERO, _ONE)

    @staticmethod
    def from_map(f: RationalMap) -> "Mobius":
        if f.degree != 1:
            raise PreconditionError("map has degree above one")
        return Mobius(f.num.coeff(1), f.num.coeff(0), f.den.coeff(1), f.den.coeff(0))

    def to_map(self) -> RationalMap:
        # a nonzero determinant makes the pair coprime
        return RationalMap._from_coprime(Polynomial([self.b, self.a]),
                                         Polynomial([self.d, self.c]))

    def inverse(self) -> "Mobius":
        return Mobius(self.d, -self.b, -self.c, self.a)

    def compose(self, other: "Mobius") -> "Mobius":
        """self after other, by matrix multiplication."""
        return Mobius(self.a * other.a + self.b * other.c,
                      self.a * other.b + self.b * other.d,
                      self.c * other.a + self.d * other.c,
                      self.c * other.b + self.d * other.d)

    def apply(self, x: Point) -> Point:
        if is_inf(x):
            if self.c.is_zero():
                return INF
            return self.a / self.c
        d = self.c * x + self.d
        if d.is_zero():
            return INF
        return (self.a * x + self.b) / d

    def is_identity(self) -> bool:
        return (self.a == _ONE and self.b.is_zero()
                and self.c.is_zero() and self.d == _ONE)

    def order(self, max_order: int = 120):
        """Smallest n with the n-th power the identity, or None if none found."""
        power = self
        for n in range(1, max_order + 1):
            if power.is_identity():
                return n
            power = power.compose(self)
        return None

    def __eq__(self, other) -> bool:
        if not isinstance(other, Mobius):
            return NotImplemented
        return (self.a, self.b, self.c, self.d) == (other.a, other.b, other.c, other.d)

    def __hash__(self) -> int:
        return hash((self.a, self.b, self.c, self.d))

    def __str__(self) -> str:
        return str(self.to_map())

    def __repr__(self) -> str:
        return f"Mobius({self.a}, {self.b}, {self.c}, {self.d})"


def mobius_three_points(p1: Point, p2: Point, p3: Point) -> Mobius:
    """The unique map sending p1, p2, p3 (distinct) to 0, 1, infinity."""
    points = [p1, p2, p3]
    for i in range(3):
        for j in range(i + 1, 3):
            same = (is_inf(points[i]) and is_inf(points[j])) or (
                not is_inf(points[i]) and not is_inf(points[j])
                and points[i] == points[j])
            if same:
                raise PreconditionError("anchor points must be distinct")
    if is_inf(p1):
        return Mobius(_ZERO, p2 - p3, _ONE, -p3)
    if is_inf(p2):
        return Mobius(_ONE, -p1, _ONE, -p3)
    if is_inf(p3):
        return Mobius(_ONE, -p1, _ZERO, p2 - p1)
    return Mobius(p2 - p3, -p1 * (p2 - p3), p2 - p1, -p3 * (p2 - p1))


def random_mobius(seed: int) -> Mobius:
    """Deterministic small-entry invertible map for a given seed."""
    rng = random.Random(seed)
    while True:
        entries = [rng.randint(-3, 3) for _ in range(4)]
        if entries[0] * entries[3] - entries[1] * entries[2] != 0:
            return Mobius(*entries)
