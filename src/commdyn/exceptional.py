"""Constructors and recognizers for the exceptional map families.

Covers the three families whose centralizers are oversized: monomial maps
times roots of unity, Chebyshev polynomials up to sign, and flexible
elliptic-curve quotient maps built from division polynomials.

The recognizer here is deliberately modest: it finds a two-point totally
ramified, fully invariant set when one exists with coordinates in the
working field, and reports None otherwise.  Quadratic point pairs are
split only when the discriminant has a rational square root.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb

from .errors import PreconditionError
from .exactfield import FieldElement, rational, zeta
from .polynomial import Polynomial, gcd_univariate, squarefree_part
from .ratmap import (
    INF,
    Mobius,
    Point,
    RationalMap,
    agree,
    is_inf,
    mobius_three_points,
    point_sort_key,
)

_ONE = FieldElement.one()


def chebyshev(d: int, sign: int = 1) -> RationalMap:
    """The degree-d Chebyshev-normalized polynomial, or its negative.

    The Dickson polynomial D_d(z, 1), built from its integer coefficients:
    t_d = sum over k <= d/2 of (-1)^k d/(d-k) C(d-k, k) z^(d-2k).  It
    satisfies t_{d+1} = z*t_d - t_{d-1} from t0 = 2, t1 = z, so t2 = z^2 - 2.
    """
    if d < 1:
        raise PreconditionError("degree must be at least one")
    if sign not in (1, -1):
        raise PreconditionError("sign must be +1 or -1")
    coeffs = [0] * (d + 1)
    for k in range(d // 2 + 1):
        coeffs[d - 2 * k] = sign * (-1) ** k * d * comb(d - k, k) // (d - k)
    return RationalMap.polynomial_map(Polynomial.from_ints(coeffs))


def verify_chebyshev_semiconjugacy(d: int) -> bool:
    """Exact check of t_d((z^2+1)/z) == (z^(2d)+1)/z^d."""
    t = chebyshev(d)
    joukowski = RationalMap(Polynomial.from_ints([1, 0, 1]), Polynomial.variable())
    rhs = RationalMap(
        Polynomial.from_ints([1] + [0] * (2 * d - 1) + [1]),
        Polynomial.variable() ** d)
    return agree([t, joukowski], [rhs])


def power_map(d: int, inverse: bool = False, unity_order: int = 1,
              unity_exponent: int = 1) -> RationalMap:
    """zeta * z^d or zeta * z^(-d) for a chosen root of unity zeta."""
    if d < 1:
        raise PreconditionError("degree must be at least one")
    scalar = zeta(unity_order) ** unity_exponent
    monomial = Polynomial.variable() ** d
    if inverse:
        return RationalMap(Polynomial.constant(scalar), monomial)
    return RationalMap(monomial.scale(scalar), Polynomial.one())


@dataclass(frozen=True)
class ExceptionalTag:
    """Witnessed conjugacy onto a normal form.

    conjugating by witness.inverse() carries the map onto normal_form,
    which is scalar * z^exponent, with the exponent negated when
    inverted is set.
    """

    kind: str
    witness: Mobius
    normal_form: RationalMap
    exponent: int
    inverted: bool
    scalar: FieldElement


def _rational_sqrt(value: FieldElement):
    """Exact square root of a rational field element, or None."""
    if not value.is_rational():
        return None
    frac = value.as_fraction()
    if frac < 0:
        return None
    num, den = frac.numerator, frac.denominator
    rn = _isqrt_exact(num)
    rd = _isqrt_exact(den)
    if rn is None or rd is None:
        return None
    return rational(Fraction(rn, rd))


def _isqrt_exact(n: int):
    from math import isqrt

    r = isqrt(n)
    return r if r * r == n else None


def _roots_in_field(p: Polynomial) -> list[FieldElement]:
    """Roots of a polynomial of degree at most two, when representable."""
    p = squarefree_part(p)
    if p.degree == 1:
        return [-p.coeff(0) / p.coeff(1)]
    if p.degree == 2:
        a, b, c = p.coeff(2), p.coeff(1), p.coeff(0)
        disc = b * b - rational(4) * a * c
        root = _rational_sqrt(disc)
        if root is None:
            return []
        half = (rational(2) * a).inverse()
        return [(-b + root) * half, (-b - root) * half]
    return []


def _multiplicity_gcd(p: Polynomial, m: int) -> Polynomial:
    """Polynomial whose roots are the roots of p of multiplicity >= m."""
    acc = p
    current = p
    for _ in range(m - 1):
        current = current.derivative()
        acc = gcd_univariate(acc, current)
        if acc.degree == 0:
            break
    return acc


def _totally_ramified_pairs(f: RationalMap) -> list[tuple[Point, Point]]:
    """(value, source) pairs where the fiber over value is the single source."""
    d = f.degree
    pairs: list[tuple[Point, Point]] = []
    crit = f.critical_numerator()
    candidates: list[Point] = []
    if not crit.is_zero():
        heavy = _multiplicity_gcd(crit, d - 1) if d > 2 else crit
        candidates.extend(_roots_in_field(heavy))
    candidates.append(INF)
    for s in candidates:
        v = f(s)
        poly, inf_in = f.fiber_polynomial(v)
        if is_inf(s):
            if poly.degree == 0 and inf_in:
                pairs.append((v, s))
            continue
        if inf_in or poly.degree != d:
            continue
        target = Polynomial([-s, _ONE]) ** d
        if poly.monic() == target:
            pairs.append((v, s))
    unique: list[tuple[Point, Point]] = []
    for pair in pairs:
        if all(point_sort_key(pair[0]) != point_sort_key(q[0]) for q in unique):
            unique.append(pair)
    return unique


def is_power_conjugate(f: RationalMap):
    """Tag f when a linear change of coordinates turns it into c * z^(+-d).

    Looks for two points whose joint preimage is exactly themselves, each
    fully ramified.  Returns None when no such pair exists over the
    working field.
    """
    d = f.degree
    if d < 2:
        return None
    pairs = _totally_ramified_pairs(f)
    if len(pairs) != 2:
        return None
    pairs.sort(key=lambda pair: point_sort_key(pair[0]))
    (v1, s1), (v2, s2) = pairs
    sources = sorted((point_sort_key(s1), point_sort_key(s2)))
    values = sorted((point_sort_key(v1), point_sort_key(v2)))
    if sources != values:
        return None
    anchor = next(
        rational(r) for r in (1, 0, -1, 2, -2, 3, -3)
        if point_sort_key(rational(r)) not in (point_sort_key(v1), point_sort_key(v2)))
    witness = mobius_three_points(v1, anchor, v2)
    normal = f.conjugate(witness.inverse())
    num, den = normal.num, normal.den
    monomial = Polynomial.variable() ** d
    if den.is_constant() and num.degree == d and num.monic() == monomial \
            and all(num.coeff(i).is_zero() for i in range(1, d)):
        scalar = num.leading() / den.coeff(0)
        return ExceptionalTag("power", witness, normal, d, False, scalar)
    if num.is_constant() and den.monic() == monomial \
            and all(den.coeff(i).is_zero() for i in range(1, d)):
        scalar = num.coeff(0) / den.leading()
        return ExceptionalTag("power", witness, normal, d, True, scalar)
    return None


def _division_polynomials(a: FieldElement, b: FieldElement, top: int) -> list[Polynomial]:
    """Division polynomials with y^2 already substituted; index n holds
    psi_n for odd n and psi_n / y for even n, as polynomials in the
    x-coordinate."""
    x = Polynomial.variable()
    e = x ** 3 + x.scale(a) + Polynomial.constant(b)  # right-hand side of the curve
    e2 = e * e
    p: list[Polynomial] = [Polynomial.zero(), Polynomial.one(),
                           Polynomial.from_ints([2])]
    p.append(x ** 4 * rational(3) + (x * x).scale(rational(6) * a)
             + x.scale(rational(12) * b) - Polynomial.constant(a * a))
    p.append((x ** 6 + (x ** 4).scale(rational(5) * a)
              + (x ** 3).scale(rational(20) * b)
              - (x * x).scale(rational(5) * a * a)
              - x.scale(rational(4) * a * b)
              - Polynomial.constant(rational(8) * b * b + a ** 3)) * rational(4))
    half = rational(1, 2)
    for n in range(5, top + 1):
        if n % 2 == 1:
            k = (n - 1) // 2
            if k % 2 == 0:
                p.append(e2 * p[k + 2] * p[k] ** 3 - p[k - 1] * p[k + 1] ** 3)
            else:
                p.append(p[k + 2] * p[k] ** 3 - e2 * p[k - 1] * p[k + 1] ** 3)
        else:
            k = n // 2
            p.append((p[k] * (p[k + 2] * p[k - 1] ** 2
                              - p[k - 2] * p[k + 1] ** 2)).scale(half))
    return p


def lattes_flexible(m: int, a, b) -> RationalMap:
    """The degree m^2 map induced on x-coordinates by multiplication by m
    on the curve y^2 = x^3 + a*x + b."""
    if m < 1:
        raise PreconditionError("multiplier must be at least one")
    a = a if isinstance(a, FieldElement) else rational(a)
    b = b if isinstance(b, FieldElement) else rational(b)
    disc = rational(4) * a ** 3 + rational(27) * b ** 2
    if disc.is_zero():
        raise PreconditionError("curve is singular: 4a^3 + 27b^2 = 0")
    if m == 1:
        return RationalMap.identity()
    x = Polynomial.variable()
    e = x ** 3 + x.scale(a) + Polynomial.constant(b)
    p = _division_polynomials(a, b, m + 1)
    if m % 2 == 1:
        num = x * p[m] ** 2 - p[m + 1] * p[m - 1] * e
        den = p[m] ** 2
    else:
        num = x * p[m] ** 2 * e - p[m + 1] * p[m - 1]
        den = p[m] ** 2 * e
    # on a nonsingular curve phi_m and psi_m^2 are coprime (Silverman,
    # The Arithmetic of Elliptic Curves, Exercise 3.7), so no gcd is taken
    result = RationalMap._from_coprime(num, den)
    if result.degree != m * m:
        raise PreconditionError("degree drop: the curve data is degenerate")
    return result
