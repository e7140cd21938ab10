"""Exact periodic-point machinery.

Fixed and periodic points of a rational self-map are carried as a single
polynomial per period, with a separate flag absorbing the point at
infinity.  Multiplier spectra come out of resultant elimination in the
map's own chart instead of any factorization: the multipliers of all
period-n points are the roots of one monic polynomial, assembled by
interpolating the eliminant from integer samples, with the points at
infinity in closed form (Milnor, Dynamics in One Complex Variable, 3rd
ed., section 12).  The derivative-invariance identity along a commuting
map is checked as exact polynomial divisibility.
"""

import math
from dataclasses import dataclass
from itertools import islice

from .errors import NotAPowerError, PreconditionError
from .polynomial import (
    Polynomial,
    gcd_univariate,
    lagrange_interpolate,
    resultant,
)
# random_mobius is unused: perfbench/tracer.py hooks it until ROADMAP item 1
from .ratmap import RationalMap, agree, random_mobius, sample_points
from .ritt import _prime_exponents


@dataclass(frozen=True)
class PeriodicSpectrum:
    """Period-n point data: defining polynomial and infinity flag.

    The affine period-n points are the roots of phi (with multiplicity);
    infinity_is_periodic records the one point the polynomial cannot see.
    Their total is deg(f)^n + 1 whenever infinity is a simple point of
    the fixed locus.
    """

    n: int
    phi: Polynomial
    infinity_is_periodic: bool


def _fixed_polynomial(it: RationalMap) -> Polynomial:
    """monic(z*G - F) for it = F/G: the affine fixed points of the map."""
    return (Polynomial.variable(it.num.var) * it.den - it.num).monic()


def _divide_out(phi: Polynomial, other: Polynomial) -> Polynomial:
    """phi without the roots it shares with other, multiplicity and all; 0 stays 0."""
    shared = gcd_univariate(phi, other)
    while shared.degree > 0 and not phi.is_zero():
        phi = phi.exact_div(shared)
        shared = gcd_univariate(phi, other)
    return phi


def periodic_polynomial(f: RationalMap, n: int,
                        degree_cap: int = 5000) -> PeriodicSpectrum:
    """Monic polynomial vanishing on the affine points of period dividing n.

    With f^n = F/G reduced, the fixed-point equation is z*G(z) = F(z);
    infinity is fixed exactly when deg F exceeds deg G.
    """
    it = f.iterate(n, degree_cap)
    return PeriodicSpectrum(
        n=n,
        phi=_fixed_polynomial(it),
        infinity_is_periodic=it.num.degree > it.den.degree,
    )


def exact_period_polynomial(f: RationalMap, n: int,
                            degree_cap: int = 5000) -> PeriodicSpectrum:
    """Period-n polynomial with every proper-divisor period divided out.

    Quotients by gcd only, so parabolic multiplicity collisions can leave
    a root of lower exact period behind; callers needing certainty should
    verify the period of each root they use.
    """
    spec = periodic_polynomial(f, n, degree_cap)
    phi = spec.phi
    inf_flag = spec.infinity_is_periodic
    for m in range(1, n):
        if n % m != 0:
            continue
        lower = periodic_polynomial(f, m, degree_cap)
        if lower.infinity_is_periodic:
            inf_flag = False
        phi = _divide_out(phi, lower.phi)
    return PeriodicSpectrum(n=n, phi=phi.monic(),
                            infinity_is_periodic=inf_flag)


def multiplier_spectrum(f: RationalMap, n: int,
                        degree_cap: int = 5000) -> Polynomial:
    """Monic polynomial whose roots are the period-n multipliers of f.

    With f^n = F/G reduced, of degree D, the affine period-n points are
    the roots of phi = monic(z*G - F).  F and G are coprime, so G does
    not vanish there, and the multiplier at a root a is N(a)/G(a)^2 with
    N = F'G - FG' left unreduced.  The affine part of the spectrum is the
    resultant of phi against w*G^2 - N, evaluated at integer samples w
    and interpolated.  phi must be monic: where the degree of w*G^2 - N
    drops at a sample, a leading coefficient of phi would enter the
    resultant to a power that depends on w.

    The other m = D + 1 - deg phi period-n points sit at infinity, with
    multiplier 1 when m >= 2 (a multiple fixed point, Milnor section 12),
    0 when deg F - deg G >= 2, and lc(G)/lc(F) when deg F - deg G = 1.
    The spectrum, of degree D + 1, is the affine part times (w - that)^m.
    """
    it = f.iterate(n, degree_cap)
    F, G = it.num, it.den
    phi = _fixed_polynomial(it)
    if phi.is_zero():
        raise PreconditionError(
            f"f^{n} is the identity: every point is fixed, so there is no spectrum")
    N = F.derivative() * G - F * G.derivative()
    G2 = G * G
    xs = list(islice(sample_points(), phi.degree + 1))
    ys = [resultant(phi, G2.scale(w) - N) for w in xs]
    spectrum = lagrange_interpolate(xs, ys, var="w").monic()
    m = it.degree + 1 - phi.degree
    if m == 0:
        return spectrum
    if m >= 2:
        at_infinity = 1
    elif F.degree - G.degree >= 2:
        at_infinity = 0
    else:
        at_infinity = G.leading() * F.leading().inverse()
    return spectrum * Polynomial([-at_infinity, 1], "w") ** m


def pow_mod(base: Polynomial, exponent: int, modulus: Polynomial) -> Polynomial:
    result = Polynomial.one(base.var)
    acc = base % modulus
    e = exponent
    while e > 0:
        if e & 1:
            result = (result * acc) % modulus
        acc = (acc * acc) % modulus
        e >>= 1
    return result


def _compose_numerator_mod(poly: Polynomial, gnum: Polynomial,
                           gden: Polynomial, modulus: Polynomial) -> Polynomial:
    """Numerator of poly(g(x)) over gden^deg(poly), reduced mod modulus."""
    d = poly.degree
    acc = Polynomial.constant(poly.coeff(d), poly.var)
    power = Polynomial.one(poly.var)
    for i in range(d - 1, -1, -1):
        power = (power * gden) % modulus
        acc = (acc * gnum + power.scale(poly.coeff(i))) % modulus
    return acc


def verify_multiplier_identity(f: RationalMap, g: RationalMap, n: int, p: int,
                               degree_cap: int = 5000) -> bool:
    """Exact check that (f^{np})' takes equal values at z and g(z) on Per_np.

    The commutation of g with f^n is certified first by ratmap.agree.
    The identity holds at every period point of f^{np} where g is neither
    critical nor infinite, as a consequence of differentiating the
    commutation relation there.  Those excluded points are removed from
    the periodic polynomial by repeated gcd division, and the remaining
    divisibility of the difference numerator is tested exactly, with the
    composition through g reduced modulo the periodic polynomial at every
    step to keep degrees down.  The derivative of the big iterate is kept
    unreduced: its spurious common factor only vanishes at poles, which
    are never periodic, so the divisibility test is unaffected and the
    large-degree gcd is avoided.
    """
    fn = f.iterate(n, degree_cap)
    if not agree([g, fn], [fn, g]):
        raise PreconditionError(
            "the second map must commute with the n-th iterate of the first")
    big = fn.iterate(p, degree_cap)
    phi = _fixed_polynomial(big)
    num = big.num.derivative() * big.den - big.num * big.den.derivative()
    den = big.den * big.den
    for untestable in (g.derivative().num, g.den):
        phi = _divide_out(phi, untestable)
    if phi.degree <= 0:  # no testable point, or f^(np) is the identity
        return True
    phi = phi.monic()
    comp_num = _compose_numerator_mod(num, g.num, g.den, phi)
    comp_den = _compose_numerator_mod(den, g.num, g.den, phi)
    # bring both composites over a common power of g's denominator
    width = num.degree - den.degree
    if width > 0:
        comp_den = (comp_den * pow_mod(g.den, width, phi)) % phi
    elif width < 0:
        comp_num = (comp_num * pow_mod(g.den, -width, phi)) % phi
    difference = ((num % phi) * comp_den - comp_num * (den % phi)) % phi
    return difference.is_zero()


def common_fixed_points(f: RationalMap,
                        g: RationalMap) -> tuple[Polynomial, bool]:
    """Monic gcd of the two fixed-point polynomials, plus a shared-infinity flag.

    The gcd degree plus the flag counts common fixed points with
    multiplicity.
    """
    first = periodic_polynomial(f, 1)
    second = periodic_polynomial(g, 1)
    shared = gcd_univariate(first.phi, second.phi)
    both_inf = first.infinity_is_periodic and second.infinity_is_periodic
    return shared, both_inf


def logarithmic_degree(reference_degree: int,
                       query_degree: int) -> tuple[int, int]:
    """Smallest root d0 of the reference degree, and log_{d0} of the query.

    d0 carries the same primes as the reference with exponents divided by
    their gcd, so the reference is d0^k for the largest possible k.
    Raises NotAPowerError when the query is not an exact power of d0.
    """
    if reference_degree < 2 or query_degree < 2:
        raise PreconditionError("both degrees must be at least two")
    exponents = _prime_exponents(reference_degree)
    shrink = math.gcd(*exponents.values())
    d0 = 1
    for prime, alpha in exponents.items():
        d0 *= prime ** (alpha // shrink)
    value, level = d0, 1
    while value < query_degree:
        value *= d0
        level += 1
    if value != query_degree:
        raise NotAPowerError(
            f"{query_degree} is not a power of the degree root {d0}")
    return d0, level
