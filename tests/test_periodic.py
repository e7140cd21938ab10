"""Periodic-point polynomials, multiplier spectra, and derivative identities."""

import random
from fractions import Fraction
from itertools import islice

import pytest

from commdyn.errors import NotAPowerError, PreconditionError
from commdyn.exactfield import rational, zeta
from commdyn.exceptional import chebyshev, lattes_flexible
from commdyn.parsing import parse_map
from commdyn.periodic import (
    common_fixed_points,
    exact_period_polynomial,
    logarithmic_degree,
    multiplier_spectrum,
    periodic_polynomial,
    verify_multiplier_identity,
)
from commdyn.polynomial import Polynomial, gcd_univariate, lagrange_interpolate, resultant
from commdyn.ratmap import RationalMap, random_mobius, sample_points

E2_U = parse_map("(z^2 - 4)/(z - 1)")
E2_V = parse_map("(z^2 + 2)/(z + 1)")
E2_F = E2_U.compose(E2_V)
E2_SIGMA = parse_map("zeta3 * z")
E2_G = E2_V.compose(E2_U)
E2_H = E2_V.compose(E2_SIGMA).compose(E2_U)


def _poly(*coeffs: int) -> Polynomial:
    return Polynomial.from_ints(list(coeffs))


def random_equal_degree_map(rng: random.Random) -> RationalMap:
    """Seeded draw with numerator and denominator of the same degree.

    Equal degrees keep infinity off the fixed locus of every iterate, so
    the affine periodic polynomial carries the full point count.
    """
    d = rng.choice([2, 3])
    while True:
        num = [rng.randint(-5, 5) for _ in range(d + 1)]
        den = [rng.randint(-5, 5) for _ in range(d + 1)]
        if num[-1] == 0 or den[-1] == 0:
            continue
        f = RationalMap(Polynomial.from_ints(num), Polynomial.from_ints(den))
        if f.degree == d and f.num.degree == d and f.den.degree == d:
            return f


def random_map(rng: random.Random, d: int, k: int = 1) -> RationalMap:
    """Seeded degree-d draw over Q(zeta_k) with a denominator of any degree up to d.

    A denominator of lower degree makes infinity periodic, the case that
    multiplier_spectrum treats in closed form.
    """
    unit = zeta(k)

    def coeff():
        c = rational(rng.randint(-3, 3))
        return c + unit * rng.randint(-3, 3) if k > 1 else c

    def coeffs(degree):
        return [coeff() for _ in range(degree + 1)]

    while True:
        num, den = Polynomial(coeffs(d)), Polynomial(coeffs(rng.randint(0, d)))
        if not den.is_zero() and num.degree == d:
            f = RationalMap(num, den)
            if f.degree == d:
                return f


def _spectrum_by_conjugation(f: RationalMap, n: int) -> Polynomial:
    """The spectrum through a change of coordinates: the oracle of the closed form.

    Conjugates f by seeded fractional-linear maps until no period-n point
    sits at infinity, then eliminates the periodic polynomial against the
    reduced derivative of the conjugate's n-th iterate.
    """
    spec = periodic_polynomial(f, n)
    target = f
    if spec.infinity_is_periodic:
        for seed in range(8):
            candidate = f.conjugate(random_mobius(seed))
            moved = periodic_polynomial(candidate, n)
            if not moved.infinity_is_periodic:
                target, spec = candidate, moved
                break
        else:
            raise AssertionError(f"no seed moved every period-{n} point off infinity")
    derivative = target.iterate(n).derivative()
    xs = list(islice(sample_points(), spec.phi.degree + 1))
    ys = [resultant(spec.phi, derivative.den.scale(w) - derivative.num) for w in xs]
    return lagrange_interpolate(xs, ys, var="w").monic()


def _oracle_panel():
    survey = [("z^2", parse_map("z^2")), ("z^3", parse_map("z^3")),
              ("T2", chebyshev(2)), ("T3", chebyshev(3)),
              ("lattes(0,1)", lattes_flexible(2, rational(0), rational(1))),
              ("lattes(-1,0)", lattes_flexible(2, rational(-1), rational(0)))]
    # infinity, once periodic, is superattracting for 1/z^2 (at n = 2), a
    # multiple fixed point for z + 1/z and has multiplier lc(G)/lc(F) = 1/2
    # for 2z^3/(z^2 + 1)
    others = [(text, parse_map(text)) for text in (
        "1/z^2", "z + 1/z", "2*z^3/(z^2 + 1)", "zeta3*z^2 + 1", "z^2 + zeta4*z")]
    rng = random.Random(20261018)
    drawn = [(f"random{i}", random_map(rng, 2)) for i in range(3)]
    cases = [pytest.param(f, n, id=f"{name}-n{n}")
             for name, f in survey + others + drawn for n in (1, 2)]
    cases += [pytest.param(parse_map(text), 3, id=f"{text}-n3")
              for text in ("z^2", "z^2 - 2", "z^2 - 1")]
    return cases


class TestPeriodicPolynomial:
    def test_squaring_fixed_points(self):
        spec = periodic_polynomial(parse_map("z^2"), 1)
        assert spec.phi == _poly(0, -1, 1)
        assert spec.infinity_is_periodic
        assert spec.phi.degree + 1 == 3

    def test_degree_two_chebyshev_fixed_points(self):
        spec = periodic_polynomial(parse_map("z^2 - 2"), 1)
        assert spec.phi == _poly(-2, -1, 1)
        assert spec.infinity_is_periodic

    def test_squaring_period_two_count(self):
        spec = periodic_polynomial(parse_map("z^2"), 2)
        assert spec.phi.degree + int(spec.infinity_is_periodic) == 5

    def test_exact_period_two_of_squaring(self):
        spec = exact_period_polynomial(parse_map("z^2"), 2)
        assert spec.phi == _poly(1, 1, 1)
        assert not spec.infinity_is_periodic

    def test_identity_iterate_stays_zero(self):
        # (1/z)^2 and (-z)^2 are the identity: every point is fixed, and
        # dividing the lower periods out of that zero polynomial must end
        for text, infinity in (("1/z", True), ("-z", False)):
            spec = exact_period_polynomial(parse_map(text), 2)
            assert spec.phi.is_zero()
            assert spec.infinity_is_periodic == infinity

    def test_divisor_containment(self):
        f = parse_map("z^2 - 1")
        low = periodic_polynomial(f, 1).phi
        high = periodic_polynomial(f, 2).phi
        assert gcd_univariate(high, low) == low


class TestMultiplierSpectrum:
    def test_squaring(self):
        assert multiplier_spectrum(parse_map("z^2"), 1) == _poly(0, 0, -2, 1)

    def test_degree_two_chebyshev(self):
        assert multiplier_spectrum(parse_map("z^2 - 2"), 1) == _poly(0, -8, -2, 1)

    def test_degree_count(self):
        f = parse_map("(z^3 + 1)/(z^2 + 3)")
        assert multiplier_spectrum(f, 1).degree == f.degree + 1

    def test_conjugation_invariance(self):
        f = parse_map("z^2 - 1")
        m = random_mobius(5)
        assert multiplier_spectrum(f.conjugate(m), 2) == multiplier_spectrum(f, 2)

    @pytest.mark.parametrize("f, n", _oracle_panel())
    def test_matches_conjugating_path(self, f, n):
        assert multiplier_spectrum(f, n) == _spectrum_by_conjugation(f, n)

    def test_matches_sympy_resultant(self):
        """monic Res_z(phi, w*G^2 - N), with f^n = F/G iterated and reduced by sympy."""
        import sympy

        z, w = sympy.symbols("z w")

        def expr(p):
            return sum(sympy.Rational(str(c.as_fraction())) * z ** i
                       for i, c in enumerate(p.coeffs))

        rng = random.Random(20261020)
        checked = 0
        while checked < 5:
            f = random_equal_degree_map(rng)
            n = 2 if f.degree == 2 else 1
            it = z
            for _ in range(n):
                it = (expr(f.num) / expr(f.den)).subs(z, it)
            F, G = sympy.fraction(sympy.cancel(sympy.together(it)))
            if sympy.degree(F, z) > sympy.degree(G, z):
                continue  # infinity is periodic: the closed form, not a resultant
            phi = sympy.Poly(z * G - F, z).monic().as_expr()
            N = sympy.diff(F, z) * G - F * sympy.diff(G, z)
            expected = sympy.Poly(sympy.resultant(phi, w * G ** 2 - N, z), w).monic()
            got = multiplier_spectrum(f, n)
            assert [c.as_fraction() for c in got.coeffs] == \
                [Fraction(str(c)) for c in expected.all_coeffs()[::-1]]
            checked += 1

    def test_identity_iterate_rejected(self):
        with pytest.raises(PreconditionError):
            multiplier_spectrum(parse_map("1/z"), 2)

    def test_holomorphic_index(self):
        """sum 1/(1 - lambda) = 1 over the fixed points of f^n (Milnor, section 12).

        For P = prod (w - lambda) that reads P'(1) = P(1) whenever P(1) != 0.
        """
        rng = random.Random(20261019)
        one = rational(1)
        for k in (1, 3, 4):
            for d in (2, 3):
                for _ in range(3):
                    f = random_map(rng, d, k)
                    for n in (1, 2):
                        spectrum = multiplier_spectrum(f, n)
                        assert spectrum.degree == d ** n + 1
                        assert spectrum.leading() == one
                        at_one = spectrum.evaluate(one)
                        if not at_one.is_zero():
                            assert spectrum.derivative().evaluate(one) == at_one


class TestMultiplierIdentity:
    def test_rotation_preserves_multipliers(self):
        assert verify_multiplier_identity(E2_F, E2_SIGMA, 1, 1)

    def test_equal_pair(self):
        assert verify_multiplier_identity(E2_G, E2_G, 1, 1)

    def test_power_maps(self):
        assert verify_multiplier_identity(parse_map("z^2"), parse_map("z^3"), 1, 1)

    def test_identity_iterate(self):
        # f^2 = id has derivative one everywhere, so the identity holds
        assert verify_multiplier_identity(parse_map("1/z"), parse_map("1/z"), 2, 1)
        assert verify_multiplier_identity(parse_map("-z"), parse_map("1/z"), 2, 1)

    def test_non_commuting_rejected(self):
        with pytest.raises(PreconditionError):
            verify_multiplier_identity(parse_map("z^2"), parse_map("z + 1"), 1, 1)


class TestCommonFixedPoints:
    def test_equal_maps_share_everything(self):
        shared, inf = common_fixed_points(parse_map("z^2"), parse_map("z^2"))
        assert shared == _poly(0, -1, 1)
        assert inf

    def test_squaring_and_chebyshev_share_only_infinity(self):
        shared, inf = common_fixed_points(parse_map("z^2"), parse_map("z^2 - 2"))
        assert shared.degree == 0
        assert inf

    def test_example_pair_shares_two_points(self):
        shared, inf = common_fixed_points(E2_G, E2_H)
        assert shared == _poly(-2, 1)
        assert inf
        assert shared.degree + int(inf) == 2


class TestPeriodicCounts:
    def test_twenty_seeded_maps(self):
        rng = random.Random(20260822)
        for _ in range(20):
            f = random_equal_degree_map(rng)
            n = rng.randint(1, 3)
            spec = periodic_polynomial(f, n)
            total = spec.phi.degree + int(spec.infinity_is_periodic)
            assert total == f.degree ** n + 1


class TestLogarithmicDegree:
    def test_square_reference(self):
        assert logarithmic_degree(4, 8) == (2, 3)

    def test_mixed_reference_is_its_own_root(self):
        assert logarithmic_degree(12, 12) == (12, 1)

    def test_cube_reference(self):
        assert logarithmic_degree(8, 2) == (2, 1)

    def test_non_power_rejected(self):
        with pytest.raises(NotAPowerError):
            logarithmic_degree(9, 10)
