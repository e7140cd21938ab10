"""Map algebra: composition, iteration, commutation, conjugation."""

import random
from itertools import islice
from math import prod

import pytest
from hypothesis import given, settings, strategies as st

import commdyn.ratmap
from commdyn.errors import BudgetError, PreconditionError
from commdyn.exactfield import rational, zeta
from commdyn.exceptional import chebyshev, power_map
from commdyn.parsing import parse_function, parse_map
from commdyn.periodic import verify_multiplier_identity
from commdyn.polynomial import Polynomial, gcd_univariate
from commdyn.ratmap import (
    INF,
    Mobius,
    RationalMap,
    _homogeneous_eval,
    agree,
    is_inf,
    mobius_three_points,
    point_sort_key,
    random_mobius,
    sample_points,
)


def test_compose_quartic_factors():
    u = parse_map("(z^2 - 4)/(z - 1)")
    v = parse_map("(z^2 + 2)/(z + 1)")
    f = u.compose(v)
    assert f == parse_map("z*(z^3 - 8)/(z^3 + 1)")
    assert f.degree == 4


def test_sample_points_zigzag():
    # interpolation nodes and generator normalization depend on this order
    assert list(islice(sample_points(), 7)) == [
        rational(k) for k in (0, 1, -1, 2, -2, 3, -3)]


def test_iterate_translation():
    f = parse_map("z + 1")
    assert f.iterate(4) == parse_map("z + 4")
    with pytest.raises(BudgetError):
        parse_map("z^2").iterate(13)  # 2^13 > 5000


def test_degree_multiplies_under_composition():
    f = parse_map("(z^2 + 1)/(z - 2)")
    g = parse_map("z^3 - z + 1")
    assert f.compose(g).degree == 6
    assert g.compose(f).degree == 6


def test_commutation_rotation_family():
    # z * g0(z^n) commutes with the rotation by a primitive n-th root
    f = parse_map("z*(z^3 + 1)")     # n = 3, g0 = z + 1
    sigma = RationalMap.polynomial_map(
        parse_function("zeta3 * z").num)
    assert f.commutes(sigma)
    assert not f.commutes(parse_map("z + 1"))


def test_constant_fraction_rejected():
    with pytest.raises(PreconditionError):
        RationalMap.from_function(parse_function("3/4"))


def test_canonical_form_distinguishes_scalings():
    assert parse_map("z^2") != parse_map("2*z^2")
    assert parse_map("(2*z^2 + 2)/(2*z - 2)") == parse_map("(z^2 + 1)/(z - 1)")


def test_zero_function_canonicalizes_fully():
    from commdyn.polynomial import Polynomial
    from commdyn.ratmap import RationalFunction

    zero = RationalFunction(Polynomial.zero(), parse_function("z^3 + 1").num)
    assert zero.is_zero() and zero.is_constant()
    assert zero.den == Polynomial.one()


def test_derivative_quotient_rule():
    v = parse_map("(z^2 + 2)/(z + 1)")
    d = v.derivative()
    assert d == parse_function("(z^2 + 2*z - 2)/(z^2 + 2*z + 1)")


def test_evaluation_with_infinity():
    f = parse_map("z*(z^3 - 8)/(z^3 + 1)")
    assert is_inf(f(INF))                      # top degree wins
    assert f(rational(1)) == rational(-7, 2)
    assert f(rational(0)).is_zero()
    assert is_inf(f(rational(-1)))             # pole
    g = parse_map("(z + 1)/(z^2)")
    assert g(INF).is_zero()
    h = parse_map("(2*z^2 + 1)/(z^2 - 5)")
    assert h(INF) == rational(2)


def test_conjugation_newton_to_square():
    newton = parse_map("(z^2 + 1)/(2*z)")
    m = Mobius.from_map(parse_map("(z + 1)/(1 - z)"))
    assert newton.conjugate(m) == parse_map("z^2")


def test_conjugation_round_trip():
    f = parse_map("(z^3 - 2)/(z + 5)")
    m = random_mobius(3)
    assert f.conjugate(m).conjugate(Mobius.from_map(m.inverse().to_map())) == f


def test_mobius_orders():
    assert Mobius.identity().order() == 1
    assert Mobius.scaling(rational(-1)).order() == 2
    assert Mobius.scaling(zeta(3)).order() == 3
    assert Mobius.scaling(zeta(12)).order() == 12
    assert Mobius.scaling(rational(2)).order() is None
    # an infinite-order parabolic element
    assert Mobius(1, 1, 0, 1).order() is None


def test_mobius_apply_and_inverse():
    m = Mobius(1, 1, 1, -1)  # (z + 1)/(z - 1)
    p = rational(3)
    assert m.inverse().apply(m.apply(p)) == p
    assert m.apply(rational(1)) is INF
    assert m.apply(INF) == rational(1)


def test_mobius_three_points():
    a, b, c = rational(2), rational(5), rational(-1)
    m = mobius_three_points(a, b, c)
    assert m.apply(a).is_zero()
    assert m.apply(b) == rational(1)
    assert is_inf(m.apply(c))
    m2 = mobius_three_points(INF, b, c)
    assert m2.apply(INF).is_zero()
    m3 = mobius_three_points(a, INF, c)
    assert m3.apply(INF) == rational(1)
    m4 = mobius_three_points(a, b, INF)
    assert is_inf(m4.apply(INF))
    with pytest.raises(PreconditionError):
        mobius_three_points(a, a, c)


def test_random_mobius_deterministic():
    assert random_mobius(7) == random_mobius(7)


def test_fiber_polynomial():
    f = parse_map("z^2")
    poly, inf_in = f.fiber_polynomial(rational(4))
    assert [c.as_fraction() for c in poly.coeffs] == [-4, 0, 1]
    assert not inf_in
    poly, inf_in = f.fiber_polynomial(INF)
    assert poly.is_constant() and inf_in


small_maps = st.sampled_from([
    "z^2", "(z^2 + 1)/(2*z)", "z^2 - 2", "(z - 1)/(z + 1)", "z^3 + z",
    "(z^2 - 4)/(z - 1)", "(2*z + 3)/(z - 2)",
])


@settings(max_examples=30, deadline=None)
@given(a=small_maps, b=small_maps, c=small_maps)
def test_composition_associative(a, b, c):
    fa, fb, fc = parse_map(a), parse_map(b), parse_map(c)
    assert fa.compose(fb).compose(fc) == fa.compose(fb.compose(fc))


@settings(max_examples=30, deadline=None)
@given(a=small_maps, seed=st.integers(min_value=0, max_value=50))
def test_conjugation_respects_composition(a, seed):
    f = parse_map(a)
    m = random_mobius(seed)
    lhs = f.compose(f).conjugate(m)
    rhs = f.conjugate(m).compose(f.conjugate(m))
    assert lhs == rhs


@settings(max_examples=30, deadline=None)
@given(a=small_maps, b=small_maps)
def test_chain_rule(a, b):
    f, g = parse_map(a), parse_map(b)
    composed = f.compose(g)
    lhs = composed.derivative()
    rhs = f.derivative().substitute(g) * g.derivative()
    assert lhs == rhs


def _random_map(rng: random.Random, k: int) -> RationalMap:
    """A reduced map of degree at most 3 with small coefficients in Q(zeta_k)."""
    unit = zeta(k)

    def coeff():
        return rational(rng.randint(-3, 3)) + unit * rng.randint(-2, 2)

    while True:
        num = Polynomial([coeff() for _ in range(rng.randint(1, 4))])
        den = Polynomial([coeff() for _ in range(rng.randint(1, 4))])
        try:
            return RationalMap(num, den)
        except (PreconditionError, ZeroDivisionError):
            continue


def _gcd_reduced_compose(f: RationalMap, g: RationalMap) -> RationalMap:
    """f after g, reduced to lowest terms by the gcd."""
    h = f.degree
    return RationalMap(_homogeneous_eval(f.num, g.num, g.den, h),
                       _homogeneous_eval(f.den, g.num, g.den, h))


def _pointwise_agree(lhs, rhs):
    """Oracle for agree: two maps of degree D that agree at 2D + 1 points are
    equal, since num1*den2 - num2*den1 has degree at most 2D; an infinity
    hit is a point where both denominators vanish."""
    deg = prod(m.degree for m in lhs)
    if deg != prod(m.degree for m in rhs):
        return False

    def at(chain, pt):
        for m in reversed(chain):
            pt = m(pt)
        return point_sort_key(pt)

    return all(at(lhs, pt) == at(rhs, pt) for pt in islice(sample_points(), 2 * deg + 1))


@pytest.mark.parametrize("k", [1, 3])
def test_compose_matches_gcd_reduced_oracle(k):
    rng = random.Random(20 + k)
    fixed = [parse_map("1/z"), parse_map("3/(z^2 - 1)"),
             parse_map("(z^2 + 1)/(2*z)").conjugate(random_mobius(5)),
             parse_map("z^2 - 2").conjugate(Mobius(zeta(k), 1, 0, 1))]
    maps = fixed + [_random_map(rng, k) for _ in range(24)]
    maps += [m.conjugate(random_mobius(i)) for i, m in enumerate(maps[4:10])]
    assert any(m.num.degree == 0 for m in maps)
    for _ in range(60):
        f, g = rng.choice(maps), rng.choice(maps)
        composite = f.compose(g)
        assert composite == _gcd_reduced_compose(f, g)
        assert composite.degree == f.degree * g.degree
        assert gcd_univariate(composite.num, composite.den).degree == 0
        # agree matches the materialized == and the pointwise oracle
        swapped = g.compose(f)
        assert agree([f, g], [g, f]) == (composite == swapped) == _pointwise_agree(
            [f, g], [g, f])
        assert agree([f, g], [composite]) and _pointwise_agree([f, g], [composite])


def test_composition_runs_no_gcd(monkeypatch):
    f = parse_map("(z^2 - 4)/(z - 1)")
    g = parse_map("(zeta3*z^2 + 2)/(z + 1)")
    inversion = parse_map("1/z")
    m = random_mobius(4)
    expected = f.compose(g)

    def no_gcd(*args):
        raise AssertionError("gcd_univariate was called")

    monkeypatch.setattr(commdyn.ratmap, "gcd_univariate", no_gcd)
    assert f.compose(g) == expected
    assert RationalMap.from_function(expected) == expected
    assert f.iterate(3).degree == 8
    assert not f.commutes(g)
    assert f.conjugate(m).degree == 2
    assert f.substitute(inversion).degree == 2
    assert -(-f) == f
    assert (f ** -2) ** -1 == f ** 2


def test_agree_unequal_degree_products(monkeypatch):
    square, cube = parse_map("z^2"), parse_map("z^3")

    def no_compose(*args):
        raise AssertionError("a chain was composed")

    monkeypatch.setattr(RationalMap, "compose", no_compose)
    assert not agree([square], [square, square])
    assert not agree([square, cube], [parse_map("z^5")])


def _composed(chain):
    out = chain[-1]
    for m in reversed(chain[:-1]):
        out = m.compose(out)
    return out


@pytest.mark.parametrize("cap", [256, 0])
def test_agree_branches(cap):
    """agree against both branches it used to choose between: up to degree
    cap the composed chains compared with ==, above it the pointwise oracle."""
    square, shift, inversion = parse_map("z^2"), parse_map("z + 1"), parse_map("1/z")
    cases = [
        ([square, shift], [shift, square], False),
        # 0 and infinity are swapped by the inversion, so sample points hit poles
        ([square, inversion], [inversion, square], True),
        ([chebyshev(2), chebyshev(3)], [chebyshev(6)], True),
        ([square] * 3, [parse_map("z^8")], True),
        ([square] * 3, [parse_map("z^8 + 1")], False),
    ]
    for lhs, rhs, expected in cases:
        assert agree(lhs, rhs) == expected
        if prod(m.degree for m in lhs) <= cap:
            assert (_composed(lhs) == _composed(rhs)) == expected
        else:
            assert _pointwise_agree(lhs, rhs) == expected


def test_multiplier_identity_twisted_power_map():
    twisted = power_map(13, unity_order=12, unity_exponent=5)
    assert verify_multiplier_identity(power_map(13), twisted, 1, 1)
    with pytest.raises(PreconditionError):
        verify_multiplier_identity(parse_map("z^2"), parse_map("z + 1"), 1, 1)
