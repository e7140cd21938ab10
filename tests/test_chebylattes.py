"""Exceptional family constructors against independent oracles.

The elliptic checks use a separate affine group-law implementation over
Fraction, so the division-polynomial route is validated end to end.
"""

from fractions import Fraction

import pytest

from commdyn.errors import PreconditionError
from commdyn.exactfield import rational, zeta
from commdyn.exceptional import (
    chebyshev,
    is_power_conjugate,
    lattes_flexible,
    power_map,
    verify_chebyshev_semiconjugacy,
)
from commdyn.parsing import parse_map
from commdyn.polynomial import Polynomial
from commdyn.ratmap import INF, Mobius, RationalMap, is_inf


# ---------------------------------------------------------------- chebyshev

def test_chebyshev_small_degrees():
    assert chebyshev(1) == parse_map("z")
    assert chebyshev(2) == parse_map("z^2 - 2")
    assert chebyshev(3) == parse_map("z^3 - 3*z")
    assert chebyshev(4) == parse_map("z^4 - 4*z^2 + 2")
    assert chebyshev(3, sign=-1) == parse_map("3*z - z^3")


def _chebyshev_recurrence(d, sign):
    """t_{d+1} = z*t_d - t_{d-1} from t0 = 2, t1 = z: the oracle of the closed form."""
    prev, cur = Polynomial.from_ints([2]), Polynomial.variable()
    for _ in range(d - 1):
        prev, cur = cur, Polynomial.variable() * cur - prev
    return RationalMap.polynomial_map(-cur if sign == -1 else cur)


@pytest.mark.parametrize("sign", [1, -1])
def test_chebyshev_matches_recurrence(sign):
    for d in list(range(1, 30)) + [64]:
        want = _chebyshev_recurrence(d, sign)
        got = chebyshev(d, sign)
        assert got == want and str(got) == str(want), d


def test_chebyshev_rejects_bad_arguments():
    with pytest.raises(PreconditionError):
        chebyshev(0)
    with pytest.raises(PreconditionError):
        chebyshev(3, sign=2)


@pytest.mark.parametrize("d", range(1, 9))
def test_chebyshev_semiconjugacy(d):
    assert verify_chebyshev_semiconjugacy(d)


@pytest.mark.parametrize("d,e", [(2, 3), (3, 4), (2, 5), (4, 5)])
def test_chebyshev_composition_law(d, e):
    assert chebyshev(d).compose(chebyshev(e)) == chebyshev(d * e)


def test_chebyshev_sign_commutation():
    # odd degrees absorb the sign, even degrees do not
    assert chebyshev(5).commutes(chebyshev(3, sign=-1))
    assert not chebyshev(2).commutes(chebyshev(3, sign=-1))


# ---------------------------------------------------------------- power maps

def test_power_map_forms():
    assert power_map(3) == parse_map("z^3")
    assert power_map(2, inverse=True) == parse_map("1/z^2")
    twisted = power_map(2, unity_order=3)
    assert twisted == parse_map("zeta3 * z^2")
    assert twisted(rational(1)) == zeta(3)


def test_power_map_unity_arithmetic():
    f = power_map(4, unity_order=5)
    rot = RationalMap.polynomial_map(Polynomial.variable().scale(zeta(5)))
    # zeta5 * (zeta5 z)^4 has scale zeta5^5 = 1
    assert f.compose(rot) == power_map(4)


def test_power_map_commutes_with_compatible_rotation():
    # z^4 commutes with z -> zeta3 z because 4 = 1 mod 3
    f = power_map(4)
    rot = RationalMap.polynomial_map(Polynomial.variable().scale(zeta(3)))
    assert f.commutes(rot)
    assert not power_map(4, unity_order=5).commutes(
        RationalMap.polynomial_map(Polynomial.variable().scale(zeta(5))))


# ---------------------------------------------------------- power recognizer

def test_recognizer_plain_monomial():
    tag = is_power_conjugate(parse_map("z^3"))
    assert tag is not None
    assert tag.kind == "power"
    assert tag.exponent == 3 and not tag.inverted
    assert tag.scalar == rational(1)
    assert tag.witness.is_identity()


def test_recognizer_inverted_twisted_monomial():
    tag = is_power_conjugate(power_map(3, inverse=True, unity_order=4))
    assert tag is not None
    assert tag.inverted and tag.exponent == 3
    assert tag.scalar == zeta(4)
    assert tag.witness.is_identity()


def test_recognizer_newton_map():
    tag = is_power_conjugate(parse_map("(z^2 + 1)/(2*z)"))
    assert tag is not None
    assert tag.exponent == 2 and not tag.inverted
    # the two fully ramified fixed points sit at +-1
    normal = parse_map("(z^2 + 1)/(2*z)").conjugate(tag.witness.inverse())
    assert normal == tag.normal_form


def test_recognizer_conjugated_monomial_recovers_scale():
    base = parse_map("2*z^3")
    shift = Mobius(rational(1), rational(1), rational(0), rational(1))
    f = base.conjugate(shift)
    tag = is_power_conjugate(f)
    assert tag is not None
    assert tag.exponent == 3 and not tag.inverted
    assert tag.scalar == rational(8)
    assert f.conjugate(tag.witness.inverse()) == tag.normal_form


def test_recognizer_rejects_non_power_maps():
    assert is_power_conjugate(chebyshev(3)) is None
    assert is_power_conjugate(parse_map("z*(z^3 - 8)/(z^3 + 1)")) is None
    assert is_power_conjugate(lattes_flexible(2, -1, 4)) is None


# ------------------------------------------------------------------- lattes

def _ec_add(p, q, a):
    """Affine chord-tangent addition on y^2 = x^3 + a x + b; None is the
    point at infinity.  b never enters the formulas."""
    if p is None:
        return q
    if q is None:
        return p
    (x1, y1), (x2, y2) = p, q
    if x1 == x2 and y1 == -y2:
        return None
    if p == q:
        lam = (3 * x1 * x1 + a) / (2 * y1)
    else:
        lam = (y2 - y1) / (x2 - x1)
    x3 = lam * lam - x1 - x2
    return (x3, lam * (x1 - x3) - y1)


def _ec_mul(m, p, a):
    acc = None
    for _ in range(m):
        acc = _ec_add(acc, p, a)
    return acc


def test_lattes_duplication_formula():
    a, b = rational(-1), rational(4)
    f = lattes_flexible(2, a, b)
    expected = parse_map("(z^4 + 2*z^2 - 32*z + 1)/(4*(z^3 - z + 4))")
    assert f == expected


@pytest.mark.parametrize("x0,y0,a", [
    (Fraction(1), Fraction(2), Fraction(-1)),
    (Fraction(2), Fraction(3), Fraction(1)),
    (Fraction(0), Fraction(1), Fraction(5)),
])
@pytest.mark.parametrize("m", [2, 3, 4, 5])
def test_lattes_matches_group_law(x0, y0, a, m):
    b = y0 * y0 - x0 ** 3 - a * x0
    f = lattes_flexible(m, rational(a), rational(b))
    assert f.degree == m * m
    value = f(rational(x0))
    mult = _ec_mul(m, (x0, y0), a)
    if mult is None:
        assert is_inf(value)
    else:
        assert value == rational(mult[0])


def test_lattes_two_torsion_goes_to_infinity():
    # (1, 0) is 2-torsion on y^2 = x^3 - x
    f = lattes_flexible(2, -1, 0)
    assert is_inf(f(rational(1)))


def test_lattes_multiplications_commute():
    a, b = rational(-1), rational(4)
    assert lattes_flexible(2, a, b).commutes(lattes_flexible(3, a, b))


@pytest.mark.parametrize("a,b", [
    (rational(0), rational(1)), (rational(-1), rational(0)), (rational(2), rational(-3)),
    (zeta(4), rational(1)), (zeta(3), zeta(3) + rational(1)),
])
def test_lattes_needs_no_lowest_terms_gcd(a, b):
    # phi_m and psi_m^2 are coprime on a nonsingular curve, so reducing
    # the built map by a gcd changes nothing
    for m in range(2, 6):
        f = lattes_flexible(m, a, b)
        assert f == RationalMap(f.num, f.den)


def test_lattes_rejects_singular_curve():
    with pytest.raises(PreconditionError):
        lattes_flexible(2, -3, 2)


def test_lattes_identity_multiplier():
    assert lattes_flexible(1, -1, 4) == RationalMap.identity()
