"""Field arithmetic checks, with sympy as an independent oracle where it helps."""

import cmath
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from commdyn.errors import ConductorCapError, PreconditionError
from commdyn.exactfield import (
    CONDUCTOR_CAP,
    FieldElement,
    _cyclo_coeffs,
    euler_phi,
    rational,
    zeta,
)
from commdyn.polynomial import Polynomial


def cyclotomic_polynomial(k: int) -> Polynomial:
    """The k-th cyclotomic polynomial as a Polynomial over the rationals."""
    return Polynomial.from_ints(_cyclo_coeffs(k))


def test_cyclotomic_small_cases():
    # frozen expected coefficient lists, low degree first
    assert [c.as_fraction() for c in cyclotomic_polynomial(1).coeffs] == [-1, 1]
    assert [c.as_fraction() for c in cyclotomic_polynomial(3).coeffs] == [1, 1, 1]
    assert [c.as_fraction() for c in cyclotomic_polynomial(4).coeffs] == [1, 0, 1]


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 6, 8, 9, 12, 15, 16, 24, 30, 64])
def test_cyclotomic_matches_sympy(k):
    import sympy

    x = sympy.Symbol("x")
    expected = sympy.Poly(sympy.cyclotomic_poly(k, x), x).all_coeffs()[::-1]
    ours = [c.as_fraction() for c in cyclotomic_polynomial(k).coeffs]
    assert ours == [Fraction(int(c)) for c in expected]


def test_primitive_root_relations():
    z3 = zeta(3)
    assert z3 + z3**2 == -1
    assert z3**3 == 1
    assert zeta(4) ** 2 == -1
    assert zeta(2) == -1
    assert zeta(1) == 1


def test_conductor_reduction():
    z3 = zeta(3)
    assert (z3 * z3 * z3).conductor == 1
    assert zeta(6).conductor == 3      # Q(zeta6) = Q(zeta3)
    assert zeta(6) == 1 + zeta(3)
    assert (zeta(8) ** 2).conductor == 4
    assert (zeta(12) ** 4).conductor == 3


def test_mixed_conductor_arithmetic():
    a = zeta(3) + zeta(4)
    assert a.conductor == 12
    assert a - zeta(4) == zeta(3)
    product = zeta(3) * zeta(4)
    assert product ** 12 == 1
    assert product ** 6 == -1


def test_conductor_cap():
    with pytest.raises(ConductorCapError):
        zeta(CONDUCTOR_CAP + 1)
    with pytest.raises(ConductorCapError):
        zeta(63) * zeta(4)  # lcm 252


def test_division_and_inverse():
    z = zeta(5)
    for e in [z, z + 1, z**3 - 2, rational(7, 3)]:
        assert e * e.inverse() == 1
        assert (e / e) == 1
    with pytest.raises(ZeroDivisionError):
        rational(0).inverse()


def test_embedding_against_cmath():
    for k in [3, 4, 5, 7, 12]:
        z = zeta(k)
        expected = cmath.exp(2j * cmath.pi / k)
        assert abs(z.embed_complex() - expected) < 1e-12
        # an expression, embedded, matches the assembled complex value
        e = z**2 + 3 * z - rational(1, 2)
        assert abs(e.embed_complex() - (expected**2 + 3 * expected - 0.5)) < 1e-12


def test_embedding_index_must_be_coprime():
    with pytest.raises(PreconditionError):
        zeta(4).embed_complex(embedding_index=2)
    # index 3 is fine for conductor 4
    assert abs(zeta(4).embed_complex(3) - (-1j)) < 1e-12


def test_rational_canonicalization():
    assert rational(2, 4) == rational(1, 2)
    assert rational(-3, -6) == rational(1, 2)
    assert str(rational(5, 6)) == "5/6"


def test_euler_phi():
    assert [euler_phi(k) for k in [1, 2, 3, 4, 6, 8, 12, 64]] == [1, 1, 2, 2, 2, 4, 4, 32]


small_rationals = st.fractions(
    min_value=-4, max_value=4, max_denominator=6)


def elements(conductor):
    n = euler_phi(conductor)
    return st.lists(small_rationals, min_size=n, max_size=n).map(
        lambda v: FieldElement(conductor, v))


@pytest.mark.parametrize("k", [3, 12, 21])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_field_axioms(k, data):
    a, b, c = (data.draw(elements(k)) for _ in range(3))
    assert (a + b) * c == a * c + b * c
    assert a * b == b * a
    assert (a - b) + b == a
    if not b.is_zero():
        assert (a / b) * b == a


@settings(max_examples=40, deadline=None)
@given(a=elements(8))
def test_embedding_is_a_homomorphism(a):
    b = zeta(8) - 2
    lhs = (a * b).embed_complex()
    rhs = a.embed_complex() * b.embed_complex()
    assert abs(lhs - rhs) < 1e-9


@pytest.mark.parametrize("k", [3, 9, 12, 21])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_hash_consistent_with_equality(k, data):
    a = data.draw(elements(k))
    twin = FieldElement(k, [Fraction(c) for c in a.residue]) if a.conductor == k else a + 0
    assert twin == a
    assert hash(twin) == hash(a)


@pytest.mark.parametrize("k", [3, 12, 21, 42])
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_inverse_times_element_is_one(k, data):
    a = data.draw(elements(k))
    if not a.is_zero():
        assert a * a.inverse() == 1
        assert a.inverse().conductor == a.conductor


@pytest.mark.parametrize("d, k", [(3, 12), (4, 12), (5, 15), (3, 21), (7, 21),
                                  (8, 24), (12, 24), (5, 40)])
def test_minimal_conductor_matches_sympy(d, k):
    # a seeded element of Q(zeta_d), written in the zeta_k basis by sympy
    import sympy

    x = sympy.Symbol("x")
    rng = random.Random(100 * d + k)
    coeffs = [Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(1, 4))
              for _ in range(euler_phi(d))]
    phi_k = sympy.cyclotomic_poly(k, x)
    lifted = sum(sympy.Rational(c.numerator, c.denominator)
                 * sympy.rem(x ** (j * k // d), phi_k, x)
                 for j, c in enumerate(coeffs))
    residue = [Fraction(str(c)) for c in sympy.Poly(lifted, x).all_coeffs()[::-1]]
    element = FieldElement(k, residue)
    assert element.conductor == d
    assert element == FieldElement(d, coeffs)
