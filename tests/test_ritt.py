"""Decomposition-sequence machinery on worked commuting pairs.

The degree-4 pair built from u = (z^2-4)/(z-1), v = (z^2+2)/(z+1) and the
rotation by a cube root of unity is the main nontrivial fixture: the two
maps commute, share the third iterate, and exercise every stage.
"""

import pytest

from commdyn.errors import (
    NoDegreeMatch,
    NoFactorError,
    PreconditionError,
)
from commdyn.exactfield import rational
from commdyn.exceptional import chebyshev
from commdyn.parsing import parse_map
from commdyn.polynomial import BiPolynomial, Polynomial
from commdyn.ritt import (
    common_iterate_equal_degree,
    common_iterate_general,
    fiber_gcd,
    left_factor,
    luroth_generator,
    ritt_sequence,
)
from commdyn.ratmap import RationalMap

E2_U = parse_map("(z^2 - 4)/(z - 1)")
E2_V = parse_map("(z^2 + 2)/(z + 1)")
E2_SIGMA = parse_map("zeta3 * z")
E2_F = E2_U.compose(E2_V)
E2_G = E2_V.compose(E2_U)
E2_H = E2_V.compose(E2_SIGMA).compose(E2_U)


# ---------------------------------------------------------------- fiber gcd

def test_fiber_gcd_equal_pair():
    f = parse_map("z^2")
    square = Polynomial.from_ints([0, 0, 1])
    expected = (BiPolynomial.from_poly_in_var2(square, "z", "y")
                - BiPolynomial.from_poly_in_var1(square, "z", "y"))
    assert fiber_gcd(f, f) == expected  # y^2 - z^2


def test_fiber_gcd_generically_injective_pair():
    h = fiber_gcd(chebyshev(2), chebyshev(3))
    assert h.degrees[1] == 1
    # independent check: z -> (T2(z), T3(z)) separates sample points
    samples = [rational(k) for k in (2, 3, 5, 7)]
    images = [(chebyshev(2)(z), chebyshev(3)(z)) for z in samples]
    assert len(set(str(im) for im in images)) == len(samples)


def test_fiber_gcd_example_pair():
    assert fiber_gcd(E2_G, E2_H).degrees[1] == 2


def test_fiber_gcd_requires_commuting():
    with pytest.raises(PreconditionError):
        fiber_gcd(parse_map("z^2"), parse_map("z^2 + 1"))


# ------------------------------------------------------------------- luroth

def test_luroth_equal_squares():
    u, a, b = luroth_generator(parse_map("z^2"), parse_map("z^2"))
    assert u == parse_map("z^2")
    assert a == RationalMap.identity()
    assert b == RationalMap.identity()


def test_luroth_chebyshev_pair():
    u, a, b = luroth_generator(chebyshev(2), chebyshev(3))
    assert u.degree == 1
    assert a.compose(u) == chebyshev(2)
    assert b.compose(u) == chebyshev(3)


def test_luroth_example_pair():
    u, a, b = luroth_generator(E2_G, E2_H)
    assert u.degree == 2
    assert a.compose(u) == E2_G
    assert b.compose(u) == E2_H


# -------------------------------------------------------------- left factor

def test_left_factor_monomials():
    assert left_factor(parse_map("z^4"), parse_map("z^2")) == parse_map("z^2")


def test_left_factor_recovers_outer_composition_factor():
    assert left_factor(E2_F, E2_V) == E2_U


def test_left_factor_failures():
    with pytest.raises(NoFactorError):
        left_factor(parse_map("z^3"), parse_map("z^2"))
    with pytest.raises(NoFactorError):
        left_factor(parse_map("z^4 + z"), parse_map("z^2"))


# ---------------------------------------------------------------- sequences

def test_sequence_equal_pair_terminates_immediately():
    seq = ritt_sequence(E2_F, E2_F)
    assert seq.terminated
    assert len(seq.steps) == 1
    step = seq.steps[0]
    assert step.r == 1
    assert step.a == step.b
    assert step.u.degree == 4


def test_sequence_example_pair_shape():
    seq = ritt_sequence(E2_G, E2_H)
    assert seq.terminated
    assert [step.r for step in seq.steps] == [2, 1]
    # eager invariant checks already ran; spot-check the first step again
    first = seq.steps[0]
    assert first.f_step.compose(first.b) == first.g_step.compose(first.a)


def test_sequence_preconditions():
    with pytest.raises(PreconditionError):
        ritt_sequence(chebyshev(2), chebyshev(3))  # unequal degrees
    with pytest.raises(PreconditionError):
        ritt_sequence(parse_map("z^2"), parse_map("z^2 + 1"))  # non-commuting
    with pytest.raises(PreconditionError):
        ritt_sequence(parse_map("z^2"), parse_map("z^2"), min_steps=-1)
    with pytest.raises(PreconditionError):
        ritt_sequence(parse_map("z^2"), parse_map("z^2"), max_steps=0)


# ----------------------------------------------------------- common iterate

def test_common_iterate_example_pair():
    assert common_iterate_equal_degree(E2_G, E2_H) == 3
    assert E2_G.iterate(3) == E2_H.iterate(3)
    assert E2_G.iterate(2) != E2_H.iterate(2)


def test_common_iterate_rotated_odd_cubic():
    f0 = parse_map("z^3 + z")
    rotated = parse_map("-z").compose(f0)
    assert common_iterate_equal_degree(rotated, f0) == 2
    assert rotated.iterate(2) == f0.iterate(2)


def test_common_iterate_equal_pair():
    assert common_iterate_equal_degree(E2_F, E2_F) == 1


def test_general_search_degree_arithmetic():
    assert common_iterate_general(parse_map("z^4"), parse_map("z^2")) == (2, 1)
    assert common_iterate_general(E2_F, E2_F) == (1, 1)


def test_general_search_failures():
    with pytest.raises(NoDegreeMatch):
        common_iterate_general(parse_map("z^2"), parse_map("z^3"))
    with pytest.raises(NoDegreeMatch):
        common_iterate_general(parse_map("z^2"), parse_map("z^8"), budget=4)
