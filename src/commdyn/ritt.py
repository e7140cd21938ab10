"""Decomposition sequences for commuting pairs and common-iterate search.

For a commuting pair (f, g), the parametrized curve z -> (f(z), g(z)) has
a generic fiber cut out by a bivariate gcd H(z, y).  A single rational
function u generating the pulled-back subfield is read off from the
coefficients of H, giving factorizations f = a o u and g = b o u.
Swapping the factors and repeating drives deg a down to one; the terminal
linear-fractional quotient a o b^(-1) has finite order p, and the common
iterate f^p = g^p is then verified exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, islice

from .budget import current
from .errors import (
    NoDegreeMatch,
    NoFactorError,
    OrderNotFound,
    PreconditionError,
    RittBudgetExhausted,
    VerificationMismatch,
)
from .polynomial import BiPolynomial, Polynomial, gcd_bivariate, nullspace
from .ratmap import (
    INF,
    Mobius,
    RationalFunction,
    RationalMap,
    agree,
    mobius_three_points,
    point_sort_key,
    sample_points,
)


def _pair_polynomial(f: RationalMap) -> BiPolynomial:
    """num(y)*den(z) - num(z)*den(y): vanishes exactly when f(y) = f(z)."""
    ny = BiPolynomial.from_poly_in_var2(f.num, "z", "y")
    dz = BiPolynomial.from_poly_in_var1(f.den, "z", "y")
    nz = BiPolynomial.from_poly_in_var1(f.num, "z", "y")
    dy = BiPolynomial.from_poly_in_var2(f.den, "z", "y")
    return ny * dz - nz * dy


def fiber_gcd(f: RationalMap, g: RationalMap, *,
              check: bool = True) -> BiPolynomial:
    """Defining polynomial H(z, y) of the joint generic fiber of (f, g).

    For generic z, the y-roots of H are exactly the points with
    f(y) = f(z) and g(y) = g(z).  Scaled so the top y-coefficient is a
    monic polynomial in z.  check=False skips the commutation test for
    callers that already know it holds; composing large-coefficient maps
    just to re-verify it dominates the cost otherwise.
    """
    if check and not f.commutes(g):
        raise PreconditionError("the two maps do not commute")
    h = gcd_bivariate(_pair_polynomial(f), _pair_polynomial(g))
    top = h.var2_coeffs()[-1]
    return h * top.leading().inverse()


def _anchor_points(count: int):
    """0, 1, infinity, then the sample stream from -1 on: count points."""
    ints = sample_points()
    return chain(islice(ints, 2), [INF], islice(ints, count - 3))


def _normalize_generator(u: RationalMap) -> RationalMap:
    """Canonical representative of the orbit of u under postcomposition.

    Postcomposes with the linear-fractional map sending the values of u
    at the first three anchor points with pairwise distinct values to
    0, 1, infinity.  The anchor stream starts 0, 1, infinity, so in the
    generic case u(0) = 0, u(1) = 1, u(inf) = inf afterwards.  A value
    is attained at most deg u times, so three distinct values always
    appear within 2*deg(u) + 1 anchors.
    """
    values = []
    for pt in _anchor_points(2 * u.degree + 3):
        val = u(pt)
        if all(point_sort_key(val) != point_sort_key(v) for v in values):
            values.append(val)
            if len(values) == 3:
                break
    mu = mobius_three_points(values[0], values[1], values[2])
    return mu.to_map().compose(u)


def left_factor(f: RationalMap, u: RationalMap) -> RationalMap:
    """The outer factor a with f = a o u, by exact linear solve.

    Writing a = P/Q with unknown coefficients, a(u) = f clears to a
    polynomial identity that is linear in the coefficients of P and Q;
    any nonzero kernel vector of that system represents the same
    function, so the first one that verifies is returned.
    """
    if f.degree % u.degree:
        raise NoFactorError("inner degree does not divide the map degree")
    k = f.degree // u.degree
    s, t = u.num, u.den
    spow = [Polynomial.one()]
    tpow = [Polynomial.one()]
    for _ in range(k):
        spow.append(spow[-1] * s)
        tpow.append(tpow[-1] * t)
    basis = [spow[i] * tpow[k - i] for i in range(k + 1)]
    cols = [-(f.den * basis[i]) for i in range(k + 1)]
    cols.extend(f.num * basis[j] for j in range(k + 1))
    nrows = max(c.degree for c in cols) + 1
    matrix = [[c.coeff(row) for c in cols] for row in range(nrows)]
    for vec in nullspace(matrix):
        pnum = Polynomial(vec[:k + 1])
        pden = Polynomial(vec[k + 1:])
        if pnum.is_zero() or pden.is_zero():
            continue
        candidate = RationalFunction(pnum, pden)
        if candidate.is_constant():
            continue
        a = RationalMap.from_function(candidate)
        if agree([a, u], [f]):
            return a
    raise NoFactorError("the map does not factor through the given inner map")


def luroth_generator(f: RationalMap, g: RationalMap, *,
                     check: bool = True) -> tuple[RationalMap, RationalMap, RationalMap]:
    """(u, a, b) with f = a o u, g = b o u and u of minimal degree.

    u is recovered as a coefficient ratio of the fiber polynomial H:
    every nonconstant ratio generates the same subfield, and the minimal
    degree equals deg_y H.  The returned u is canonically normalized.
    """
    h = fiber_gcd(f, g, check=check)
    r = h.degrees[1]
    coeffs = h.var2_coeffs()
    top = coeffs[-1]
    best = None
    for j in range(len(coeffs) - 2, -1, -1):
        ratio = RationalFunction(coeffs[j], top)
        if ratio.is_constant():
            continue
        if best is None or ratio.degree < best.degree:
            best = ratio
    if best is None:
        raise VerificationMismatch(
            "fiber polynomial has no nonconstant coefficient ratio")
    u = _normalize_generator(RationalMap.from_function(best))
    if u.degree != r:
        raise VerificationMismatch(
            "generator degree disagrees with the fiber degree")
    a = left_factor(f, u)
    b = left_factor(g, u)
    return u, a, b


@dataclass(frozen=True)
class RittStep:
    """One decomposition step: f_step = a o u, g_step = b o u, r = deg a."""

    a: RationalMap
    b: RationalMap
    u: RationalMap
    f_step: RationalMap
    g_step: RationalMap
    r: int


@dataclass(frozen=True)
class RittSequence:
    steps: tuple[RittStep, ...]
    terminated: bool
    consumed_budget: int


def ritt_sequence(f: RationalMap, g: RationalMap, max_steps: int | None = None,
                  min_steps: int = 0) -> RittSequence:
    """Iterated shared-inner-factor decomposition of a commuting pair.

    Runs until the outer factors become linear-fractional (r = 1) or the
    step budget runs out: max_steps, or the run's ritt_steps when it is
    None.  Both step invariants are verified eagerly and
    any failure raises, since it would signal an implementation bug.
    The recurrence stays well defined after the outer degree reaches one,
    so min_steps > 0 keeps extending the sequence past termination, which
    is how the stabilized tail is exposed for growth checks.
    """
    if f.degree != g.degree or f.degree < 2:
        raise PreconditionError("equal degrees of at least two are required")
    max_steps = current().ritt_steps if max_steps is None else max_steps
    if max_steps < 1 or min_steps < 0:
        raise PreconditionError(
            "max_steps must be at least one and min_steps nonnegative")
    cur_f, cur_g = f, g
    steps: list[RittStep] = []
    terminated = False
    while len(steps) < max_steps:
        # commutation of the next pair follows from the verified step
        # identities, so only the input pair is tested directly
        u, a, b = luroth_generator(cur_f, cur_g, check=not steps)
        # interleaving identity a o u o b = b o u o a, written via the pair;
        # agree also rejects outer factors of different degrees
        if not agree([cur_f, b], [cur_g, a]):
            raise VerificationMismatch("interleaving identity failed")
        if steps:
            prev = steps[-1]
            if a.degree > prev.r:
                raise VerificationMismatch("outer factor degree increased")
            if not agree([prev.a, b], [prev.b, a]):
                raise VerificationMismatch("consecutive-step identity failed")
        step = RittStep(a=a, b=b, u=u, f_step=cur_f, g_step=cur_g, r=a.degree)
        steps.append(step)
        if step.r == 1:
            terminated = True
            if len(steps) >= min_steps:
                break
        cur_f, cur_g = u.compose(a), u.compose(b)
    return RittSequence(tuple(steps), terminated, len(steps))


def common_iterate_equal_degree(f: RationalMap, g: RationalMap,
                                max_order: int = 120) -> int:
    """Smallest verified p with f^p = g^p, for commuting equal-degree maps.

    The decomposition sequence ends with linear-fractional outer factors;
    their quotient has finite order p, and the identity is re-verified by
    ratmap.agree, which checks the run's degree cap, before p is returned.
    """
    return _common_iterate_of_sequence(f, g, ritt_sequence(f, g), max_order)


def _common_iterate_of_sequence(f: RationalMap, g: RationalMap,
                                seq: RittSequence, max_order: int = 120) -> int:
    """common_iterate_equal_degree for a sequence already computed from (f, g)."""
    if not seq.terminated:
        raise RittBudgetExhausted(
            "decomposition did not reach linear outer factors; "
            "the pair may be exceptional")
    last = seq.steps[-1]
    sigma = Mobius.from_map(last.a).compose(Mobius.from_map(last.b).inverse())
    p = sigma.order(max_order)
    if p is None:
        raise OrderNotFound("terminal quotient has no order up to the cap")
    if not agree([f] * p, [g] * p):
        raise VerificationMismatch("candidate exponent failed the recheck")
    return p


def _prime_exponents(n: int) -> dict[int, int]:
    out: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def common_iterate_general(f: RationalMap, g: RationalMap) -> tuple[int, int]:
    """(m, n) with g^m = f^n exactly, allowing unequal degrees.

    Degrees admit a common power only when their prime exponent vectors
    are proportional; the smallest matching iterate pair is handed to the
    equal-degree routine and the resulting exponent scales both sides.
    An iterate pair above the run's degree cap raises BudgetError.
    """
    if f.degree < 2 or g.degree < 2:
        raise PreconditionError("degrees of at least two are required")
    ef = _prime_exponents(f.degree)
    eg = _prime_exponents(g.degree)
    if set(ef) != set(eg):
        raise NoDegreeMatch("degrees have different prime support")
    ratio = None
    for prime, e in ef.items():
        r = Fraction(eg[prime], e)
        if ratio is None:
            ratio = r
        elif r != ratio:
            raise NoDegreeMatch("degree exponent vectors are not proportional")
    n, m = ratio.numerator, ratio.denominator
    p = common_iterate_equal_degree(f.iterate(n), g.iterate(m))
    return m * p, n * p
