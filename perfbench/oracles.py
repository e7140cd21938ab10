"""Expected answers derived from how the inputs are built.

Nothing here calls commdyn: every value comes from integer and Fraction
arithmetic on the construction (roots of unity as exponents, Chebyshev
maps as angle doubling, Lattès maps as multiplication on a torus), so a
wrong answer from the measured code cannot agree with it by sharing a
defect.
"""

from __future__ import annotations

from collections import deque
from fractions import Fraction
from math import gcd


def mobius_mu(n: int) -> int:
    result, p = 1, 2
    while p * p <= n:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            result = -result
        p += 1
    return -result if n > 1 else result


def period_point_count(d: int, n: int) -> int:
    """Fixed points of the n-th iterate of a degree-d map, with multiplicity."""
    return d ** n + 1


def exact_period_count(d: int, n: int) -> int:
    """Points of exact period n, by Möbius inversion of d^m + 1 over m | n."""
    return sum(mobius_mu(n // m) * (d ** m + 1) for m in range(1, n + 1) if n % m == 0)


# -- Fraction-list polynomials, coefficients low to high -----------------------


def _trim(a: list) -> list:
    while a and a[-1] == 0:
        a.pop()
    return a


def _add(a: list, b: list, sign: int = 1) -> list:
    width = max(len(a), len(b))
    return _trim([(a[i] if i < len(a) else 0) + sign * (b[i] if i < len(b) else 0)
                  for i in range(width)])


def _mul(a: list, b: list) -> list:
    out = [Fraction(0)] * max(0, len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return _trim(out)


def _rem(a: list, b: list) -> list:
    a = [Fraction(x) for x in a]
    while len(a) >= len(b):
        q = a[-1] / b[-1]
        shift = len(a) - len(b)
        for i, y in enumerate(b):
            a[shift + i] -= q * y
        _trim(a)
    return a


def _derivative(a: list) -> list:
    return _trim([i * c for i, c in enumerate(a)][1:])


def _gcd_degree(a: list, b: list) -> int:
    a, b = _trim(list(a)), _trim(list(b))
    while b:
        a, b = b, _rem(a, b)
    return len(a) - 1


def parabolic_collisions(num: list, den: list, p: int) -> int:
    """Period-p points merged into fixed points, for a prime p.

    A fixed point whose multiplier is a primitive p-th root of unity
    absorbs a cycle of exact period p, so an exact-period polynomial that
    divides out every fixed point loses those p points.  The fixed points
    z den = num with D^(p-1) Phi_p(N/D) = 0, where f' = N/D, are counted
    by a gcd over the rationals.
    """
    fixed = _add([0] + list(den), num, -1)
    deriv_num = _add(_mul(_derivative(num), den), _mul(num, _derivative(den)), -1)
    deriv_den = _mul(den, den)
    cyclo: list = []
    for i in range(p):
        term = [Fraction(1)]
        for _ in range(i):
            term = _mul(term, deriv_num)
        for _ in range(p - 1 - i):
            term = _mul(term, deriv_den)
        cyclo = _add(cyclo, term)
    return p * max(0, _gcd_degree(fixed, cyclo))


def poly_from_roots(roots: dict[int, int]) -> list[Fraction]:
    """Coefficients, low to high, of the product of (w - r)^mult."""
    coeffs = [Fraction(1)]
    for root, mult in roots.items():
        for _ in range(mult):
            shifted = [Fraction(0)] + coeffs
            for i, c in enumerate(coeffs):
                shifted[i] -= root * c
            coeffs = shifted
    return coeffs


def power_spectrum(d: int, n: int) -> list[Fraction]:
    """Multipliers of the period-n points of z^d: 0 twice (0 and infinity),
    d^n at each of the d^n - 1 roots of unity."""
    return poly_from_roots({0: 2, d ** n: d ** n - 1})


def _angle_class(t: Fraction) -> Fraction:
    t = t % 1
    return min(t, (-t) % 1)


def chebyshev_fixed_angles(d: int) -> set[Fraction]:
    """Angles t (in turns, up to sign) of the affine fixed points 2cos(2 pi t)
    of T_d: d t = t or d t = -t modulo 1."""
    out = set()
    for m in (d - 1, d + 1):
        out.update(_angle_class(Fraction(j, m)) for j in range(m))
    return out


def chebyshev_common_fixed_count(d: int, e: int) -> int:
    """Common fixed points of T_d and T_e, infinity included."""
    return len(chebyshev_fixed_angles(d) & chebyshev_fixed_angles(e)) + 1


def chebyshev_spectrum(d: int, n: int) -> list[Fraction]:
    """Multipliers of the period-n points of T_d.

    With D = d^n, the point 2cos(2 pi t) is fixed by T_D when D t = +-t;
    its multiplier is D sin(2 pi D t) / sin(2 pi t), which is +D or -D in
    the interior and D^2 at the endpoints 2 and (for odd D) -2.  Infinity
    is superattracting.
    """
    big = d ** n
    plus = len([j for j in range(1, big - 1) if 2 * j < big - 1])
    minus = len([j for j in range(1, big + 1) if 2 * j < big + 1])
    endpoints = 1 + (big % 2)
    return poly_from_roots({0: 1, big * big: endpoints, big: plus, -big: minus})


def lattes_spectrum(n: int) -> list[Fraction]:
    """Multipliers of the period-n points of the m = 2 flexible Lattès map.

    On the torus the n-th iterate is P -> 2^n P.  Points with 2^n P = P
    have multiplier +2^n, points with 2^n P = -P have -2^n; the two sets
    meet only at the origin, which is infinity, with multiplier 4^n.
    """
    big = 2 ** n
    return poly_from_roots({4 ** n: 1,
                            big: ((big - 1) ** 2 - 1) // 2,
                            -big: ((big + 1) ** 2 - 1) // 2})


def holomorphic_index_holds(coeffs: list[Fraction]) -> bool | None:
    """Holomorphic fixed point formula on a multiplier polynomial P.

    The fixed points of a rational map with multipliers l_i != 1 satisfy
    sum 1/(1 - l_i) = 1, i.e. P'(1) = P(1).  Returns None when some
    multiplier equals 1 and the formula does not apply.
    """
    value = sum(coeffs, Fraction(0))
    slope = sum((i * c for i, c in enumerate(coeffs)), Fraction(0))
    if value == 0:
        return None
    return slope == value


def root_of_unity_orbit(level: int, start: int, steps: list[tuple[int, int]]):
    """Orbit of zeta_L^start under maps e -> a*e + b (mod L), in visit order.

    Mirrors breadth-first exploration with the generators in the given
    order.  Returns (exponents, rows) where rows[g][i] is the position of
    the image of point i under generator g.
    """
    seen = {start % level: 0}
    order = [start % level]
    queue = deque(order)
    while queue:
        e = queue.popleft()
        for a, b in steps:
            image = (a * e + b) % level
            if image not in seen:
                seen[image] = len(order)
                order.append(image)
                queue.append(image)
    rows = [tuple(seen[(a * e + b) % level] for e in order) for a, b in steps]
    return order, rows


def units_mod(k: int) -> list[int]:
    return [j for j in range(1, k) if gcd(j, k) == 1]
