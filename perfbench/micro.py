"""Layer microbenchmarks matching the ROADMAP baseline table.

Inputs are fixed (they do not depend on the workload seed), so the
numbers compare across runs and commits.  Each entry is the minimum
over a few repeats of a timed loop, the same convention as the table.
"""

from __future__ import annotations

import random
import time
from fractions import Fraction


def _best(fn, number: int, repeat: int) -> float:
    """Minimum over repeats of the mean time of one call, in seconds."""
    best = float("inf")
    for _ in range(repeat):
        start = time.perf_counter()
        for _ in range(number):
            fn()
        best = min(best, (time.perf_counter() - start) / number)
    return best


def _element(k: int, rng: random.Random):
    from commdyn.exactfield import FieldElement, euler_phi

    return FieldElement(k, [Fraction(rng.randint(-20, 20), rng.randint(1, 12))
                            for _ in range(euler_phi(k))])


def _int_poly(cd, rng: random.Random, degree: int):
    coeffs = [rng.randint(-9, 9) for _ in range(degree)] + [rng.randint(1, 9)]
    return cd.Polynomial.from_ints(coeffs)


def _pair_polynomial(cd, f):
    """num(y) den(z) - num(z) den(y), the input of the first Ritt step's gcd."""
    bi = cd.BiPolynomial
    return (bi.from_poly_in_var2(f.num, "z", "y") * bi.from_poly_in_var1(f.den, "z", "y")
            - bi.from_poly_in_var1(f.num, "z", "y") * bi.from_poly_in_var2(f.den, "z", "y"))


def _graph_inputs(cd, a, b):
    """The two curves x = a(t) and w = b(t) that `graph` eliminates t from."""
    bi, poly = cd.BiPolynomial, cd.Polynomial
    x_factor = bi.from_poly_in_var1(poly.variable("x"), "x", "t")
    p = bi.from_poly_in_var2(a.num, "x", "t") - x_factor * bi.from_poly_in_var2(a.den, "x", "t")
    w_factor = bi.from_poly_in_var2(poly.variable("w"), "t", "w")
    q = bi.from_poly_in_var1(b.num, "t", "w") - w_factor * bi.from_poly_in_var1(b.den, "t", "w")
    return p, q


def run() -> dict[str, tuple[float, str]]:
    import commdyn as cd
    from commdyn.polynomial import gcd_univariate, resultant

    rng = random.Random(20261017)
    out: dict[str, tuple[float, str]] = {}

    for k, name in ((1, "k1"), (3, "k3"), (12, "k12")):
        a, b = _element(k, rng), _element(k, rng)
        out[f"exactfield.mul.{name}.us"] = (_best(lambda: a * b, 2000, 5) * 1e6, "us")
    a = _element(12, rng)
    out["exactfield.inverse.k12.us"] = (_best(a.inverse, 1000, 5) * 1e6, "us")
    a = _element(21, rng)
    twin = type(a)(21, a.residue)

    def hash_eq():
        hash(twin)
        return a == twin

    out["exactfield.hash_eq.k21.us"] = (_best(hash_eq, 5000, 5) * 1e6, "us")

    p64, q64 = _int_poly(cd, rng, 64), _int_poly(cd, rng, 64)
    out["polynomial.mul.d64.ms"] = (_best(lambda: p64 * q64, 3, 3) * 1e3, "ms")
    out["polynomial.gcd.d64.ms"] = (_best(lambda: gcd_univariate(p64, q64), 1, 3) * 1e3, "ms")
    p16, q16 = _int_poly(cd, rng, 16), _int_poly(cd, rng, 16)
    out["polynomial.resultant.d16.ms"] = (_best(lambda: resultant(p16, q16), 3, 3) * 1e3, "ms")

    u = cd.parse_map("(z^2 - 4)/(z - 1)")
    v = cd.parse_map("(z^2 + 2)/(z + 1)")
    rot = cd.Mobius.scaling(cd.zeta(3)).to_map()
    g, h = v.compose(u), v.compose(rot).compose(u)
    gh = g.compose(h)
    out["ratmap.compose.d16.ms"] = (_best(lambda: g.compose(h), 1, 3) * 1e3, "ms")
    out["ratmap.compose.d64.s"] = (_best(lambda: g.compose(gh), 1, 2), "s")

    pg, ph = _pair_polynomial(cd, g), _pair_polynomial(cd, h)
    out["polynomial.gcd_bivariate.step1.ms"] = (
        _best(lambda: cd.polynomial.gcd_bivariate(pg, ph), 1, 3) * 1e3, "ms")
    step = cd.ritt_sequence(g, h, max_steps=1).steps[0]
    p, q = _graph_inputs(cd, step.a, step.b)
    out["polynomial.resultant_eliminate.step1.ms"] = (
        _best(lambda: cd.polynomial.resultant_eliminate(p, q), 1, 3) * 1e3, "ms")
    return out
