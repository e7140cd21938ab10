"""Tests for spherical derivative norms, Lyapunov estimates, and cycle exponents."""

import math
import random

import numpy as np
import pytest

from commdyn.correspondence import _FloatView
from commdyn.errors import PreconditionError
from commdyn.exceptional import chebyshev, lattes_flexible
from commdyn.exponents import (
    CycleReport,
    LyapunovEstimate,
    _SphericalNorm,
    characteristic_exponents,
    exceptionality_probe,
    lyapunov_estimate,
    spherical_derivative_norm,
)
from commdyn.parsing import parse_map
from commdyn.ratmap import random_mobius

LOG2 = math.log(2.0)

SQUARE = parse_map("z^2")
CUBE = parse_map("z^3")
CHEB2 = parse_map("z^2 - 2")
BASILICA = parse_map("z^2 - 1")


class TestSphericalNorm:
    def test_squaring_at_one(self):
        # |2z| * (1+1)/(1+1) = 2 on the unit circle
        assert spherical_derivative_norm(SQUARE, 1.0) == pytest.approx(2.0)

    def test_identity_is_isometry(self):
        ident = parse_map("z")
        for z in (0.0, 1.0, 2.5 + 1j, None):
            assert spherical_derivative_norm(ident, z) == pytest.approx(1.0)

    def test_inversion_is_isometry(self):
        inv = parse_map("1/z")
        for z in (0.5, 2.0, 1j, None):
            assert spherical_derivative_norm(inv, z) == pytest.approx(1.0)

    def test_squaring_critical_points(self):
        assert spherical_derivative_norm(SQUARE, 0.0) == pytest.approx(0.0)
        assert spherical_derivative_norm(SQUARE, None) == pytest.approx(0.0)

    def test_chart_consistency_near_unit_circle(self):
        # values just inside and just outside the circle use different charts
        inner = spherical_derivative_norm(CUBE, 0.999)
        outer = spherical_derivative_norm(CUBE, 1.001)
        assert inner == pytest.approx(outer, rel=1e-2)

    def test_large_argument_matches_limit(self):
        # f(z)=z^2 behaves like w -> w^2 near infinity in the inverted chart
        big = spherical_derivative_norm(SQUARE, 1e8)
        assert big == pytest.approx(0.0, abs=1e-6)


def _norm_oracle(norm, z):
    """The chart formula at one point, with one 0-d np.polyval per polynomial."""
    def pv(asc, w):
        return complex(np.polyval(list(asc)[::-1], w))
    direct, inverted = norm._charts
    if z is None:
        (p, q, wron), w = inverted, 0.0j
    elif abs(z) <= 1.0:
        (p, q, wron), w = direct, z
    else:
        (p, q, wron), w = inverted, 1.0 / z
    scale = abs(pv(p, w)) ** 2 + abs(pv(q, w)) ** 2
    return abs(pv(wron, w)) * (1.0 + abs(w) ** 2) / scale


def _fiber_oracle(view, value):
    """One np.roots call for the fiber over one value, None appended on a degree drop."""
    row = view.den if value is None else [a - value * b for a, b in zip(view.num, view.den)]
    while row and abs(row[-1]) < 1e-13:
        row = row[:-1]
    roots = list(np.roots(row[::-1])) if len(row) > 1 else []
    return roots + [None] if len(roots) < view.degree else roots


def _lyapunov_reference(f, depth, breadth, seed):
    """lyapunov_estimate point by point: one fiber and one norm at a time."""
    rng = random.Random(seed)
    view = _FloatView(f)
    norm = _SphericalNorm(view)
    cloud = [complex(rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0))]
    samples = []
    for level in range(1, depth + 1):
        pool = [root for pt in cloud for root in _fiber_oracle(view, pt)]
        cloud = rng.sample(pool, breadth) if len(pool) > breadth else pool
        if level > depth // 2:
            for pt in cloud:
                v = _norm_oracle(norm, pt)
                if v > 1e-100:
                    samples.append(math.log(v))
    n = len(samples)
    mean = math.fsum(samples) / n
    spread = math.sqrt(math.fsum((s - mean) ** 2 for s in samples) / n)
    return LyapunovEstimate(value=mean, std_error=spread / math.sqrt(n),
                            depth=depth, breadth=breadth, seed=seed)


class TestBatchedNorms:
    @pytest.mark.parametrize("text", ["z^2", "z^2 - 1", "1/z^2",
                                      "(z^3 + 2*z - 1)/(3*z^3 - z + 5)"])
    def test_values_match_chart_formula(self, text):
        # points on both sides of |z| = 1, on the circle, at 0 and at infinity
        norm = _SphericalNorm(_FloatView(parse_map(text)))
        points = [None, 0j, 1 + 0j, 0.3 - 0.4j, -2 + 1j, np.complex128(0.1 + 0.9j),
                  np.complex128(5 - 3j), 1e8 + 0j, None, 0.6 + 0.8j]
        got = norm.values(points)
        want = [_norm_oracle(norm, z) for z in points]
        assert [(type(v), repr(v)) for v in got] == [(type(v), repr(v)) for v in want]

    @pytest.mark.parametrize("f", [SQUARE, chebyshev(3), lattes_flexible(2, 0, 1),
                                   parse_map("1/z^2")],
                             ids=["z^2", "T3", "lattes", "1/z^2"])
    def test_lyapunov_matches_point_by_point_loop(self, f):
        for seed in (7, 31):
            assert repr(lyapunov_estimate(f, depth=12, breadth=64, seed=seed)) \
                == repr(_lyapunov_reference(f, 12, 64, seed))


class TestLyapunovEstimate:
    def test_power_map_exact(self):
        est = lyapunov_estimate(SQUARE)
        assert isinstance(est, LyapunovEstimate)
        assert abs(est.value - LOG2) < 0.02
        # the measure of maximal entropy is uniform on the circle: every
        # sample contributes exactly log 2, so the spread collapses
        assert est.std_error < 1e-9

    def test_cubic_power_map(self):
        est = lyapunov_estimate(CUBE)
        assert abs(est.value - math.log(3.0)) < 0.02

    def test_chebyshev_deep(self):
        est = lyapunov_estimate(CHEB2, depth=30, breadth=512, seed=7)
        assert abs(est.value - LOG2) < 0.02

    def test_seed_stability(self):
        a = lyapunov_estimate(CHEB2, depth=30, breadth=512, seed=7)
        b = lyapunov_estimate(CHEB2, depth=30, breadth=512, seed=11)
        assert abs(a.value - b.value) < 3.0 * (a.std_error + b.std_error)

    def test_conjugation_invariance(self):
        conj = BASILICA.conjugate(random_mobius(3))
        a = lyapunov_estimate(BASILICA, depth=30, breadth=512, seed=7)
        b = lyapunov_estimate(conj, depth=30, breadth=512, seed=7)
        assert abs(a.value - b.value) < 0.05

    def test_positive_with_margin(self):
        est = lyapunov_estimate(BASILICA, depth=30, breadth=512, seed=7)
        assert est.value > 3.0 * est.std_error

    def test_metadata_recorded(self):
        est = lyapunov_estimate(SQUARE, depth=10, breadth=64, seed=42)
        assert (est.depth, est.breadth, est.seed) == (10, 64, 42)

    def test_degree_one_rejected(self):
        with pytest.raises(PreconditionError):
            lyapunov_estimate(parse_map("z + 1"))


class TestCharacteristicExponents:
    def test_squaring_cycle_count(self):
        # periods 1..5 of z^2: 3 fixed (0, 1, inf), then 1, 2, 3, 6 cycles
        reports = characteristic_exponents(SQUARE, 5)
        assert len(reports) == 15
        assert all(isinstance(r, CycleReport) for r in reports)

    def test_squaring_flat_profile(self):
        reports = characteristic_exponents(SQUARE, 5)
        finite = [r for r in reports if r.chi != float("-inf")]
        assert len(finite) == 13  # 0 and inf are superattracting
        for r in finite:
            assert abs(r.chi - LOG2) < 1e-9

    def test_superattracting_sentinels(self):
        reports = characteristic_exponents(SQUARE, 1)
        flagged = [r for r in reports if r.chi == float("-inf")]
        assert len(flagged) == 2
        assert all(r.multiplier_modulus < 1e-9 for r in flagged)

    def test_basilica_golden_fixed_point(self):
        # the fixed point (1+sqrt5)/2 of z^2-1 has multiplier 1+sqrt5
        reports = characteristic_exponents(BASILICA, 1)
        golden = math.log(1.0 + math.sqrt(5.0))
        close = [r for r in reports if r.chi != float("-inf") and abs(r.chi - golden) < 1e-6]
        assert len(close) == 1
        z = close[0].representative
        assert abs(z - (1.0 + math.sqrt(5.0)) / 2.0) < 1e-6

    def test_basilica_superattracting_two_cycle(self):
        # {0, -1} is a superattracting 2-cycle
        reports = characteristic_exponents(BASILICA, 2)
        flagged = [r for r in reports if r.period == 2 and r.chi == float("-inf")]
        assert len(flagged) == 1

    def test_chebyshev_endpoint_multiplier(self):
        # the Julia endpoint z=2 is fixed with derivative 4
        reports = characteristic_exponents(CHEB2, 1)
        top = max(r.chi for r in reports if r.chi != float("-inf"))
        assert top == pytest.approx(math.log(4.0), abs=1e-9)


class TestExceptionalityProbe:
    def test_squaring_reads_flat(self):
        rep = exceptionality_probe(SQUARE)
        assert rep.count_above == 0
        assert rep.verdict == "consistent with exceptional"

    def test_basilica_reads_nonexceptional(self):
        rep = exceptionality_probe(BASILICA)
        assert rep.count_above >= 1
        assert rep.verdict == "non-exceptional behavior observed"

    def test_chebyshev_endpoint_shows_up(self):
        # flat away from the endpoint: the single fixed point z=2 carries
        # chi = log 4 > L + margin, every other finite cycle sits at log 2
        rep = exceptionality_probe(CHEB2)
        assert rep.count_above == 1
        above = [
            c
            for c in rep.cycles
            if c.chi != float("-inf") and c.chi > rep.lyapunov.value + 0.05
        ]
        assert len(above) == 1
        assert above[0].period == 1
        assert abs(above[0].representative - 2.0) < 1e-6

    def test_probe_carries_estimate(self):
        rep = exceptionality_probe(SQUARE)
        assert abs(rep.lyapunov.value - LOG2) < 0.02
