"""Numeric exponent probes: Lyapunov estimates and cycle multipliers.

Everything here is floating point, in deliberate contrast to the exact
modules.  The invariant measure is approximated by pulling a seeded
starting point back through the map, keeping a bounded random sample of
preimage branches per level; cycle data comes from numeric roots of the
exact periodic polynomials.  Derivative sizes are always measured in the
round metric on the sphere, which is finite at poles and at infinity and
telescopes exactly around a cycle.  The error bar of a Lyapunov estimate
is the closed-form standard error of a mean, sigma / sqrt(n) with the
divisor-n deviation: the limit of a bootstrap as its resamples grow
(Efron and Tibshirani, *An Introduction to the Bootstrap*, 1993, ch. 5).
numpy (roots, polynomial values, products) is imported on first use, so
importing this module, and the CLI, does not load it.
"""

import math
import random
from dataclasses import dataclass
from typing import Optional

from .correspondence import _chordal, _FloatView, _np_roots
from .errors import PreconditionError
from .periodic import exact_period_polynomial
from .ratmap import RationalMap


def _derivative(asc: list[complex]) -> list[complex]:
    return [i * c for i, c in enumerate(asc)][1:] or [0.0j]


def _pv(asc: list[complex], z: complex) -> complex:
    import numpy as np
    return complex(np.polyval(list(asc)[::-1], z))


class _SphericalNorm:
    """Norm of the differential in the round metric, chart-switched.

    With f = P/Q reduced and W = P'Q - PQ', the norm at affine z is
    |W(z)| (1 + |z|^2) / (|P(z)|^2 + |Q(z)|^2), which needs no special
    case at poles.  For |z| > 1 and at infinity the same formula is
    applied in the inverted chart, where the map's homogeneous
    coefficients simply reverse.
    """

    def __init__(self, view: _FloatView):
        p, q = view.num, view.den
        self._direct = (p, q, self._wronskian(p, q))
        rp, rq = q[::-1], p[::-1]
        self._inverted = (rp, rq, self._wronskian(rp, rq))

    @staticmethod
    def _wronskian(p: list[complex], q: list[complex]) -> list[complex]:
        import numpy as np
        left = np.convolve(_derivative(p), q)
        right = np.convolve(p, _derivative(q))
        width = max(len(left), len(right))
        return list(np.append(left, [0.0j] * (width - len(left)))
                    - np.append(right, [0.0j] * (width - len(right))))

    def value(self, z: Optional[complex]) -> float:
        if z is None:
            num, den, wron = self._inverted
            w = 0.0j
        elif abs(z) <= 1.0:
            num, den, wron = self._direct
            w = z
        else:
            num, den, wron = self._inverted
            w = 1.0 / z
        scale = abs(_pv(num, w)) ** 2 + abs(_pv(den, w)) ** 2
        return abs(_pv(wron, w)) * (1.0 + abs(w) ** 2) / scale


def spherical_derivative_norm(f: RationalMap, z: Optional[complex]) -> float:
    """Size of the differential of f at z in the round metric.

    z may be any complex number or None for the point at infinity.
    """
    return _SphericalNorm(_FloatView(f)).value(None if z is None else complex(z))


@dataclass(frozen=True)
class LyapunovEstimate:
    value: float
    std_error: float
    depth: int
    breadth: int
    seed: int


def lyapunov_estimate(f: RationalMap, depth: int = 24, breadth: int = 256,
                      seed: int = 7) -> LyapunovEstimate:
    """Pullback estimate of the Lyapunov exponent of the balanced measure.

    Iterated preimages of a seeded starting point equidistribute toward
    the measure of maximal entropy, so the mean of log spherical
    derivative norms over the late preimage clouds approximates the
    exponent.  Each level keeps at most `breadth` randomly chosen
    branches; the first half of the levels is discarded as burn-in.  The
    standard error is the ideal bootstrap error of the mean of the
    retained samples, sqrt(sum (s - mean)^2 / n) / sqrt(n) (Efron and
    Tibshirani 1993, ch. 5).  It ignores the correlation between samples
    of one cloud, so, like the estimate itself, it is a heuristic.
    """
    if f.degree < 2:
        raise PreconditionError("degree at least two is required")
    rng = random.Random(seed)
    view = _FloatView(f)
    norm = _SphericalNorm(view)
    cloud: list[Optional[complex]] = [
        complex(rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0))]
    burn_in = depth // 2
    samples: list[float] = []
    for level in range(1, depth + 1):
        pool: list[Optional[complex]] = []
        for pt in cloud:
            pool.extend(view.preimages(pt))
        cloud = rng.sample(pool, breadth) if len(pool) > breadth else pool
        if level > burn_in:
            for pt in cloud:
                v = norm.value(pt)
                if v > 1e-100:
                    samples.append(math.log(v))
    n = len(samples)
    mean = math.fsum(samples) / n
    spread = math.sqrt(math.fsum((s - mean) ** 2 for s in samples) / n)
    return LyapunovEstimate(value=mean, std_error=spread / math.sqrt(n),
                            depth=depth, breadth=breadth, seed=seed)


@dataclass(frozen=True)
class CycleReport:
    """One periodic cycle: period, witness point, |multiplier|, exponent.

    chi is log|multiplier| / period; superattracting cycles carry
    chi = -inf since the logarithm diverges.
    """

    period: int
    representative: Optional[complex]
    multiplier_modulus: float
    chi: float


_SUPER_EPS = 1e-12
_MATCH_TOL = 1e-5


def _cycle_survey(f: RationalMap, n_max: int) -> tuple[list[CycleReport], int]:
    view = _FloatView(f)
    norm = _SphericalNorm(view)
    reports: list[CycleReport] = []
    skipped = 0
    for n in range(1, n_max + 1):
        spec = exact_period_polynomial(f, n)
        pool: list[Optional[complex]] = _np_roots(spec.phi.complex_coeffs())
        if spec.infinity_is_periodic:
            pool.append(None)
        while pool:
            z0 = pool.pop()
            orbit = [z0]
            cur = z0
            for _ in range(n - 1):
                cur = view.image(cur)
                orbit.append(cur)
            if _chordal(view.image(orbit[-1]), z0) > _MATCH_TOL:
                skipped += 1
                continue
            # pull the cycle mates out of the pool so each cycle reports once
            for member in orbit[1:]:
                best = None
                for i, candidate in enumerate(pool):
                    dist = _chordal(member, candidate)
                    if best is None or dist < best[1]:
                        best = (i, dist)
                if best is not None and best[1] < _MATCH_TOL:
                    pool.pop(best[0])
            modulus = 1.0
            for member in orbit:
                modulus *= norm.value(member)
            chi = math.log(modulus) / n if modulus > _SUPER_EPS else float("-inf")
            reports.append(CycleReport(period=n, representative=z0,
                                       multiplier_modulus=modulus, chi=chi))
    return reports, skipped


def characteristic_exponents(f: RationalMap, n_max: int = 5) -> list[CycleReport]:
    """Cycle exponents for all periods up to n_max.

    Periodic points are numeric roots of the exact-period polynomials,
    grouped into cycles by forward iteration; the multiplier modulus is
    the product of spherical derivative norms around the cycle, whose
    chart factors cancel exactly, so cycles through infinity need no
    special handling.  Root clusters that fail to close up within
    tolerance are dropped.  Deterministic.
    """
    reports, _ = _cycle_survey(f, n_max)
    return reports


@dataclass(frozen=True)
class ProbeReport:
    lyapunov: LyapunovEstimate
    cycles: tuple[CycleReport, ...]
    count_above: int
    skipped: int
    verdict: str


def exceptionality_probe(f: RationalMap, n_max: int = 5, depth: int = 24,
                         breadth: int = 256, seed: int = 7,
                         margin: float = 0.05) -> ProbeReport:
    """Compare cycle exponents against the Lyapunov estimate.

    For the special maps every cycle exponent coincides with the
    exponent of the balanced measure, so a flat profile is reported as
    consistent with that behavior; any cycle exceeding the estimate by
    the margin is counted as evidence against it.  Superattracting and
    near-parabolic cycles are left out of the comparison.  The verdict
    is a heuristic, never a proof.
    """
    if n_max < 1:
        raise PreconditionError("n_max must be at least 1")
    estimate = lyapunov_estimate(f, depth=depth, breadth=breadth, seed=seed)
    cycles, skipped = _cycle_survey(f, n_max)
    considered = [c for c in cycles
                  if c.chi != float("-inf")
                  and abs(c.multiplier_modulus - 1.0) > 1e-6]
    count_above = sum(1 for c in considered if c.chi > estimate.value + margin)
    flat = all(abs(c.chi - estimate.value) < margin for c in considered)
    verdict = ("consistent with exceptional" if flat
               else "non-exceptional behavior observed")
    return ProbeReport(lyapunov=estimate, cycles=tuple(cycles),
                       count_above=count_above, skipped=skipped,
                       verdict=verdict)
