"""The three benchmark workloads as seeded streams of checked operations.

A workload is built once per process by `setup(seed)` and then yields
rounds.  Every round holds the same operation kinds in the same numbers;
the seed and the round index choose the parameters (conjugating maps,
random maps, signs and roots of unity, estimator seeds, malformed
requests) and the order.  Keeping the mix fixed
keeps the cost of a round steady across seeds, so that run-to-run
spread measures the program rather than the draw.

Each operation carries its own check, taken from `oracles` or from
facts fixed by the construction of its inputs, never from a second call
into the code being measured.
"""

from __future__ import annotations

import json
import math
import os
import random
import subprocess
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm
from typing import Any, Callable, Optional

from . import oracles

WORKLOADS = ("cyclotomic-pairs", "survey", "cli-requests")

# Known defects: two defects of the program that the checks below detect
# at the commit that introduced this benchmark.  An operation that shows
# one is counted and listed as a known defect, not as a failure; once the
# defect is fixed the operation simply passes.
#   cycle-overcount: characteristic_exponents reports one cycle twice when
#     a numeric root misses its 1e-5 match tolerance;
#   cli-item5: the ROADMAP item-5 reproductions (tracebacks, ignored
#     top-level flags, negative or zero leaf flags), KNOWN_DEFECT_KINDS.


@dataclass
class Op:
    """One closed-loop operation: `run()` is timed, `check(result)` is not."""

    kind: str
    label: str
    run: Callable[[], Any]
    check: Callable[[Any], bool]
    # when the check fails, whether the result shows a known defect of the
    # program rather than a new failure
    known_defect: Optional[Callable[[Any], bool]] = None


def _rng(workload: str, seed: int, round_index: int) -> random.Random:
    return random.Random(f"{workload}/{seed}/{round_index}")


def _coeffs(poly) -> list[Fraction]:
    return [c.as_fraction() for c in poly.coeffs]


# ---------------------------------------------------------------------------
# cyclotomic-pairs
# ---------------------------------------------------------------------------

@dataclass
class PairsInputs:
    cd: Any
    f: Any          # u o v
    g: Any          # v o u
    h: Any          # v o rot o u
    rot: Any        # z -> zeta3 * z


def pairs_setup(seed: int) -> PairsInputs:
    import commdyn as cd

    u = cd.parse_map("(z^2 - 4)/(z - 1)")
    v = cd.parse_map("(z^2 + 2)/(z + 1)")
    rot = cd.Mobius.scaling(cd.zeta(3)).to_map()
    inputs = PairsInputs(cd, u.compose(v), v.compose(u), v.compose(rot).compose(u), rot)
    for k in (3, 4, 6, 12):  # warm the cyclotomic modulus and lift caches
        cd.zeta(k) * cd.zeta(k)
    return inputs


def _first_step_orbit_size(cd, f, g) -> int:
    step = cd.ritt_sequence(f, g, max_steps=1).steps[0]
    return cd.orbit_closure(cd.Correspondence(step.a, step.b))[1]


def _fixed_count(result) -> int:
    shared, both_inf = result
    return shared.degree + int(both_inf)


def _mobius_entries(rng: random.Random, affine: bool):
    """Small integer entries (a, b, c, d) of a Mobius map other than the
    identity; c = 0 and d = 1 for an affine one, with a in +-{1, 2, 1/2}."""
    if affine:
        while True:
            a = rng.choice((1, -1, 2, -2, Fraction(1, 2), Fraction(-1, 2)))
            b = rng.randint(-2, 2)
            if (a, b) != (1, 0):
                return a, b, 0, 1
    while True:
        a, b, c, d = (rng.randint(-3, 3) for _ in range(4))
        if a * d - b * c != 0 and (a, b, c, d) != (1, 0, 0, 1):
            return a, b, c, d


def pairs_round(inp: PairsInputs, seed: int, round_index: int) -> list[Op]:
    """The quartic pair, its conjugates, rotation, power and Chebyshev pairs.

    The degree-64 kinds (common iterate, eq2 at n = 3, eq8) run on the
    unconjugated quartic pair only: on a conjugate the common iterate
    alone takes minutes.  `ritt_sequence` runs inside the common iterate
    and the first-step orbit.  Each conjugate serves one query, so that
    the cost of independent draws averages out within a round.  The
    cheap pairs, whose latencies set the median, draw only parameters
    that leave their cost unchanged, and come twice so that the median
    rests on many samples.
    """
    cd = inp.cd
    rng = _rng("cyclotomic-pairs", seed, round_index)
    g, h = inp.g, inp.h
    # The first-step orbit comes three times: with the four slower
    # degree-64 and k = 12 queries, a two-round run has 8 samples above
    # its six, so the tail latency (the 11th-largest sample) falls in the
    # middle of a group of identical queries, not on a boundary between
    # query kinds.
    ops = [
        Op("commutes", "commutes quartic", lambda: g.commutes(h), lambda r: r is True),
        Op("common_iterate", "common iterate quartic",
           lambda: cd.common_iterate_equal_degree(g, h), lambda p: p == 3),
    ] + [
        Op("orbit_closure", f"first-step orbit quartic #{i}",
           lambda: _first_step_orbit_size(cd, g, h), lambda s: s == 6)
        for i in range(1, 4)
    ] + [
        Op("common_fixed_points", "fixed quartic",
           lambda: cd.common_fixed_points(g, h), lambda r: _fixed_count(r) == 2),
        Op("multiplier_identity", "eq2 quartic n=3",
           lambda: cd.verify_multiplier_identity(inp.f, inp.rot, 3, 1), lambda r: r is True),
        Op("identity_eq8", "eq8 quartic",
           lambda: cd.verify_identity_eq8(g, h, 1), lambda r: r is True),
    ]

    # seeded Mobius conjugates commute and keep the two common fixed
    # points.  The costly query conjugates by affine maps, whose cost
    # hardly depends on the draw; the cheap one moves infinity as well.
    # The first-step orbit size of a conjugate is left out: its cost varies
    # twofold with the conjugating map, and as the eleventh-slowest query
    # of a run it set the tail latency.
    conj_kinds = (
        ("commutes", True, lambda a, b: a.commutes(b), lambda r: r is True),
        ("common_fixed_points", False, lambda a, b: cd.common_fixed_points(a, b),
         lambda r: _fixed_count(r) == 2),
    )
    for kind, affine, query, check in conj_kinds:
        entries = _mobius_entries(rng, affine)
        m = cd.Mobius(*(cd.rational(x) for x in entries))
        gc, hc = g.conjugate(m), h.conjugate(m)
        ops.append(Op(kind, f"{kind} conjugate {tuple(str(x) for x in entries)}",
                      lambda a=gc, b=hc, q=query: q(a, b), check))

    # z * (z^n + c) commutes with the order-n rotation; the n-th iterates agree
    for n in (2, 2, 3, 3):
        c = rng.choice((-1, 1))
        j = rng.choice(oracles.units_mod(n))
        f = cd.parse_map(f"z*(z^{n} + ({c}))")
        rho = cd.Mobius.scaling(cd.zeta(n) ** j).to_map()
        g2 = rho.compose(f)
        tag = f"rotation n={n} c={c} j={j}"
        ops += [
            Op("commutes", f"commutes {tag}", lambda a=f, b=g2: a.commutes(b),
               lambda r: r is True),
            Op("ritt_sequence", f"ritt {tag}", lambda a=f, b=g2: cd.ritt_sequence(a, b),
               lambda s: s.terminated and [x.r for x in s.steps] == [1]),
            Op("common_iterate", f"common iterate {tag}",
               lambda a=f, b=g2: cd.common_iterate_equal_degree(a, b),
               lambda p, n=n: p == n),
            Op("common_fixed_points", f"fixed {tag}",
               lambda a=f, b=g2: cd.common_fixed_points(a, b), lambda r: _fixed_count(r) == 2),
            Op("multiplier_identity", f"eq2 {tag}",
               lambda a=f, b=rho: cd.verify_multiplier_identity(a, b, 1, 1),
               lambda r: r is True),
        ]

    # zeta_k^j * z^(k+1) beside z^(k+1): they commute because zeta^(k+1) = zeta
    for k in (3, 3, 4, 4, 6, 6, 12):
        j = rng.choice(oracles.units_mod(k))
        p = cd.power_map(k + 1)
        q = cd.power_map(k + 1, unity_order=k, unity_exponent=j)
        tag = f"power k={k} j={j}"
        ops += [
            Op("commutes", f"commutes {tag}", lambda a=p, b=q: a.commutes(b),
               lambda r: r is True),
            Op("common_fixed_points", f"fixed {tag}",
               lambda a=p, b=q: cd.common_fixed_points(a, b), lambda r: _fixed_count(r) == 2),
            Op("multiplier_identity", f"eq2 {tag}",
               lambda a=p, b=q: cd.verify_multiplier_identity(a, b, 1, 1),
               lambda r: r is True),
        ]

    # Chebyshev pairs over the rationals, and a non-commuting control.
    # The commutation of (T_3, T_4) and (T_4, T_3) costs about what the
    # median query costs; asked five times each, it holds the median of a
    # run in the middle of a group of identical queries.
    for d, e in ((2, 3), (3, 2), (3, 4), (4, 3)):
        td, te = cd.chebyshev(d), cd.chebyshev(e)
        want = oracles.chebyshev_common_fixed_count(d, e)
        tag = f"chebyshev {d},{e}"
        ops += [
            Op("commutes", f"commutes {tag}" + (f" #{i}" if i else ""),
               lambda a=td, b=te: a.commutes(b), lambda r: r is True)
            for i in range(5 if e == 4 or d == 4 else 1)
        ] + [
            Op("common_fixed_points", f"fixed {tag}",
               lambda a=td, b=te: cd.common_fixed_points(a, b),
               lambda r, w=want: _fixed_count(r) == w),
            Op("identity_eq8", f"eq8 {tag}",
               lambda a=td, b=te: cd.verify_identity_eq8(a, b, 1), lambda r: r is True),
        ]
    square = cd.parse_map("z^2")
    for c in (-1, 1):
        shift = cd.parse_map(f"z + ({c})")
        ops += [
            Op("commutes", f"commutes control c={c}", lambda b=shift: square.commutes(b),
               lambda r: r is False),
            Op("identity_eq8", f"eq8 control c={c}",
               lambda b=shift: cd.verify_identity_eq8(square, b, 1), lambda r: r is False),
        ]
    rng.shuffle(ops)
    return ops


# ---------------------------------------------------------------------------
# survey
# ---------------------------------------------------------------------------

@dataclass
class SurveyInputs:
    cd: Any


def survey_setup(seed: int) -> SurveyInputs:
    import commdyn as cd

    cd.lyapunov_estimate(cd.parse_map("z^2"), depth=2, breadth=4)  # numpy warm-up
    for k in (3, 4, 5, 7, 8, 9):
        cd.zeta(k) * cd.zeta(k)
    return SurveyInputs(cd)


def _random_equal_degree_map(cd, rng: random.Random, d: int):
    """A degree-d map with equal top degrees, drawn as in acceptance criterion 5."""
    while True:
        num = [rng.randint(-5, 5) for _ in range(d + 1)]
        den = [rng.randint(-5, 5) for _ in range(d + 1)]
        if num[-1] == 0 or den[-1] == 0:
            continue
        f = cd.RationalMap(cd.Polynomial.from_ints(num), cd.Polynomial.from_ints(den))
        if f.degree == d and f.num.degree == d and f.den.degree == d:
            return f, f"({num})/({den})"


# The rigid part of the survey panel is the same in every round: z^2, z^3,
# T_2, T_3 and these two Lattes maps, the most expensive maps of the panel.
# The seed draws the random maps, the estimator seeds, the orbits and the
# order, so that a round costs about the same for every seed.
_LATTES_CURVES = ((0, 1), (-1, 0))

# (n_max for cycle exponents, n for periodic points, n for multiplier spectra)
_PERIODS = {2: (4, 3, 3), 3: (3, 2, 2), 4: (3, 2, 2)}

# Repeated queries, so that the median and the tail latency of a
# two-round run fall in the middle of a group of queries on fixed maps,
# and not on queries of the random maps, whose cost varies with the draw.
# A Lattès map gets three probes, with different estimator seeds: below
# the four Lattès spectra, its twelve probes hold the tail (the
# 11th-largest sample).  The spectra of z^2 and T_2 come five times each:
# they cost about what the median query costs.
_PROBES = {"lattes": 3}
_SPECTRA = {"power": 5, "chebyshev": 5}


def _survey_map_ops(cd, rng, f, name: str, family: str, d: int) -> list[Op]:
    """The per-map queries of six kinds, some repeated, with their checks.

    family is "power", "chebyshev", "lattes" or "random".  The rigid
    families have exact answers: their cycle exponents sit on log d (or
    on a known multiple), their Lyapunov exponent is log d (half of it
    for a Lattès map) and their multiplier spectra are products of known
    linear factors.  Random maps are held to identities that every map
    satisfies.
    """
    n_max, n_per, n_mult = _PERIODS[d]
    lyap_seed = rng.randrange(1000)
    probe_seeds = [rng.randrange(1000) for _ in range(_PROBES.get(family, 1))]
    log_d = math.log(d)
    allowed_chi = {"power": (log_d,), "chebyshev": (log_d, 2 * log_d),
                   "lattes": (log_d / 2, log_d)}.get(family)
    lyap_ref = {"power": log_d, "chebyshev": log_d, "lattes": log_d / 2}.get(family)

    def check_lyapunov(est) -> bool:
        if lyap_ref is None:
            # the balanced measure has exponent at least half of log d
            return est.value >= log_d / 2 - 0.05
        # within 0.02, or within four bootstrap errors of a noisy draw
        return abs(est.value - lyap_ref) <= max(0.02, 4 * est.std_error)

    def overcounted(reports) -> bool:
        return any(sum(r.period for r in reports if r.period == n)
                   > oracles.exact_period_count(d, n) for n in range(1, n_max + 1))

    def check_cycle_values(reports) -> bool:
        if any(not 1 <= r.period <= n_max for r in reports):
            return False
        if allowed_chi is None:
            return True
        return all(r.chi == float("-inf") or min(abs(r.chi - a) for a in allowed_chi) < 1e-4
                   for r in reports)

    def check_cycles(reports) -> bool:
        # no more cycles of each period than there are points of that period
        return not overcounted(reports) and check_cycle_values(reports)

    def check_probe(rep) -> bool:
        if rep.count_above < 0 or rep.count_above > len(rep.cycles):
            return False
        if family == "power":
            return rep.count_above == 0 and rep.verdict == "consistent with exceptional"
        if family == "chebyshev":
            # the endpoint 2 (and -2 for odd d) has exponent 2 log d
            return rep.count_above >= 1 + d % 2 and rep.verdict.startswith("non-exceptional")
        if family == "lattes":
            # infinity has exponent log 4 = log d, twice the measure's
            return rep.count_above >= 1 and rep.verdict.startswith("non-exceptional")
        return rep.verdict in ("consistent with exceptional",
                               "non-exceptional behavior observed")

    expected_spectrum = {
        "power": lambda: oracles.power_spectrum(d, n_mult),
        "chebyshev": lambda: oracles.chebyshev_spectrum(d, n_mult),
        "lattes": lambda: oracles.lattes_spectrum(n_mult),
    }.get(family)

    def check_spectrum(poly) -> bool:
        coeffs = _coeffs(poly)
        if expected_spectrum is not None:
            return coeffs == expected_spectrum()
        if len(coeffs) != d ** n_mult + 2 or coeffs[-1] != 1:
            return False
        return oracles.holomorphic_index_holds(coeffs) is not False

    exact_count = oracles.exact_period_count(d, n_per) - oracles.parabolic_collisions(
        _coeffs(f.num), _coeffs(f.den), n_per)
    probes = [
        Op("exceptionality_probe", f"probe {name} n<={n_max} seed={seed}",
           lambda seed=seed: cd.exceptionality_probe(f, n_max=n_max, depth=24, breadth=128,
                                                     seed=seed), check_probe)
        for seed in probe_seeds]
    return probes + [
        Op("lyapunov_estimate", f"lyapunov {name} seed={lyap_seed}",
           lambda: cd.lyapunov_estimate(f, depth=24, breadth=128, seed=lyap_seed),
           check_lyapunov),
        Op("characteristic_exponents", f"cycles {name} n<={n_max}",
           lambda: cd.characteristic_exponents(f, n_max), check_cycles,
           known_defect=lambda reports: overcounted(reports) and check_cycle_values(reports)),
        Op("periodic_polynomial", f"periodic {name} n={n_per}",
           lambda: cd.periodic_polynomial(f, n_per),
           lambda s: s.phi.degree + int(s.infinity_is_periodic)
           == oracles.period_point_count(d, n_per)),
        Op("exact_period_polynomial", f"exact period {name} n={n_per}",
           lambda: cd.exact_period_polynomial(f, n_per),
           lambda s: s.phi.degree + int(s.infinity_is_periodic) == exact_count),
    ] + [
        Op("multiplier_spectrum", f"spectrum {name} n={n_mult}" + (f" #{i}" if i else ""),
           lambda: cd.multiplier_spectrum(f, n_mult), check_spectrum)
        for i in range(_SPECTRA.get(family, 1) if d == 2 else 1)
    ]


def _root_of_unity_ops(cd, rng) -> list[Op]:
    """Orbits of zeta_N^a under z^m and the rotation by zeta_k^j.

    As exponents modulo L = lcm(N, k) the power map multiplies by m and
    the rotation adds j * L / k, so the orbit and the action of each
    generator on it are integer arithmetic.
    """
    big_n = rng.choice((5, 7, 8, 9))
    k = rng.choice((3, 4, 6))
    level = lcm(big_n, k)
    a = rng.choice(oracles.units_mod(big_n))
    j = rng.choice(oracles.units_mod(k))
    m = rng.choice((2, 3, 5))
    start = cd.zeta(big_n) ** a
    gens = [cd.power_map(m), cd.Mobius.scaling(cd.zeta(k) ** j).to_map()]
    order, rows = oracles.root_of_unity_orbit(
        level, a * (level // big_n), [(m, 0), (1, j * (level // k))])
    tag = f"zeta{big_n}^{a} under z^{m}, zeta{k}^{j}*z"
    points: list = []

    def explore():
        run = cd.orbit(gens, start)
        points[:] = run.points
        return run

    return [
        Op("orbit", f"orbit {tag}", explore,
           lambda run: run.closed and len(run.points) == len(order)),
        # runs after the exploration above: rounds keep their order
        Op("action_table", f"action {tag}", lambda: cd.action_table(gens, points),
           lambda table: [row.images for row in table] == rows),
    ]


def survey_round(inp: SurveyInputs, seed: int, round_index: int) -> list[Op]:
    cd = inp.cd
    rng = _rng("survey", seed, round_index)
    panel = []
    for d in (2, 3):
        panel.append((cd.parse_map(f"z^{d}"), f"z^{d}", "power", d))
        panel.append((cd.chebyshev(d), f"T{d}", "chebyshev", d))
    for a, b in _LATTES_CURVES:
        panel.append((cd.lattes_flexible(2, cd.rational(a), cd.rational(b)),
                      f"lattes({a},{b})", "lattes", 4))
    for d in (2, 2, 3, 3, 3):
        f, text = _random_equal_degree_map(cd, rng, d)
        panel.append((f, text, "random", d))
    groups = [_survey_map_ops(cd, rng, f, name, family, d) for f, name, family, d in panel]
    groups += [_root_of_unity_ops(cd, rng) for _ in range(3)]
    rng.shuffle(groups)
    return [op for group in groups for op in group]


# ---------------------------------------------------------------------------
# cli-requests
# ---------------------------------------------------------------------------

# ROADMAP item 5 reproductions (known defect cli-item5).  They stay in the
# stream with their documented outcome as the expectation.
KNOWN_DEFECT_KINDS = ("negative-breadth", "negative-depth", "zero-depth",
                      "bad-orbit-file", "negative-kmax", "top-level-field",
                      "top-level-format")


@dataclass
class CliRequest:
    kind: str
    argv: list[str]
    code: int
    expect: Callable[[str], bool] = field(default=lambda out: True)


@dataclass
class CliInputs:
    root: str
    work: str
    env: dict


def _lines(*wanted: str) -> Callable[[str], bool]:
    def check(out: str) -> bool:
        have = set(out.splitlines())
        return all(w in have for w in wanted)
    return check


def _value_near(key: str, target: float, tol: float) -> Callable[[str], bool]:
    def check(out: str) -> bool:
        for line in out.splitlines():
            if line.startswith(f"{key}: "):
                return abs(float(line.split(": ", 1)[1]) - target) < tol
        return False
    return check


def _is_json(out: str) -> bool:
    try:
        json.loads(out)
    except ValueError:
        return False
    return True


def cli_env(root: str) -> dict:
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def cli_setup(seed: int, root: str) -> CliInputs:
    work = os.path.join(root, "perfbench", ".work")
    os.makedirs(work, exist_ok=True)
    inputs = CliInputs(root, work, cli_env(root))
    with open(os.path.join(work, "quartic.map"), "w", encoding="utf-8") as handle:
        handle.write("z*(z^3 - 8)/(z^3 + 1)\n")
    for n, exps in ((5, (1, 2, 4, 3)), (7, (1, 2, 4))):
        with open(os.path.join(work, f"orbit{n}.json"), "w", encoding="utf-8") as handle:
            json.dump({"points": [f"zeta{n}^{e}" for e in exps]}, handle)
    # one request end to end, so the loop starts with a warm file cache
    run_cli_request(inputs, CliRequest("warm-up", ["gen", "chebyshev", "2"], 0))
    return inputs


# of the 15 malformed kinds with a documented exit code, 8 a round
MALFORMED_PER_ROUND = 8

# zeta7 = zeta21^3 under z^2 and zeta3*z
_ZETA7_ORBIT, _ = oracles.root_of_unity_orbit(21, 3, [(2, 0), (1, 7)])


def cli_round(inp: CliInputs, seed: int, round_index: int) -> list[CliRequest]:
    rng = _rng("cli-requests", seed, round_index)
    work = inp.work
    reqs: list[CliRequest] = []
    for _ in range(2):
        d = rng.randint(2, 9)
        k = rng.choice((3, 4, 6, 12))
        order_k = rng.choice((3, 4, 6))
        a, b = rng.choice(_LATTES_CURVES)
        c = rng.choice((-3, -2, -1, 1, 2, 3))
        n = rng.choice((2, 3))
        rot = "(-z)" if n == 2 else "zeta3*z"  # a bare "-z" would read as a flag
        f = f"z*(z^{n} + ({c}))"
        g = f"-({f})" if n == 2 else f"zeta3*({f})"
        e = rng.choice((2, 3))
        t2, t3 = "z^2 - 2", "z^3 - 3*z"
        log_d = math.log(e)
        orbit_n = rng.choice((5, 7))
        ref = "z^16" if orbit_n == 5 else "z^8"  # fixes every orbit point
        reqs += [
            CliRequest("gen-chebyshev", ["gen", "chebyshev", str(d)], 0,
                       _lines(f"degree: {d}")),
            CliRequest("gen-power", ["gen", "power", str(d), "--zeta", str(k)], 0,
                       _lines(f"degree: {d}")),
            CliRequest("gen-lattes", ["gen", "lattes", "2", str(a), str(b)], 0,
                       _lines("degree: 4")),
            CliRequest("ritt-seq", ["ritt", "seq", f, g], 0,
                       _lines("terminated: true")),
            CliRequest("ritt-common-iterate", ["ritt", "common-iterate", f, g], 0,
                       _lines(f"p: {n}")),
            CliRequest("ritt-common-iterate-file",
                       ["ritt", "common-iterate", os.path.join(work, "quartic.map"),
                        os.path.join(work, "quartic.map")], 0, _lines("p: 1")),
            CliRequest("corr-graph", ["corr", "graph", f"z^2 + ({c})", f"z^3 + ({c})*z"], 0,
                       _lines("bidegree: [2, 3]")),
            CliRequest("corr-closure", ["corr", "closure", "z^2", f"zeta{order_k}*z^2"], 0,
                       _lines(f"orbit_size: {order_k}")),
            CliRequest("corr-lemma4", ["corr", "lemma4", f, g], 0,
                       _lines(f"p: {n}", f"s_c: {n}", "bound_ok: true")),
            CliRequest("per-poly", ["per", "poly", f"z^2 + ({c})", str(n)], 0,
                       _lines(f"degree: {2 ** n}", "includes_infinity: true")),
            CliRequest("per-poly-exact", ["per", "poly", f"z^2 + ({c})", str(n), "--exact"], 0,
                       _lines(f"degree: {oracles.exact_period_count(2, n)}",
                              "includes_infinity: false")),
            CliRequest("per-multipliers", ["per", "multipliers", f"z^{e}", "2"], 0,
                       _lines(f"degree: {e ** 2 + 1}")),
            CliRequest("per-eq2", ["per", "eq2", f, rot, "1", "1"], 0,
                       _lines("holds: true")),
            CliRequest("exp-lyapunov", ["exp", "lyapunov", f"z^{e}", "--depth", "8",
                                        "--breadth", "32", "--seed", str(rng.randrange(100))],
                       0, _value_near("value", log_d, 0.05)),
            CliRequest("exp-probe", ["exp", "probe", "z^2", "--nmax", "3", "--depth", "8",
                                     "--breadth", "32"], 0,
                       _lines("verdict: consistent with exceptional")),
            CliRequest("orbit-explore", ["orbit", "explore", "z^2; zeta3*z", "--start", "zeta7"],
                       0, _lines("status: Closed", f"size: {len(_ZETA7_ORBIT)}")),
            CliRequest("orbit-phi", ["orbit", "phi", "z^2", ref,
                                     os.path.join(work, f"orbit{orbit_n}.json")], 0,
                       _lines("residue: 1")),
            CliRequest("identity-eq8", ["identity", "eq8", t2, t3], 0, _lines("holds: true")),
            CliRequest("golden-one", ["golden", "chebyshev-cubic"], 0, _lines("passed: true")),
            CliRequest("golden-list", ["golden", "--list"], 0),
        ]
    c = rng.choice((-3, -2, -1, 1, 2, 3))
    malformed = [
        CliRequest("parse-operator", ["per", "poly", f"z^^2 + {abs(c)}", "1"], 2),
        CliRequest("parse-dangling", ["ritt", "seq", "z^2 +", "z"], 2),
        CliRequest("parse-paren", ["per", "poly", f"(z + {abs(c)}", "2"], 2),
        CliRequest("parse-constant", ["exp", "lyapunov", str(abs(c))], 2),
        CliRequest("parse-symbol", ["per", "poly", "w^2", "1"], 2),
        CliRequest("argparse-int", ["gen", "chebyshev", "two"], 2),
        CliRequest("budget-iterate", ["per", "poly", f"z^2 + ({c})", "13"], 3),
        CliRequest("budget-eq8", ["identity", "eq8", "z^2", "z^3", "--N", "3"], 3),
        CliRequest("budget-closure", ["corr", "closure", "z^2", "z^3", "--kmax", "1"], 3),
        CliRequest("budget-degree-cap", ["per", "poly", "z^3", "9", "--degree-cap", "1000"], 3),
        CliRequest("pre-degree", ["gen", "chebyshev", "0"], 4),
        CliRequest("pre-unequal", ["ritt", "seq", "z^2", "z^3"], 4),
        CliRequest("pre-singular", ["gen", "lattes", "2", "0", "0"], 4),
        CliRequest("pre-field", ["per", "poly", "zeta5*z^2", "1", "--field", "4"], 4),
        CliRequest("pre-commute", ["per", "eq2", "z^2", f"z + ({c})", "1", "1"], 4),
    ]
    reqs += rng.sample(malformed, MALFORMED_PER_ROUND)
    reqs += [
        CliRequest("negative-breadth", ["exp", "lyapunov", "z^2-1", "--breadth",
                                        str(-rng.randint(1, 9))], 4),
        CliRequest("negative-depth", ["exp", "lyapunov", "z^2-1", "--depth",
                                      str(-rng.randint(1, 9))], 4),
        CliRequest("zero-depth", ["exp", "lyapunov", "z^2-1", "--depth", "0"], 4),
        CliRequest("bad-orbit-file", ["orbit", "phi", "z^2", "z^8",
                                      json.dumps({"points": rng.randint(2, 9)})], 2),
        CliRequest("negative-kmax", ["corr", "closure", "z^2", "zeta3*z^2", "--kmax",
                                     str(-rng.randint(1, 9))], 4),
        CliRequest("top-level-field", ["--field", "2", "gen", "power", "2", "--zeta", "3"], 4),
        CliRequest("top-level-format", ["--format", "structured", "gen", "chebyshev",
                                        str(rng.randint(2, 9))], 0, _is_json),
    ]
    rng.shuffle(reqs)
    return reqs


def outcome_ok(req: CliRequest, code, out: str, err: str) -> bool:
    """Documented exit code, expected output, and no traceback."""
    if code != req.code or "Traceback" in err:
        return False
    return req.expect(out) if code == 0 else bool(err.strip())


def run_cli_request(inp: CliInputs, req: CliRequest):
    proc = subprocess.run([sys.executable, "-m", "commdyn.cli", *req.argv],
                          cwd=inp.root, env=inp.env, capture_output=True, text=True,
                          timeout=120)
    return proc.returncode, proc.stdout, proc.stderr


def cli_known_defect(req: CliRequest):
    """The known-defect predicate of a request: every outcome of an item-5
    reproduction other than the documented one."""
    return (lambda result: True) if req.kind in KNOWN_DEFECT_KINDS else None


def cli_ops(inp: CliInputs, reqs: list[CliRequest]) -> list[Op]:
    return [Op(req.kind, " ".join(req.argv),
               lambda r=req: run_cli_request(inp, r),
               lambda result, r=req: outcome_ok(r, *result),
               known_defect=cli_known_defect(req))
            for req in reqs]
