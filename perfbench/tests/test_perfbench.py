"""Tests of the benchmark itself: determinism, oracles, output contract.

Run from the repository root with

    python -m pytest perfbench/tests
"""

import json
import os
import random
import shutil
import subprocess
import sys
from fractions import Fraction

import pytest
import sympy

from perfbench import oracles, run, workloads
from perfbench.tracer import Tracer

ROOT = run.ROOT


def _labels(workload, seed, rounds=2):
    if workload == "cyclotomic-pairs":
        inputs = workloads.pairs_setup(seed)
        return [[op.label for op in workloads.pairs_round(inputs, seed, r)]
                for r in range(rounds)]
    if workload == "survey":
        inputs = workloads.survey_setup(seed)
        return [[op.label for op in workloads.survey_round(inputs, seed, r)]
                for r in range(rounds)]
    inputs = workloads.CliInputs(ROOT, "WORK", {})
    return [[" ".join(req.argv) for req in workloads.cli_round(inputs, seed, r)]
            for r in range(rounds)]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_same_operations(workload):
    first = _labels(workload, 11)
    assert first == _labels(workload, 11)
    assert first != _labels(workload, 12)
    assert first[0] != first[1]  # rounds draw fresh parameters


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_rounds_keep_the_same_mix(workload):
    def kinds(seed):
        if workload == "cyclotomic-pairs":
            ops = workloads.pairs_round(workloads.pairs_setup(seed), seed, 0)
            return sorted(op.kind for op in ops)
        if workload == "survey":
            ops = workloads.survey_round(workloads.survey_setup(seed), seed, 0)
            return sorted(op.kind for op in ops)
        inputs = workloads.CliInputs(ROOT, "WORK", {})
        reqs = workloads.cli_round(inputs, seed, 0)
        # the malformed kinds are a seeded selection of a fixed size
        return (len(reqs), sorted(r.kind for r in reqs if r.code == 0
                                  or r.kind in workloads.KNOWN_DEFECT_KINDS))

    assert kinds(1) == kinds(2)


def _deterministic(metrics):
    """Counters, peaks and ratios of counts: everything but the timers."""
    return {name: value for name, (value, unit) in metrics.items()
            if unit in ("count", "ratio") and name != "trace.overhead_ratio"}


def _traced_counters(ops):
    for op in ops:  # warm the caches as the traced run does
        op.run()
    with Tracer() as tracer:
        for op in ops:
            assert op.check(op.run()), op.label
    return _deterministic(tracer.layer_metrics())


def test_traced_counters_repeat_for_pairs():
    def cheap_ops():
        ops = workloads.pairs_round(workloads.pairs_setup(5), 5, 0)
        return [op for op in ops if "quartic" not in op.label
                and "conjugate" not in op.label and "k=12" not in op.label]

    first = _traced_counters(cheap_ops())
    assert first == _traced_counters(cheap_ops())
    assert first["exactfield.mul.cyclo.count"] > 0
    assert first["ratmap.compose.calls"] > 0


def test_traced_counters_repeat_for_survey():
    cheap = ("periodic_polynomial", "exact_period_polynomial", "orbit",
             "action_table", "characteristic_exponents")

    def cheap_ops():
        ops = workloads.survey_round(workloads.survey_setup(5), 5, 0)
        picked = [op for op in ops if op.kind in cheap and "lattes" not in op.label]
        picked += [op for op in ops if op.kind == "lyapunov_estimate"][:1]
        return picked

    first = _traced_counters(cheap_ops())
    assert first == _traced_counters(cheap_ops())
    assert first["exponents.np_roots.calls"] > 0
    assert first["semigroup.orbit.points"] > 0


def test_traced_counters_repeat_for_cli_replay():
    inputs = workloads.cli_setup(5, ROOT)

    def replay():
        codes = []
        ops = run.make_round("cli-requests", inputs, 5, 0, codes)
        with Tracer() as tracer:
            for op in ops:
                op.run()
        return _deterministic(tracer.layer_metrics()), codes

    first = replay()
    assert first == replay()
    assert first[0]["parsing.parse_map.calls"] > 0


def test_tracer_restores_every_binding():
    import commdyn
    from commdyn import polynomial, ratmap
    from commdyn.exactfield import FieldElement

    before = (polynomial.gcd_univariate, ratmap.gcd_univariate,
              ratmap.RationalMap.compose, FieldElement.__mul__, commdyn.parse_map)
    with Tracer():
        assert ratmap.gcd_univariate is not before[1]
        assert ratmap.gcd_univariate is polynomial.gcd_univariate
    after = (polynomial.gcd_univariate, ratmap.gcd_univariate,
             ratmap.RationalMap.compose, FieldElement.__mul__, commdyn.parse_map)
    assert before == after


def test_self_time_excludes_children():
    import commdyn as cd

    g = cd.chebyshev(3)
    with Tracer() as tracer:
        g.compose(g)
    compose = tracer.spans["ratmap.compose"]
    gcd = tracer.spans["polynomial.gcd_univariate"]
    assert compose.calls == 1 and gcd.calls >= 1
    assert compose.self_time == pytest.approx(compose.total - gcd.total, abs=1e-9)


# -- oracles against sympy ------------------------------------------------------


def _sympy_chebyshev(d, x):
    prev, cur = sympy.Integer(2), x
    for _ in range(d - 1):
        prev, cur = cur, sympy.expand(x * cur - prev)
    return cur if d >= 1 else prev


def _sympy_spectrum(f, x, n):
    """Monic multiplier polynomial of the period-n points of the map f(x).

    The map is first conjugated by z -> 1/z + 3, which leaves multipliers
    unchanged and moves every period-n point into the affine line unless
    3 is one of them, which none of the maps used here allows.
    """
    w = sympy.Symbol("w")
    f = sympy.cancel(1 / (f.subs(x, 1 / x + 3) - 3))
    it = x
    for _ in range(n):
        it = sympy.cancel(f.subs(x, it))
    top, bottom = sympy.fraction(it)
    fixed = sympy.expand(x * bottom - top)
    dn, dd = sympy.fraction(sympy.cancel(sympy.diff(top / bottom, x)))
    poly = sympy.Poly(sympy.resultant(fixed, w * dd - dn, x), w)
    return [Fraction(int(c.p), int(c.q)) for c in reversed(poly.monic().all_coeffs())]


def _sympy_map(f, x):
    def poly(p):
        return sum(sympy.Rational(c.numerator, c.denominator) * x ** i
                   for i, c in enumerate(workloads._coeffs(p)))
    return poly(f.num) / poly(f.den)


def test_rigid_spectra_match_sympy():
    x = sympy.Symbol("x")
    for d, n in ((2, 1), (2, 2), (3, 1)):
        assert oracles.power_spectrum(d, n) == _sympy_spectrum(x ** d, x, n)
        assert oracles.chebyshev_spectrum(d, n) == _sympy_spectrum(_sympy_chebyshev(d, x), x, n)


def test_lattes_spectrum_matches_sympy():
    import commdyn as cd

    x = sympy.Symbol("x")
    for a, b in workloads._LATTES_CURVES[:3]:
        f = cd.lattes_flexible(2, cd.rational(a), cd.rational(b))
        assert oracles.lattes_spectrum(1) == _sympy_spectrum(_sympy_map(f, x), x, 1)


def test_generated_random_spectra_match_sympy():
    import commdyn as cd

    x = sympy.Symbol("x")
    rng = random.Random(3)
    for d in (2, 2, 3):
        f, _ = workloads._random_equal_degree_map(cd, rng, d)
        got = workloads._coeffs(cd.multiplier_spectrum(f, 1))
        assert got == _sympy_spectrum(_sympy_map(f, x), x, 1)
        assert oracles.holomorphic_index_holds(got) is not False


def test_resultants_match_sympy():
    import commdyn as cd
    from commdyn.polynomial import resultant

    x = sympy.Symbol("x")
    rng = random.Random(7)
    for degree in (3, 8, 16):
        p = [rng.randint(-9, 9) for _ in range(degree)] + [rng.randint(1, 9)]
        q = [rng.randint(-9, 9) for _ in range(degree - 1)] + [rng.randint(1, 9)]
        got = resultant(cd.Polynomial.from_ints(p), cd.Polynomial.from_ints(q)).as_fraction()
        want = sympy.resultant(sum(c * x ** i for i, c in enumerate(p)),
                               sum(c * x ** i for i, c in enumerate(q)), x)
        assert got == Fraction(int(want))


def test_chebyshev_fixed_counts_match_sympy():
    x = sympy.Symbol("x")
    for d in range(2, 6):
        for e in range(2, 6):
            shared = sympy.gcd(_sympy_chebyshev(d, x) - x, _sympy_chebyshev(e, x) - x)
            count = sympy.Poly(shared, x).degree() + 1  # plus infinity
            assert oracles.chebyshev_common_fixed_count(d, e) == count


def test_exact_period_counts():
    assert [oracles.exact_period_count(2, n) for n in (1, 2, 3, 4)] == [3, 2, 6, 12]
    assert oracles.exact_period_count(3, 2) == 6


def test_parabolic_collisions():
    # z^2 - 3/4 has the fixed point -1/2 with multiplier -1
    assert oracles.parabolic_collisions([Fraction(-3, 4), 0, 1], [1], 2) == 2
    assert oracles.parabolic_collisions([-2, 0, 1], [1], 2) == 0
    # a random cubic whose fixed point 0 has multiplier -1 keeps 4 of the
    # 6 period-2 points that the Mobius count gives
    num, den = [0, -1, -4, -3], [1, 1, 2, -3]
    assert oracles.parabolic_collisions(num, den, 2) == 2
    import commdyn as cd

    f = cd.RationalMap(cd.Polynomial.from_ints(num), cd.Polynomial.from_ints(den))
    spec = cd.exact_period_polynomial(f, 2)
    assert spec.phi.degree + spec.infinity_is_periodic == 6 - 2


def test_root_of_unity_orbit():
    order, rows = oracles.root_of_unity_orbit(21, 3, [(2, 0), (1, 7)])
    assert order[0] == 3 and len(order) == len(set(order))
    assert rows[0] == tuple(order.index(2 * e % 21) for e in order)
    assert rows[1] == tuple(order.index((e + 7) % 21) for e in order)


def test_tail_percentile_keeps_ten_samples_beyond():
    samples = list(range(100))
    pct, value = run.tail_percentile(samples)
    assert sum(1 for s in samples if s > value) >= 10
    assert pct == 90


# -- the output contract ------------------------------------------------------------


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".work"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path / "BENCHMARK.json")
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "survey",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


def test_benchmark_json_lists_what_runs_print():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    layer_names = {m["name"] for m in spec["per_layer"]}
    tracer_names = set(Tracer().layer_metrics())
    assert tracer_names <= layer_names
