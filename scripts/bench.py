#!/usr/bin/env python3
"""Write a BENCH_<n>.json file of end-to-end and layer timings.

    python3 scripts/bench.py BENCH_<n>.json

Run from the root of a source checkout; commdyn is imported from src/.
The file records the machine, the line count of src/commdyn, start-up
(the median over 7 fresh processes of `import commdyn.cli` and of
`python -m commdyn.cli gen chebyshev 3`, and whether each imported
numpy), the wall time of `commdyn golden`, acceptance criteria 02, 06,
10 and 11, the layer table of perfbench/micro.py, Polynomial products by
degree and conductor, resultants of dense operands with entries in
[-99, 99] (degree 8 and 16 at conductors 1, 3 and 12, and degree 32 at
conductor 1), the numeric layer (Lyapunov estimates at depth 24 and breadth 128 on T_3 and
a Lattes map; cycle exponents of z^2 - 1 and z^2 up to period 4 and of the
survey cubic (3z^3 + z^2 + 2z - 4)/(-4z^3 + 3z^2 + 1) up to period 3; the
survey's tail query, exceptionality_probe of both survey Lattes maps up
to period 3 at depth 24 and breadth 128), the constructors chebyshev(1000)
and lattes_flexible(10, 0, 1), multiplier
spectra (both survey Lattes maps at n = 2; z^2, T_2, T_3 and
(z^3 + 1)/(z^2 + 3) at n = 3), and a fixed pure-Python reference loop,
timed before and after the rest, so that a slower machine can be told
from a slower program.  Every timing is the minimum over a few repeats;
the host's speed drifts, so compare two commits only through runs taken
alternately on one machine.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import time
from fractions import Fraction

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

CRITERIA = ("test_criterion_02_commutation_and_common_iterate",
            "test_criterion_06_multiplier_divisibility",
            "test_criterion_10_exponent_probes",
            "test_criterion_11_interleaved_identity")


def _best(fn, number: int = 1, repeat: int = 3) -> float:
    """Minimum over repeats of the mean time of one call, in seconds."""
    best = float("inf")
    for _ in range(repeat):
        start = time.perf_counter()
        for _ in range(number):
            fn()
        best = min(best, (time.perf_counter() - start) / number)
    return best


def _reference_loop() -> float:
    def loop():
        total = 0
        for i in range(200_000):
            total += i * i % 7
    return _best(loop, 1, 5)


def _machine() -> dict:
    try:
        commit = subprocess.run(["git", "describe", "--always", "--dirty"], cwd=ROOT,
                                text=True, capture_output=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = None
    package = os.path.join(SRC, "commdyn")
    lines = 0
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            with open(os.path.join(package, name)) as fh:
                lines += sum(1 for _ in fh)
    return {"python": platform.python_version(), "machine": platform.machine(),
            "system": platform.platform(), "cpus": os.cpu_count(),
            "commit": commit, "src_lines": lines}


STARTUP = {"import_commdyn_cli": ["-c", "import commdyn.cli"],
           "gen_chebyshev_3": ["-m", "commdyn.cli", "gen", "chebyshev", "3"]}


def _startup() -> dict:
    """Median wall time of 7 fresh processes each, and whether numpy was imported."""
    env = dict(os.environ, PYTHONPATH=SRC)

    def run(*args):
        return subprocess.run([sys.executable, *args], cwd=ROOT, env=env, check=True,
                              capture_output=True, text=True)

    out = {}
    for name, args in STARTUP.items():
        times = []
        for _ in range(7):
            start = time.perf_counter()
            run(*args)
            times.append(time.perf_counter() - start)
        out[f"{name}.s"] = statistics.median(times)
        imported = run("-X", "importtime", *args).stderr.splitlines()
        out[f"{name}.numpy_loaded"] = any(line.rsplit("|", 1)[-1].strip() == "numpy"
                                          for line in imported)
    return out


def _golden_seconds() -> float:
    env = dict(os.environ, PYTHONPATH=SRC)

    def golden():
        subprocess.run([sys.executable, "-m", "commdyn.cli", "golden"], cwd=ROOT,
                       env=env, check=True, capture_output=True)
    return _best(golden, 1, 3)


def _criteria() -> dict:
    import test_acceptance

    return {name: _best(getattr(test_acceptance, name), 1, 2) for name in CRITERIA}


def _polynomial_products() -> dict:
    from commdyn.exactfield import FieldElement, euler_phi, zeta
    from commdyn.polynomial import Polynomial

    rng = random.Random(20261018)

    def dense(k, degree):
        coeffs = [FieldElement(k, [Fraction(rng.randint(-9, 9), rng.randint(1, 4))
                                   for _ in range(euler_phi(k))]) for _ in range(degree)]
        return Polynomial(coeffs + [FieldElement(k, [rng.randint(1, 9)] * euler_phi(k))])

    out = {}
    for k in (1, 3, 12):
        for degree in (1, 3, 16, 64):
            p, q = dense(k, degree), dense(k, degree)
            number = max(1, 400 // (degree * degree))
            out[f"k{k}.d{degree}.ms"] = _best(lambda: p * q, number, 3) * 1e3
    z13 = Polynomial.variable() ** 13
    twist = Polynomial([FieldElement.zero()] * 13 + [zeta(12) ** 5])
    out["z13_times_zeta12_twist.ms"] = _best(lambda: z13 * twist, 200, 3) * 1e3
    return out


def _resultants() -> dict:
    from commdyn.exactfield import FieldElement, euler_phi
    from commdyn.polynomial import Polynomial, resultant

    rng = random.Random(20261019)

    def dense(k, degree):
        def entry():
            return FieldElement(k, [rng.randint(-99, 99) for _ in range(euler_phi(k))])
        lead = entry()
        while lead.is_zero():
            lead = entry()
        return Polynomial([entry() for _ in range(degree)] + [lead])

    out = {}
    for k, degree in ((1, 8), (1, 16), (1, 32), (3, 8), (3, 16), (12, 8), (12, 16)):
        p, q = dense(k, degree), dense(k, degree)
        out[f"k{k}.d{degree}.ms"] = _best(lambda: resultant(p, q), 1, 3) * 1e3
    return out


def _numeric() -> dict:
    import commdyn as cd

    t3 = cd.chebyshev(3)
    lattes = cd.lattes_flexible(2, cd.rational(0), cd.rational(1))
    lattes_m1_0 = cd.lattes_flexible(2, cd.rational(-1), cd.rational(0))
    basilica = cd.parse_map("z^2 - 1")
    square = cd.parse_map("z^2")
    cubic = cd.parse_map("(3*z^3 + z^2 + 2*z - 4)/(-4*z^3 + 3*z^2 + 1)")
    return {
        "lyapunov_estimate.T3.d24.b128.s": _best(
            lambda: cd.lyapunov_estimate(t3, depth=24, breadth=128), 1, 3),
        "lyapunov_estimate.lattes_0_1.d24.b128.s": _best(
            lambda: cd.lyapunov_estimate(lattes, depth=24, breadth=128), 1, 3),
        "characteristic_exponents.z2_minus_1.n4.s": _best(
            lambda: cd.characteristic_exponents(basilica, 4), 1, 3),
        "characteristic_exponents.z2.n4.s": _best(
            lambda: cd.characteristic_exponents(square, 4), 1, 3),
        "characteristic_exponents.survey_cubic.n3.s": _best(
            lambda: cd.characteristic_exponents(cubic, 3), 1, 3),
        "exceptionality_probe.lattes_0_1.n3.d24.b128.s": _best(
            lambda: cd.exceptionality_probe(lattes, n_max=3, depth=24, breadth=128), 1, 3),
        "exceptionality_probe.lattes_m1_0.n3.d24.b128.s": _best(
            lambda: cd.exceptionality_probe(lattes_m1_0, n_max=3, depth=24, breadth=128),
            1, 3),
    }


def _constructors() -> dict:
    import commdyn as cd

    return {"chebyshev.d1000.s": _best(lambda: cd.chebyshev(1000), 1, 3),
            "lattes_flexible.m10.s": _best(lambda: cd.lattes_flexible(10, 0, 1), 1, 3)}


def _spectra() -> dict:
    import commdyn as cd

    panel = {"lattes_0_1.n2": (cd.lattes_flexible(2, cd.rational(0), cd.rational(1)), 2),
             "lattes_m1_0.n2": (cd.lattes_flexible(2, cd.rational(-1), cd.rational(0)), 2),
             "z2.n3": (cd.parse_map("z^2"), 3),
             "T2.n3": (cd.chebyshev(2), 3),
             "T3.n3": (cd.chebyshev(3), 3),
             "z3_plus_1_over_z2_plus_3.n3": (cd.parse_map("(z^3 + 1)/(z^2 + 3)"), 3)}
    return {f"multiplier_spectrum.{name}.s": _best(lambda: cd.multiplier_spectrum(f, n), 1, 2)
            for name, (f, n) in panel.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("out", help="the JSON file to write, BENCH_<n>.json")
    out = parser.parse_args(argv).out
    sys.path[:0] = [SRC, ROOT, os.path.join(ROOT, "tests")]
    from perfbench import micro

    report = {"machine": _machine(), "reference_loop_s": [_reference_loop()]}
    report["startup"] = _startup()
    report["golden_s"] = _golden_seconds()
    report["criteria_s"] = _criteria()
    report["micro"] = {name: {"value": value, "unit": unit}
                       for name, (value, unit) in micro.run().items()}
    report["polynomial_mul"] = _polynomial_products()
    report["resultant"] = _resultants()
    report["numeric"] = _numeric()
    report["constructors"] = _constructors()
    report["spectra"] = _spectra()
    report["reference_loop_s"].append(_reference_loop())
    with open(out, "w") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")
    print(json.dumps(report, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
