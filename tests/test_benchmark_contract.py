"""The names the benchmark's tracer patches, checked from the program's side.

perfbench/tracer.py wraps commdyn functions and methods by module and
attribute name, and the traced benchmark run fails if one of them is
renamed or moved.  These tests import the tracer read-only, as
scripts/bench.py does, so such a rename fails here first.
"""

import os
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
if ROOT not in sys.path:
    sys.path.insert(0, ROOT)

import commdyn  # noqa: E402
from commdyn.correspondence import Correspondence, point_orbit  # noqa: E402
from commdyn.exactfield import FieldElement  # noqa: E402
from commdyn.exponents import characteristic_exponents, lyapunov_estimate  # noqa: E402
from commdyn.parsing import parse_map  # noqa: E402
from commdyn.periodic import multiplier_spectrum  # noqa: E402
from perfbench.tracer import SPANS, Tracer  # noqa: E402


def _commdyn_modules():
    return {name: mod for name, mod in sys.modules.items()
            if mod is not None and (name == "commdyn" or name.startswith("commdyn."))}


def test_every_span_resolves():
    import commdyn.cli  # noqa: F401  (loads every module the tracer patches)

    for module, path, _ in SPANS:
        owner = sys.modules[f"commdyn.{module}"]
        for attr in path.split("."):
            owner = getattr(owner, attr)
        assert callable(owner), (module, path)


BASILICA = parse_map("z^2 - 1")


@pytest.mark.parametrize("query", [
    lambda: lyapunov_estimate(BASILICA, depth=4, breadth=8),
    lambda: characteristic_exponents(BASILICA, 2),
    lambda: point_orbit(Correspondence(BASILICA, BASILICA), 0.5, budget=16),
], ids=["lyapunov_estimate", "characteristic_exponents", "point_orbit"])
def test_numeric_layer_is_traced(query):
    with Tracer() as tracer:
        query()
    assert tracer.calls("exponents.np_roots") > 0


def test_cycle_survey_is_counted():
    with Tracer() as tracer:
        reports = characteristic_exponents(BASILICA, 2)
    assert tracer.counts["exponents.cycle_clusters"] >= len(reports) > 0


def test_spectra_need_no_conjugation():
    lattes = commdyn.lattes_flexible(2, commdyn.rational(0), commdyn.rational(1))
    with Tracer() as tracer:
        multiplier_spectrum(parse_map("z^2"), 2)
        multiplier_spectrum(lattes, 1)
    assert tracer.counts["periodic.conjugation_retries"] == 0


def test_every_binding_is_restored():
    import commdyn.cli  # noqa: F401

    def snapshot():
        bindings = {(name, attr): value for name, mod in _commdyn_modules().items()
                    for attr, value in vars(mod).items()}
        for cls in (FieldElement, commdyn.RationalMap):
            bindings.update(((cls.__name__, attr), value) for attr, value in vars(cls).items())
        return bindings

    before = snapshot()
    with Tracer():
        assert FieldElement.__mul__ is not before[("FieldElement", "__mul__")]
        assert snapshot().keys() == before.keys()
    after = snapshot()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)
