"""Span and counter tracing of the commdyn layers, installed from outside.

Nothing under src/ knows about this module.  `Tracer.install` replaces
chosen public functions and class methods with wrappers: a function is
rebound in every commdyn module whose namespace holds it (a
`from .polynomial import gcd_univariate` copies the binding, so the
defining module alone is not enough), and a method is replaced on its
class.  `uninstall` puts every original back.

Spans are timed; field operations are only counted, so their cost lands
in the self time of the calling span.  A span's self time is its
duration minus the durations of its direct child spans.  Spans are
aggregated in memory per name and per (parent, child) edge.
"""

from __future__ import annotations

import math
import sys
import time
from collections import defaultdict

# (module, attribute path, span name).  A dotted path names a class method.
SPANS = (
    ("polynomial", "gcd_univariate", "polynomial.gcd_univariate"),
    ("polynomial", "resultant", "polynomial.resultant"),
    ("polynomial", "gcd_bivariate", "polynomial.gcd_bivariate"),
    ("polynomial", "resultant_eliminate", "polynomial.resultant_eliminate"),
    ("polynomial", "nullspace", "polynomial.nullspace"),
    ("polynomial", "lagrange_interpolate", "polynomial.lagrange_interpolate"),
    ("ratmap", "RationalMap.compose", "ratmap.compose"),
    ("ratmap", "RationalMap.iterate", "ratmap.iterate"),
    ("ritt", "ritt_sequence", "ritt.ritt_sequence"),
    ("ritt", "luroth_generator", "ritt.luroth_generator"),
    ("ritt", "left_factor", "ritt.left_factor"),
    ("ritt", "common_iterate_equal_degree", "ritt.common_iterate_equal_degree"),
    ("correspondence", "graph", "correspondence.graph"),
    ("correspondence", "compose_graphs", "correspondence.compose_graphs"),
    ("correspondence", "orbit_closure", "correspondence.orbit_closure"),
    ("periodic", "periodic_polynomial", "periodic.periodic_polynomial"),
    ("periodic", "exact_period_polynomial", "periodic.exact_period_polynomial"),
    ("periodic", "multiplier_spectrum", "periodic.multiplier_spectrum"),
    ("periodic", "verify_multiplier_identity", "periodic.verify_multiplier_identity"),
    ("periodic", "common_fixed_points", "periodic.common_fixed_points"),
    ("exponents", "lyapunov_estimate", "exponents.lyapunov_estimate"),
    ("exponents", "characteristic_exponents", "exponents.characteristic_exponents"),
    ("exponents", "exceptionality_probe", "exponents.exceptionality_probe"),
    ("correspondence", "_np_roots", "exponents.np_roots"),
    ("semigroup", "orbit", "semigroup.orbit"),
    ("semigroup", "action_table", "semigroup.action_table"),
    ("semigroup", "verify_identity_eq8", "semigroup.verify_identity_eq8"),
    ("parsing", "parse_map", "parsing.parse_map"),
    ("cli", "main", "cli.main"),
)


class _Stat:
    __slots__ = ("calls", "total", "self_time")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.self_time = 0.0


class Tracer:
    """Per-layer spans, counters and peaks for one traced pass."""

    def __init__(self):
        self.spans: dict[str, _Stat] = defaultdict(_Stat)
        self.edges: dict[tuple[str, str], _Stat] = defaultdict(_Stat)
        self.counts: dict[str, int] = defaultdict(int)
        self.peaks: dict[str, int] = defaultdict(int)
        self._stack: list[list] = []
        self._restore: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------------

    def peak(self, name: str, value: int) -> None:
        if value > self.peaks[name]:
            self.peaks[name] = value

    def _span(self, name, fn, after=None):
        stack, spans, edges = self._stack, self.spans, self.edges

        def wrapper(*args, **kwargs):
            frame = [name, 0.0]
            parent = stack[-1] if stack else None
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                stack.pop()
                stat = spans[name]
                stat.calls += 1
                stat.total += elapsed
                stat.self_time += elapsed - frame[1]
                if parent is not None:
                    parent[1] += elapsed
                    edge = edges[(parent[0], name)]
                    edge.calls += 1
                    edge.total += elapsed
            if after is not None:
                after(args, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def _hook(self, fn, after):
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            after(args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    # -- installation ----------------------------------------------------------

    def _replace(self, owner, attr: str, new) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def _rebind_everywhere(self, original, new) -> None:
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "commdyn" or mod_name.startswith("commdyn.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._replace(mod, attr, new)

    def install(self) -> None:
        import commdyn.cli  # noqa: F401  (loads every module that gets patched)
        from commdyn import exponents, periodic
        from commdyn.exactfield import FieldElement

        after = {
            "polynomial.gcd_univariate": self._after_gcd,
            "polynomial.resultant": self._after_resultant,
            "polynomial.lagrange_interpolate": self._after_interpolate,
            "ratmap.compose": self._after_compose,
            "correspondence.graph": self._after_curve,
            "correspondence.compose_graphs": self._after_curve,
            "correspondence.orbit_closure": self._after_closure,
            "semigroup.orbit": self._after_orbit,
        }
        for module, path, name in SPANS:
            mod = sys.modules[f"commdyn.{module}"]
            if "." in path:
                cls_name, meth = path.split(".")
                cls = getattr(mod, cls_name)
                self._replace(cls, meth, self._span(name, vars(cls)[meth], after.get(name)))
            else:
                original = getattr(mod, path)
                self._rebind_everywhere(original, self._span(name, original, after.get(name)))

        # counted, not timed
        self._replace(exponents, "_cycle_survey",
                      self._hook(exponents._cycle_survey, self._after_cycle_survey))
        self._replace(periodic, "random_mobius",
                      self._hook(periodic.random_mobius, self._after_retry))
        mul, inverse = FieldElement.__mul__, FieldElement.inverse
        counts, peak = self.counts, self.peak

        def counted_mul(a, b):
            kb = b.conductor if isinstance(b, FieldElement) else 1
            if a.conductor == 1 and kb == 1:
                counts["exactfield.mul.k1"] += 1
            else:
                counts["exactfield.mul.cyclo"] += 1
                peak("exactfield.conductor", math.lcm(a.conductor, kb))
            return mul(a, b)

        def counted_inverse(a):
            counts["exactfield.inverse"] += 1
            peak("exactfield.conductor", a.conductor)
            return inverse(a)

        self._replace(FieldElement, "__mul__", counted_mul)
        self._replace(FieldElement, "__rmul__", counted_mul)
        self._replace(FieldElement, "inverse", counted_inverse)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- result hooks ------------------------------------------------------------

    def _after_gcd(self, args, result) -> None:
        self.peak("polynomial.degree", max(args[0].degree, args[1].degree))
        if result.degree > 0:
            self.counts["polynomial.gcd_univariate.nontrivial"] += 1

    def _after_resultant(self, args, result) -> None:
        self.peak("polynomial.degree", max(args[0].degree, args[1].degree))

    def _after_interpolate(self, args, result) -> None:
        self.peak("polynomial.degree", result.degree)

    def _after_compose(self, args, result) -> None:
        self.peak("ratmap.compose.degree", result.degree)

    def _after_curve(self, args, result) -> None:
        self.peak("correspondence.bidegree", sum(result.bidegree))

    def _after_closure(self, args, result) -> None:
        self._after_curve(args, result[0])

    def _after_orbit(self, args, result) -> None:
        self.counts["semigroup.orbit.points"] += len(result.points)

    def _after_cycle_survey(self, args, result) -> None:
        reports, skipped = result
        self.counts["exponents.cycle_clusters"] += len(reports) + skipped
        self.counts["exponents.cycle_skipped"] += skipped

    def _after_retry(self, args, result) -> None:
        self.counts["periodic.conjugation_retries"] += 1

    # -- report --------------------------------------------------------------------

    def self_s(self, name: str) -> float:
        return self.spans[name].self_time if name in self.spans else 0.0

    def calls(self, name: str) -> int:
        return self.spans[name].calls if name in self.spans else 0

    def edge(self, parent: str, child: str) -> _Stat:
        return self.edges[(parent, child)] if (parent, child) in self.edges else _Stat()

    def layer_metrics(self) -> dict[str, tuple[float, str]]:
        """Every span-derived per-layer metric, as name -> (value, unit)."""
        c, s, n = self.counts, self.self_s, self.calls
        gcd_calls = n("polynomial.gcd_univariate")
        clusters = c["exponents.cycle_clusters"]
        out = {
            "exactfield.mul.k1.count": (c["exactfield.mul.k1"], "count"),
            "exactfield.mul.cyclo.count": (c["exactfield.mul.cyclo"], "count"),
            "exactfield.inverse.count": (c["exactfield.inverse"], "count"),
            "exactfield.peak_conductor": (self.peaks["exactfield.conductor"] or 1, "count"),
            "polynomial.gcd_univariate.calls": (gcd_calls, "count"),
            "polynomial.gcd_univariate.nontrivial_ratio": (
                c["polynomial.gcd_univariate.nontrivial"] / gcd_calls if gcd_calls else 0.0,
                "ratio"),
            "polynomial.resultant.calls": (n("polynomial.resultant"), "count"),
            "polynomial.peak_degree": (self.peaks["polynomial.degree"], "count"),
            "ratmap.compose.calls": (n("ratmap.compose"), "count"),
            "ratmap.compose.gcd_s": (
                self.edge("ratmap.compose", "polynomial.gcd_univariate").total, "s"),
            "ratmap.compose.peak_degree": (self.peaks["ratmap.compose.degree"], "count"),
            "ratmap.iterate.calls": (n("ratmap.iterate"), "count"),
            "ritt.luroth_generator.calls": (n("ritt.luroth_generator"), "count"),
            "correspondence.orbit_closure.iterations": (
                self.edge("correspondence.orbit_closure",
                          "correspondence.compose_graphs").calls, "count"),
            "correspondence.peak_bidegree": (self.peaks["correspondence.bidegree"], "count"),
            "periodic.conjugation_retries": (c["periodic.conjugation_retries"], "count"),
            "exponents.np_roots.calls": (n("exponents.np_roots"), "count"),
            "exponents.cycle_skip_ratio": (
                c["exponents.cycle_skipped"] / clusters if clusters else 0.0, "ratio"),
            "semigroup.orbit.points": (c["semigroup.orbit.points"], "count"),
            "parsing.parse_map.calls": (n("parsing.parse_map"), "count"),
        }
        for name in ("polynomial.gcd_univariate", "polynomial.resultant",
                     "polynomial.gcd_bivariate", "polynomial.resultant_eliminate",
                     "polynomial.nullspace", "polynomial.lagrange_interpolate",
                     "ratmap.compose", "ritt.ritt_sequence", "ritt.left_factor",
                     "correspondence.orbit_closure", "periodic.periodic_polynomial",
                     "periodic.multiplier_spectrum", "periodic.verify_multiplier_identity",
                     "exponents.lyapunov_estimate", "exponents.characteristic_exponents",
                     "exponents.np_roots", "semigroup.orbit",
                     "semigroup.verify_identity_eq8", "parsing.parse_map", "cli.main"):
            out[f"{name}.self_s"] = (s(name), "s")
        return out
