"""Command line front end.

Subcommands mirror the library modules: gen (map constructors), ritt
(decomposition sequences), corr (graph curves and orbit closures), per
(periodic points and multipliers), exp (numeric exponents), orbit (finite
orbit exploration), identity (iterate identities), and golden (the exact
check gate).

Map arguments accept either a path to a file holding one map expression
or the expression itself.  Exit codes: 0 success, 1 golden-gate failure,
2 parse error, 3 budget exceeded, 4 precondition violated, 5 internal
error (a bug, reported in one line).
"""

import argparse
import json
import os
import sys
from dataclasses import dataclass, fields
from typing import Optional

from .correspondence import Correspondence, graph, orbit_closure, verify_lemma4
from .errors import (
    BudgetError,
    CommdynError,
    InputParseError,
    PreconditionError,
)
from .exactfield import CONDUCTOR_CAP
from .exceptional import chebyshev, lattes_flexible, power_map
from .exponents import exceptionality_probe, lyapunov_estimate
from .golden import run_golden_suite
from .parsing import parse_map, parse_point
from .periodic import (
    exact_period_polynomial,
    multiplier_spectrum,
    periodic_polynomial,
    verify_multiplier_identity,
)
from .ratmap import RationalMap, is_inf
from .ritt import common_iterate_equal_degree, ritt_sequence
from .semigroup import classifier_phi, orbit, verify_identity_eq8

FORMATS = ("text", "structured")


@dataclass(frozen=True)
class RunConfig:
    """Run-wide knobs shared by every subcommand.

    conductor caps the cyclotomic order accepted in input scalars;
    degree_cap bounds iterate degrees; the budgets bound decomposition
    steps, explored orbit points, and closure iterations.  Numeric
    settings feed the exponent estimators.
    """

    conductor: int = CONDUCTOR_CAP
    degree_cap: int = 5000
    ritt_steps: int = 32
    orbit_budget: int = 10_000
    kmax: int = 64
    depth: int = 24
    breadth: int = 256
    seed: int = 0
    format: str = "text"

    def __post_init__(self):
        for name in ("conductor", "degree_cap", "ritt_steps",
                     "orbit_budget", "kmax", "depth", "breadth"):
            if getattr(self, name) < 1:
                raise PreconditionError(f"{name} must be positive")
        if self.format not in FORMATS:
            raise PreconditionError(f"format must be one of {FORMATS}")


def load_config(path: str) -> dict:
    """Read `key = value` lines into a dict of RunConfig overrides."""
    names = {f.name for f in fields(RunConfig)}
    overrides = {}
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise InputParseError(f"cannot read config file: {exc}")
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise InputParseError(f"config line {lineno}: expected key = value")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key not in names:
            raise InputParseError(f"config line {lineno}: unknown key {key!r}")
        try:
            overrides[key] = value if key == "format" else int(value)
        except ValueError:
            raise InputParseError(f"config line {lineno}: bad value {value!r}")
    return overrides


def emit_report(result: dict, fmt: str = "text") -> str:
    """Deterministic serialization of a flat result mapping."""
    if fmt == "structured":
        return json.dumps(result, indent=2, sort_keys=True)
    lines = []
    for key, value in result.items():
        lines.append(f"{key}: {_text_value(value)}")
    return "\n".join(lines)


def _text_value(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if value is None:
        return "undefined"
    if isinstance(value, (list, tuple)):
        return "[" + ", ".join(_text_value(v) for v in value) + "]"
    if isinstance(value, dict):
        return json.dumps(value, sort_keys=True)
    return str(value)


# -- input loading -----------------------------------------------------------


def _read_or_inline(arg: str) -> str:
    if os.path.isfile(arg):
        try:
            with open(arg, "r", encoding="utf-8") as handle:
                return handle.read().strip()
        except OSError as exc:
            raise InputParseError(f"cannot read {arg}: {exc}")
    return arg


def _within_field(f: RationalMap, config: RunConfig) -> RationalMap:
    """f itself, once its coefficients are known to fit the conductor cap."""
    worst = max(poly.coeff(i).conductor
                for poly in (f.num, f.den) for i in range(poly.degree + 1))
    if worst > config.conductor:
        raise PreconditionError(
            f"map needs conductor {worst}, above the configured {config.conductor}")
    return f


def _load_map(arg: str, config: RunConfig) -> RationalMap:
    f = parse_map(_read_or_inline(arg), degree_cap=config.degree_cap)
    return _within_field(f, config)


def _load_scalar(arg: str, config: RunConfig):
    value = parse_point(arg, config.degree_cap)
    if is_inf(value):
        raise PreconditionError("expected a finite scalar")
    return value


def _load_generators(arg: str, config: RunConfig) -> list[RationalMap]:
    text = _read_or_inline(arg)
    chunks = []
    for raw in text.replace(";", "\n").splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            chunks.append(line)
    if not chunks:
        raise InputParseError("no generators found")
    return [_load_map(chunk, config) for chunk in chunks]


def _load_orbit_points(arg: str, config: RunConfig):
    text = _read_or_inline(arg)
    stripped = text.lstrip()
    if stripped.startswith("{"):
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise InputParseError(f"bad orbit file: {exc}")
        entries = data.get("points")
        if not (isinstance(entries, list)
                and all(isinstance(entry, str) for entry in entries)):
            raise InputParseError("orbit file needs a points list of strings")
    else:
        entries = [line.strip() for line in text.replace(";", "\n").splitlines()
                   if line.strip()]
    if not entries:
        raise InputParseError("no orbit points found")
    return [parse_point(entry, config.degree_cap) for entry in entries]


# -- command handlers --------------------------------------------------------


def _cmd_gen_chebyshev(args, config):
    t = _within_field(chebyshev(args.d, args.sign), config)
    return {"map": str(t), "degree": t.degree}, 0


def _cmd_gen_power(args, config):
    f = _within_field(power_map(args.d, inverse=args.inverse,
                                unity_order=args.zeta,
                                unity_exponent=args.exponent), config)
    return {"map": str(f), "degree": f.degree}, 0


def _cmd_gen_lattes(args, config):
    f = _within_field(lattes_flexible(args.m, _load_scalar(args.a, config),
                                      _load_scalar(args.b, config)), config)
    return {"map": str(f), "degree": f.degree}, 0


def _cmd_ritt_seq(args, config):
    f = _load_map(args.f, config)
    g = _load_map(args.g, config)
    seq = ritt_sequence(f, g, max_steps=config.ritt_steps,
                        min_steps=args.min_steps)
    steps = [
        {"index": i, "r": s.r, "outer_degree": s.a.degree,
         "inner_degree": s.u.degree, "pair_degree": s.f_step.degree}
        for i, s in enumerate(seq.steps)
    ]
    return {"steps": steps, "terminated": seq.terminated}, 0


def _cmd_ritt_common_iterate(args, config):
    f = _load_map(args.f, config)
    g = _load_map(args.g, config)
    p = common_iterate_equal_degree(f, g, max_steps=config.ritt_steps)
    return {"p": p, "degree": f.degree ** p}, 0


def _cmd_corr_graph(args, config):
    curve = graph(Correspondence(_load_map(args.a, config),
                                 _load_map(args.b, config)))
    return {"curve": str(curve.poly), "bidegree": list(curve.bidegree)}, 0


def _cmd_corr_closure(args, config):
    c = Correspondence(_load_map(args.a, config), _load_map(args.b, config))
    union, size = orbit_closure(c, k_max=config.kmax)
    return {"union": str(union.poly), "bidegree": list(union.bidegree),
            "orbit_size": size}, 0


def _cmd_corr_lemma4(args, config):
    report = verify_lemma4(_load_map(args.f, config),
                           _load_map(args.g, config),
                           max_steps=config.ritt_steps)
    return {"p": report.p, "d": report.d, "s_c": report.s_c,
            "bound": report.bound, "bound_ok": report.bound_ok}, 0


def _cmd_per_poly(args, config):
    f = _load_map(args.f, config)
    if args.exact:
        spec = exact_period_polynomial(f, args.n, degree_cap=config.degree_cap)
    else:
        spec = periodic_polynomial(f, args.n, degree_cap=config.degree_cap)
    return {"polynomial": str(spec.phi), "degree": spec.phi.degree,
            "includes_infinity": spec.infinity_is_periodic}, 0


def _cmd_per_multipliers(args, config):
    f = _load_map(args.f, config)
    poly = multiplier_spectrum(f, args.n, degree_cap=config.degree_cap)
    return {"polynomial": str(poly), "degree": poly.degree}, 0


def _cmd_per_eq2(args, config):
    holds = verify_multiplier_identity(
        _load_map(args.f, config), _load_map(args.g, config),
        args.n, args.p, degree_cap=config.degree_cap)
    return {"holds": holds, "n": args.n, "p": args.p}, 0


def _cmd_exp_lyapunov(args, config):
    f = _load_map(args.f, config)
    est = lyapunov_estimate(f, depth=config.depth, breadth=config.breadth,
                            seed=config.seed)
    return {"value": est.value, "std_error": est.std_error,
            "depth": est.depth, "breadth": est.breadth, "seed": est.seed}, 0


def _cmd_exp_probe(args, config):
    f = _load_map(args.f, config)
    rep = exceptionality_probe(f, n_max=args.nmax, depth=config.depth,
                               breadth=config.breadth, seed=config.seed)
    return {"verdict": rep.verdict, "count_above": rep.count_above,
            "cycles": len(rep.cycles), "skipped": rep.skipped,
            "lyapunov_value": rep.lyapunov.value,
            "lyapunov_std_error": rep.lyapunov.std_error,
            "seed": rep.lyapunov.seed}, 0


def _cmd_orbit_explore(args, config):
    gens = _load_generators(args.generators, config)
    start = parse_point(args.start, config.degree_cap)
    run = orbit(gens, start, budget=config.orbit_budget)
    return {"status": run.status, "size": len(run),
            "points": [str(p) for p in run.points]}, 0


def _cmd_orbit_phi(args, config):
    g = _load_map(args.g, config)
    reference = _load_map(args.reference, config)
    pts = _load_orbit_points(args.orbit, config)
    value = classifier_phi(g, reference, pts)
    if value is None:
        return {"result": "undefined"}, 0
    return {"residue": value.residue, "action": list(value.action)}, 0


def _cmd_identity_eq8(args, config):
    holds = verify_identity_eq8(
        _load_map(args.g, config), _load_map(args.h, config),
        args.N, degree_cap=config.degree_cap)
    return {"holds": holds, "N": args.N}, 0


def _cmd_golden(args, config):
    if args.list:
        from .golden import GOLDEN_CHECKS
        return {"checks": [c.name for c in GOLDEN_CHECKS]}, 0
    report = run_golden_suite(names=args.names or None)
    result = {
        "results": [
            {"name": r.name, "passed": r.passed, "message": r.message}
            for r in report.results
        ],
        "passed": report.passed,
        "failures": len(report.failures),
    }
    return result, 0 if report.passed else 1


# -- parser ------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    # Every run-wide flag is declared once, here, with dest set to its
    # RunConfig field.  The top parser and each leaf share these actions;
    # a suppressed default keeps a leaf from erasing a value given before
    # the subcommand, and a value given after it wins.
    shared = argparse.ArgumentParser(add_help=False,
                                     argument_default=argparse.SUPPRESS)
    shared.add_argument("--format", choices=FORMATS,
                        help="output format (default text)")
    shared.add_argument("--seed", type=int,
                        help="seed for randomized numerics")
    shared.add_argument("--field", dest="conductor", type=int, metavar="K",
                        help="largest cyclotomic conductor accepted in inputs")
    shared.add_argument("--config", metavar="FILE",
                        help="key = value settings file")
    shared.add_argument("--degree-cap", dest="degree_cap", type=int)
    shared.add_argument("--budget-ritt", "--max-steps", dest="ritt_steps",
                        type=int, help="decomposition step budget")
    shared.add_argument("--budget-orbit", "--budget", dest="orbit_budget",
                        type=int, help="orbit point budget")
    shared.add_argument("--budget-kmax", "--kmax", dest="kmax", type=int,
                        help="closure iteration budget")
    shared.add_argument("--depth", type=int,
                        help="pullback levels of the Lyapunov estimate")
    shared.add_argument("--breadth", type=int,
                        help="preimage branches kept per level")

    parser = argparse.ArgumentParser(
        prog="commdyn",
        description="Exact and numeric tools for commuting rational maps.",
        parents=[shared])
    groups = parser.add_subparsers(dest="group", required=True)

    def leaf(group, name, handler, help_text):
        sub = group.add_parser(name, parents=[shared], help=help_text)
        sub.set_defaults(handler=handler)
        return sub

    gen = groups.add_parser("gen", help="construct standard maps").add_subparsers(
        dest="command", required=True)
    sub = leaf(gen, "chebyshev", _cmd_gen_chebyshev, "degree-d Chebyshev map")
    sub.add_argument("d", type=int)
    sub.add_argument("--sign", type=int, choices=(1, -1), default=1)
    sub = leaf(gen, "power", _cmd_gen_power, "scaled power map")
    sub.add_argument("d", type=int)
    sub.add_argument("--zeta", dest="zeta", type=int, default=1,
                     metavar="K", help="order of the root-of-unity factor")
    sub.add_argument("--exponent", type=int, default=1)
    sub.add_argument("--inverse", action="store_true")
    sub = leaf(gen, "lattes", _cmd_gen_lattes, "curve duplication map")
    sub.add_argument("m", type=int)
    sub.add_argument("a")
    sub.add_argument("b")

    ritt = groups.add_parser("ritt", help="decomposition sequences").add_subparsers(
        dest="command", required=True)
    sub = leaf(ritt, "seq", _cmd_ritt_seq, "shared-inner-factor sequence")
    sub.add_argument("f")
    sub.add_argument("g")
    sub.add_argument("--min-steps", type=int, default=0)
    sub = leaf(ritt, "common-iterate", _cmd_ritt_common_iterate,
               "smallest p with equal p-th iterates")
    sub.add_argument("f")
    sub.add_argument("g")

    corr = groups.add_parser("corr", help="graph correspondences").add_subparsers(
        dest="command", required=True)
    sub = leaf(corr, "graph", _cmd_corr_graph, "graph curve of b after a-inverse")
    sub.add_argument("a")
    sub.add_argument("b")
    sub = leaf(corr, "closure", _cmd_corr_closure, "stabilized orbit union")
    sub.add_argument("a")
    sub.add_argument("b")
    sub = leaf(corr, "lemma4", _cmd_corr_lemma4,
               "first-step orbit size against the p * d^p bound")
    sub.add_argument("f")
    sub.add_argument("g")

    per = groups.add_parser("per", help="periodic points").add_subparsers(
        dest="command", required=True)
    sub = leaf(per, "poly", _cmd_per_poly, "periodic point polynomial")
    sub.add_argument("f")
    sub.add_argument("n", type=int)
    sub.add_argument("--exact", action="store_true",
                     help="restrict to exact period n")
    sub = leaf(per, "multipliers", _cmd_per_multipliers,
               "characteristic polynomial of fixed-point multipliers")
    sub.add_argument("f")
    sub.add_argument("n", type=int)
    sub = leaf(per, "eq2", _cmd_per_eq2, "multiplier divisibility identity")
    sub.add_argument("f")
    sub.add_argument("g")
    sub.add_argument("n", type=int)
    sub.add_argument("p", type=int)

    exp = groups.add_parser("exp", help="numeric exponents").add_subparsers(
        dest="command", required=True)
    sub = leaf(exp, "lyapunov", _cmd_exp_lyapunov, "Lyapunov exponent estimate")
    sub.add_argument("f")
    sub = leaf(exp, "probe", _cmd_exp_probe, "cycle exponents against the estimate")
    sub.add_argument("f")
    sub.add_argument("--nmax", type=int, default=5)

    orbit_group = groups.add_parser(
        "orbit", help="finite orbit exploration").add_subparsers(
        dest="command", required=True)
    sub = leaf(orbit_group, "explore", _cmd_orbit_explore,
               "breadth-first closure under generators")
    sub.add_argument("generators", help="file with one map per line, or inline")
    sub.add_argument("--start", required=True)
    sub = leaf(orbit_group, "phi", _cmd_orbit_phi,
               "log-degree residue and orbit action")
    sub.add_argument("g")
    sub.add_argument("reference")
    sub.add_argument("orbit", help="orbit file: JSON points list or one per line")

    identity = groups.add_parser(
        "identity", help="iterate identities").add_subparsers(
        dest="command", required=True)
    sub = leaf(identity, "eq8", _cmd_identity_eq8, "interleaved iterate identity")
    sub.add_argument("g")
    sub.add_argument("h")
    sub.add_argument("--N", type=int, default=1)

    sub = leaf(groups, "golden", _cmd_golden, "run the exact check gate")
    sub.add_argument("names", nargs="*", help="subset of checks to run")
    sub.add_argument("--list", action="store_true", help="list check names")

    return parser


def _config_from_args(args) -> RunConfig:
    """RunConfig from the config file, then the flags given on the line."""
    given = vars(args)
    overrides = load_config(given["config"]) if "config" in given else {}
    for f in fields(RunConfig):
        if f.name in given:
            overrides[f.name] = given[f.name]
    return RunConfig(**overrides)


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    # argparse (3.11) hands a positional "--" that follows "--" over as []
    if (sys.argv[1:] if argv is None else argv).count("--") > 1:
        parser.error("'--' may appear only once")
    args = parser.parse_args(argv)
    try:
        config = _config_from_args(args)
        result, code = args.handler(args, config)
    except InputParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except BudgetError as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return 3
    except PreconditionError as exc:
        print(f"precondition violated: {exc}", file=sys.stderr)
        return 4
    except CommdynError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except Exception as exc:
        print(f"internal error: {exc!r}", file=sys.stderr)
        return 5
    print(emit_report(result, config.format))
    return code


if __name__ == "__main__":
    sys.exit(main())
