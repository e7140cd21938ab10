"""Named exact checks that gate a build.

Every check here is deterministic and exact (field arithmetic, no floats),
covering the worked examples the package is organized around: the Chebyshev
family, the quartic commuting pair built from two quadratics and a cube
root of unity, rotation symmetries of monomial-plus-linear maps, and the
orbit and identity machinery.  Each check can be run on its own by name.
"""

from dataclasses import dataclass
from typing import Callable, Iterable, Optional

from .correspondence import verify_lemma4
from .errors import CommdynError
from .exactfield import rational, zeta
from .exceptional import chebyshev, lattes_flexible, verify_chebyshev_semiconjugacy
from .parsing import parse_map
from .periodic import common_fixed_points, verify_multiplier_identity
from .ratmap import Mobius, RationalMap, agree
from .ritt import common_iterate_equal_degree, ritt_sequence
from .semigroup import action_table, orbit, verify_identity_eq8


@dataclass(frozen=True)
class GoldenCheck:
    """One named exact check: run() returns True on success."""

    name: str
    detail: str
    run: Callable[[], bool]


@dataclass(frozen=True)
class GoldenResult:
    name: str
    passed: bool
    message: str


@dataclass(frozen=True)
class GoldenReport:
    results: tuple[GoldenResult, ...]

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.results)

    @property
    def failures(self) -> tuple[GoldenResult, ...]:
        return tuple(r for r in self.results if not r.passed)


def _quartic_pair() -> tuple[RationalMap, RationalMap]:
    u = parse_map("(z^2 - 4)/(z - 1)")
    v = parse_map("(z^2 + 2)/(z + 1)")
    rot = Mobius.scaling(zeta(3)).to_map()
    return v.compose(u), v.compose(rot).compose(u)


def _check_chebyshev_cubic() -> bool:
    return chebyshev(3) == parse_map("z^3 - 3*z")


def _check_chebyshev_semiconjugacy() -> bool:
    return all(verify_chebyshev_semiconjugacy(d) for d in range(1, 9))


def _check_chebyshev_family() -> bool:
    for d in range(2, 7):
        for e in range(2, 7):
            td, te = chebyshev(d), chebyshev(e)
            if not td.commutes(te) or not agree([td, te], [chebyshev(d * e)]):
                return False
    return True


def _check_quartic_product() -> bool:
    u = parse_map("(z^2 - 4)/(z - 1)")
    v = parse_map("(z^2 + 2)/(z + 1)")
    return agree([u, v], [parse_map("z*(z^3 - 8)/(z^3 + 1)")])


def _check_quartic_pair_commutes() -> bool:
    g, h = _quartic_pair()
    return g != h and g.commutes(h)


def _check_quartic_third_iterates() -> bool:
    g, h = _quartic_pair()
    return common_iterate_equal_degree(g, h) == 3 and agree([g] * 3, [h] * 3)


def _check_rotation_symmetry() -> bool:
    # maps of the shape z * s(z^n) commute with the order-n rotation, and
    # composing with the rotation does not change the n-th iterate
    for n in (2, 3):
        f = parse_map(f"z*(z^{n} + 1)")
        rot = Mobius.scaling(zeta(n) if n > 2 else rational(-1)).to_map()
        if not (f.commutes(rot) and agree([rot, f] * n, [f] * n)):
            return False
    return True


def _check_decomposition_terminates() -> bool:
    g, h = _quartic_pair()
    seq = ritt_sequence(g, h)
    return seq.terminated and seq.steps[-1].r == 1


def _check_first_step_orbit_bound() -> bool:
    g, h = _quartic_pair()
    report = verify_lemma4(g, h)
    return report.s_c == 6 and report.bound_ok


def _check_multiplier_divisibility() -> bool:
    u = parse_map("(z^2 - 4)/(z - 1)")
    v = parse_map("(z^2 + 2)/(z + 1)")
    f = u.compose(v)
    rot = Mobius.scaling(zeta(3)).to_map()
    return verify_multiplier_identity(f, rot, 1, 1)


def _check_common_fixed_pair() -> bool:
    g, h = _quartic_pair()
    shared, at_infinity = common_fixed_points(g, h)
    return shared.degree + int(at_infinity) == 2


def _check_interleaved_identity() -> bool:
    g, h = _quartic_pair()
    if not verify_identity_eq8(chebyshev(2), chebyshev(3), 1):
        return False
    if not verify_identity_eq8(g, h, 1):
        return False
    return not verify_identity_eq8(parse_map("z^2"), parse_map("z + 1"), 1)


def _check_rotation_orbit() -> bool:
    rot = Mobius.scaling(zeta(3)).to_map()
    run = orbit([rot], rational(1))
    if not run.closed or len(run) != 3:
        return False
    (row,) = action_table([rot], run.points)
    return row.bijection and row.images != tuple(range(3))


def _check_lattes_degree() -> bool:
    return lattes_flexible(2, rational(-1), rational(0)).degree == 4


GOLDEN_CHECKS: tuple[GoldenCheck, ...] = (
    GoldenCheck("chebyshev-cubic",
                "degree-3 Chebyshev map equals z^3 - 3z",
                _check_chebyshev_cubic),
    GoldenCheck("chebyshev-semiconjugacy",
                "t_d((z^2+1)/z) == (z^(2d)+1)/z^d for d up to 8",
                _check_chebyshev_semiconjugacy),
    GoldenCheck("chebyshev-family",
                "T_d and T_e commute with composite T_(de) for d, e up to 6",
                _check_chebyshev_family),
    GoldenCheck("quartic-product",
                "the two quadratics compose to z(z^3-8)/(z^3+1)",
                _check_quartic_product),
    GoldenCheck("quartic-pair-commutes",
                "the quartic pair commutes without being equal",
                _check_quartic_pair_commutes),
    GoldenCheck("quartic-third-iterates",
                "the quartic pair shares its third iterate, exponent 3",
                _check_quartic_third_iterates),
    GoldenCheck("rotation-symmetry",
                "z*s(z^n) commutes with the order-n rotation, same n-th iterate",
                _check_rotation_symmetry),
    GoldenCheck("decomposition-terminates",
                "the shared-factor sequence of the quartic pair reaches r = 1",
                _check_decomposition_terminates),
    GoldenCheck("first-step-orbit-bound",
                "generic orbit size 6 within the p * d^p bound",
                _check_first_step_orbit_bound),
    GoldenCheck("multiplier-divisibility",
                "periodic-point multiplier identity for the quartic and rotation",
                _check_multiplier_divisibility),
    GoldenCheck("common-fixed-pair",
                "the quartic pair shares exactly two fixed points",
                _check_common_fixed_pair),
    GoldenCheck("interleaved-identity",
                "interleaved iterate identity: true twice, false control",
                _check_interleaved_identity),
    GoldenCheck("rotation-orbit",
                "cube-root rotation closes a 3-point orbit as a 3-cycle",
                _check_rotation_orbit),
    GoldenCheck("lattes-degree",
                "duplication on a cubic curve induces a degree-4 map",
                _check_lattes_degree),
)


def run_golden_suite(names: Optional[Iterable[str]] = None,
                     checks: Optional[Iterable[GoldenCheck]] = None
                     ) -> GoldenReport:
    """Run the named checks (all by default) and collect a report.

    Unknown names appear in the report as failures rather than raising,
    so a typo in a gate script cannot silently pass.
    """
    pool = tuple(checks) if checks is not None else GOLDEN_CHECKS
    if names is not None:
        wanted = list(names)
        by_name = {c.name: c for c in pool}
        results = []
        selected = []
        for n in wanted:
            if n in by_name:
                selected.append(by_name[n])
            else:
                results.append(GoldenResult(n, False, "no such check"))
        pool = tuple(selected)
    else:
        results = []
    for check in pool:
        try:
            ok = check.run()
            message = check.detail if ok else f"failed: {check.detail}"
        except CommdynError as exc:
            ok = False
            message = f"error: {exc}"
        results.append(GoldenResult(check.name, ok, message))
    return GoldenReport(tuple(results))
