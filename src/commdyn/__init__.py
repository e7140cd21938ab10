"""Exact and numeric tools for commuting rational maps on the projective line."""

from .budget import Budget, limits
from .correspondence import (
    BoundReport,
    Correspondence,
    GraphCurve,
    compose_graphs,
    graph,
    orbit_closure,
    point_orbit,
    verify_lemma4,
    verify_lemma5,
)
from .exactfield import FieldElement, rational, zeta
from .exceptional import (
    chebyshev,
    is_power_conjugate,
    lattes_flexible,
    power_map,
    verify_chebyshev_semiconjugacy,
)
from .exponents import (
    CycleReport,
    LyapunovEstimate,
    ProbeReport,
    characteristic_exponents,
    exceptionality_probe,
    lyapunov_estimate,
    spherical_derivative_norm,
)
from .golden import GOLDEN_CHECKS, run_golden_suite
from .parsing import parse_map, parse_point
from .periodic import (
    PeriodicSpectrum,
    common_fixed_points,
    exact_period_polynomial,
    logarithmic_degree,
    multiplier_spectrum,
    periodic_polynomial,
    verify_multiplier_identity,
)
from .polynomial import BiPolynomial, Polynomial
from .ratmap import INF, Mobius, RationalFunction, RationalMap, random_mobius
from .ritt import (
    RittSequence,
    RittStep,
    common_iterate_equal_degree,
    common_iterate_general,
    luroth_generator,
    ritt_sequence,
)
from .semigroup import (
    OrbitExploration,
    action_table,
    classifier_phi,
    orbit,
    verify_identity_eq8,
)

__version__ = "0.1.0"
