"""Algebraic correspondences on the line and their graph curves.

A correspondence is a multivalued self-map presented by a pair of rational
maps (a, b) through a common parameter: the relation sends a(t) to b(t) as
t ranges over the line.  Composition, iteration, and orbit closures are
computed on the defining curves themselves, by resultant elimination, so
every answer is exact.  A numeric companion (`point_orbit`) follows a
single starting point with floating-point root extraction and serves as a
cross-check on the algebraic closure.  Its fibers and images, and those of
the exponent probes, come from one float view of a map (`_FloatView`):
the complex coefficients are computed once per map, and one rule puts a
preimage at infinity whenever a fiber drops degree.
"""

from dataclasses import dataclass

import numpy as np

from .errors import (
    BudgetError,
    DegenerateEliminationError,
    NotStabilizedError,
    PreconditionError,
)
from .polynomial import (
    BiPolynomial,
    Polynomial,
    gcd_bivariate,
    resultant_eliminate,
)
from .ratmap import RationalMap
from .ritt import RittSequence, _common_iterate_of_sequence, ritt_sequence

VAR1 = "x"
VAR2 = "w"

# curves beyond this total degree are abandoned rather than pushed further
_DEGREE_CAP = 400


@dataclass(frozen=True)
class Correspondence:
    """The relation a(t) -> b(t), i.e. the multivalued map b after a-inverse."""

    a: RationalMap
    b: RationalMap

    def transpose(self) -> "Correspondence":
        return Correspondence(self.b, self.a)


@dataclass(frozen=True)
class GraphCurve:
    """Squarefree curve in (x, w) cut out by a correspondence relation.

    The first bidegree component counts w-values over a generic x (the
    outgoing valence), the second counts x-values over a generic w.
    """

    poly: BiPolynomial

    def __post_init__(self):
        if self.poly.is_zero() or self.poly.is_constant():
            raise PreconditionError("graph curve must be a genuine curve")

    @property
    def bidegree(self) -> tuple[int, int]:
        dx, dw = self.poly.degrees
        return (dw, dx)

    def __eq__(self, other) -> bool:
        if not isinstance(other, GraphCurve):
            return NotImplemented
        return self.poly == other.poly

    def __hash__(self) -> int:
        return hash(self.poly)


def diagonal_graph() -> GraphCurve:
    w = BiPolynomial.from_poly_in_var2(Polynomial.variable(VAR2), VAR1, VAR2)
    x = BiPolynomial.from_poly_in_var1(Polynomial.variable(VAR1), VAR1, VAR2)
    return GraphCurve((w - x).normalized())


def graph(c: Correspondence) -> GraphCurve:
    """Eliminate the parameter from x = a(t), w = b(t).

    The result is the squarefree closure of {(a(t), b(t))}.  Generically
    its bidegree is (deg a, deg b); shared inner factors of a and b can
    drop it.
    """
    t = "t"
    x_factor = BiPolynomial.from_poly_in_var1(
        Polynomial.variable(VAR1), VAR1, t)
    p = (BiPolynomial.from_poly_in_var2(c.a.num, VAR1, t)
         - x_factor * BiPolynomial.from_poly_in_var2(c.a.den, VAR1, t))
    w_factor = BiPolynomial.from_poly_in_var2(
        Polynomial.variable(VAR2), t, VAR2)
    q = (BiPolynomial.from_poly_in_var1(c.b.num, t, VAR2)
         - w_factor * BiPolynomial.from_poly_in_var1(c.b.den, t, VAR2))
    r = resultant_eliminate(p, q)
    if r.is_zero() or r.is_constant():
        raise DegenerateEliminationError(
            "parameter elimination collapsed the graph")
    return GraphCurve(r)


def compose_graphs(outer: GraphCurve, inner: GraphCurve) -> GraphCurve:
    """Graph of the composite relation: inner first, then outer.

    (x, w) lies on the result iff some y has (x, y) on the inner curve
    and (y, w) on the outer one.
    """
    y = "y"
    p = inner.poly.rename(VAR1, y)
    q = outer.poly.rename(y, VAR2)
    r = resultant_eliminate(p, q)
    if r.is_zero() or r.is_constant():
        raise DegenerateEliminationError(
            "graph composition degenerated: shared or collapsed component")
    return GraphCurve(r)


def orbit_closure(c: Correspondence, k_max: int = 64,
                  degree_cap: int = _DEGREE_CAP) -> tuple[GraphCurve, int]:
    """Smallest c-invariant curve through the diagonal, with its valence.

    Accumulates the union of the diagonal and all iterated graphs until
    one more iterate adds no new component.  Returns the stabilized curve
    and the number of w-values over a generic x (the generic orbit size).
    Raises NotStabilizedError if k_max iterations never stabilize, and
    BudgetError if the curves outgrow degree_cap first.
    """
    gamma = graph(c)
    power = diagonal_graph()
    union = power.poly
    for _ in range(k_max):
        power = compose_graphs(gamma, power)
        shared = gcd_bivariate(power.poly, union)
        fresh = power.poly.exact_div(shared)
        if fresh.is_constant():
            curve = GraphCurve(union)
            return curve, curve.bidegree[0]
        union = (union * fresh).normalized()
        if sum(union.degrees) > degree_cap or sum(power.poly.degrees) > degree_cap:
            raise BudgetError(
                f"orbit closure curves exceeded degree {degree_cap}")
    raise NotStabilizedError(
        f"orbit closure still growing after {k_max} iterations",
        last_union=union)


def _np_roots(coeffs_low_to_high: list[complex]) -> list[complex]:
    trimmed = list(coeffs_low_to_high)
    while trimmed and abs(trimmed[-1]) < 1e-13:
        trimmed.pop()
    if len(trimmed) <= 1:
        return []
    return list(np.roots(trimmed[::-1]))


_BIG = 1e9


class _FloatView:
    """A rational map in floating point, built once and reused per point.

    num and den are the complex coefficients, low to high, both padded to
    degree + 1, so a fiber num - value * den lines up term by term.
    """

    def __init__(self, f: RationalMap):
        self.degree = f.degree
        width = f.degree + 1
        num, den = f.num.complex_coeffs(), f.den.complex_coeffs()
        self.num = num + [0.0j] * (width - len(num))
        self.den = den + [0.0j] * (width - len(den))
        dn, dd = f.num.degree, f.den.degree
        self._at_infinity = (None if dn > dd else 0.0j if dn < dd
                             else num[-1] / den[-1])

    def preimages(self, value):
        """The fiber over value (None is infinity), as roots of num - value * den.

        A dropped degree means that one preimage branch sits at infinity.
        """
        if value is None:
            fiber = self.den
        else:
            fiber = [a - value * b for a, b in zip(self.num, self.den)]
        roots = _np_roots(fiber)
        if len(roots) < self.degree:
            roots.append(None)
        return roots

    def image(self, z):
        """Evaluate at a complex point; None encodes the point at infinity."""
        if z is None:
            return self._at_infinity
        nv = np.polyval(self.num[::-1], z)
        dv = np.polyval(self.den[::-1], z)
        if abs(dv) < 1e-13 * max(1.0, abs(nv)):
            return None
        val = nv / dv
        return None if abs(val) > _BIG else val


def _chordal(p, q) -> float:
    if p is None and q is None:
        return 0.0
    if p is None:
        return 1.0 / np.sqrt(1.0 + abs(q) ** 2)
    if q is None:
        return 1.0 / np.sqrt(1.0 + abs(p) ** 2)
    return abs(p - q) / np.sqrt((1.0 + abs(p) ** 2) * (1.0 + abs(q) ** 2))


def point_orbit(c: Correspondence, z0: complex, budget: int = 64,
                tol: float = 1e-6) -> list:
    """Forward orbit of one point under the relation, tolerance-deduped.

    Points are complex numbers with None standing for infinity.  Each pass
    pulls every known point back through a and pushes the fibers through
    b; the orbit is closed when a pass adds nothing.  Raises BudgetError
    if the point count passes the budget while still growing.
    """
    points = [complex(z0) if z0 is not None else None]
    a, b = _FloatView(c.a), _FloatView(c.b)
    while True:
        added = False
        for pt in list(points):
            for root in a.preimages(pt):
                image = b.image(root)
                if all(_chordal(image, known) > tol for known in points):
                    points.append(image)
                    added = True
        if not added:
            return points
        if len(points) > budget:
            raise BudgetError(
                f"point orbit exceeded {budget} points without closing")


@dataclass(frozen=True)
class BoundReport:
    """Orbit-size bound check for the first-step correspondence of a pair."""

    p: int
    d: int
    s_c: int
    bound: int
    bound_ok: bool


def verify_lemma4(f: RationalMap, g: RationalMap,
                  max_steps: int = 32) -> BoundReport:
    """Check s_c <= p * d^p for the first-step correspondence of (f, g).

    p is the common-iterate exponent of the pair, d its degree, and s_c
    the generic orbit size of the correspondence built from the first
    decomposition step's outer pair.
    """
    seq = ritt_sequence(f, g, max_steps=max_steps)
    p = _common_iterate_of_sequence(f, g, seq)
    step = seq.steps[0]
    _, s_c = orbit_closure(Correspondence(step.a, step.b))
    d = f.degree
    bound = p * d ** p
    return BoundReport(p=p, d=d, s_c=s_c, bound=bound, bound_ok=s_c <= bound)


@dataclass(frozen=True)
class TailReport:
    """Orbit-size growth across one pair of consecutive equal-degree steps."""

    index: int
    r: int
    s_prev: int
    s_next: int
    ok: bool


def verify_lemma5(seq: RittSequence) -> list[TailReport]:
    """Check s_{n+1} >= r * s_n across consecutive steps of equal outer degree.

    Steps whose outer degree differs from their successor's are skipped;
    each surviving adjacent pair contributes one report.
    """
    reports = []
    cache: dict[int, int] = {}

    def orbit_size(i: int) -> int:
        if i not in cache:
            step = seq.steps[i]
            _, s = orbit_closure(Correspondence(step.a, step.b))
            cache[i] = s
        return cache[i]

    for i in range(len(seq.steps) - 1):
        r = seq.steps[i].r
        if seq.steps[i + 1].r != r:
            continue
        s_prev = orbit_size(i)
        s_next = orbit_size(i + 1)
        reports.append(TailReport(index=i, r=r, s_prev=s_prev,
                                  s_next=s_next, ok=s_next >= r * s_prev))
    return reports
