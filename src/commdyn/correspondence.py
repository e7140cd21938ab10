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
preimage at infinity whenever a fiber drops degree.  Roots come from one
entry point, `_np_roots`, which takes a whole pullback level of fibers at
once and runs one `np.linalg.eigvals` per degree over stacked companion
matrices, with the same roots, in the same order, as one `np.roots` per
fiber.  numpy is imported there, on first use, so the exact part of the
module loads without it.
"""

import math
from dataclasses import dataclass

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


# one eigvals call stacks at most this many matrix entries (4 MB of
# complex128), so a wide cloud of high-degree fibers is split into chunks
_STACK_ENTRIES = 1 << 18


def _np_roots(rows: list[list[complex]]) -> list[list[complex]]:
    """Roots of each coefficient row (low to high), one list per row.

    Each list equals what np.roots returns for the row: top coefficients
    below 1e-13 are trimmed first, and a row with at most one coefficient
    left has no roots.  Rows of one degree share one np.linalg.eigvals
    call over their stacked companion matrices, built as np.roots builds
    them (first row -p[1:] / p[0], ones below the diagonal).  A row with
    an exact-zero constant term goes through np.roots itself, which
    splits off its roots at zero.
    """
    import numpy as np
    roots: list[list[complex]] = [[] for _ in rows]
    by_degree: dict[int, list[tuple[int, list[complex]]]] = {}
    for i, row in enumerate(rows):
        trimmed = list(row)
        while trimmed and abs(trimmed[-1]) < 1e-13:
            trimmed.pop()
        if len(trimmed) <= 1:
            continue
        if trimmed[0] == 0:
            roots[i] = list(np.roots(trimmed[::-1]))
        else:
            by_degree.setdefault(len(trimmed) - 1, []).append((i, trimmed[::-1]))
    for degree, group in by_degree.items():
        step = max(1, _STACK_ENTRIES // degree ** 2)
        for start in range(0, len(group), step):
            chunk = group[start:start + step]
            p = np.array([high_to_low for _, high_to_low in chunk])
            companion = np.zeros((len(chunk), degree, degree), dtype=p.dtype)
            companion[:, 0, :] = -p[:, 1:] / p[:, :1]
            companion[:, range(1, degree), range(degree - 1)] = 1
            for (i, _), eigenvalues in zip(chunk, np.linalg.eigvals(companion)):
                roots[i] = list(eigenvalues)
    return roots


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

    def preimages(self, values) -> list:
        """The fibers over values (None is infinity), fiber after fiber.

        The fiber over v holds the roots of num - v * den; a dropped
        degree means that one preimage branch sits at infinity.  Each
        row is built in Python complex arithmetic, and all rows go to
        one _np_roots call.
        """
        rows = [self.den if v is None
                else [a - v * b for a, b in zip(self.num, self.den)]
                for v in values]
        pool = []
        for roots in _np_roots(rows):
            pool.extend(roots)
            if len(roots) < self.degree:
                pool.append(None)
        return pool

    def image(self, z):
        """Evaluate at a complex point; None encodes the point at infinity."""
        if z is None:
            return self._at_infinity
        import numpy as np
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
        return 1.0 / math.sqrt(1.0 + abs(q) ** 2)
    if q is None:
        return 1.0 / math.sqrt(1.0 + abs(p) ** 2)
    return abs(p - q) / math.sqrt((1.0 + abs(p) ** 2) * (1.0 + abs(q) ** 2))


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
        for root in a.preimages(points):
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
