"""Finite-orbit exploration for semigroups of rational maps.

Breadth-first closure of an exact starting point under finitely many
generators, restriction tables of generators acting on a closed orbit, a
classifier pairing logarithmic-degree residues with orbit restrictions, and
an exact checker for the interleaved iterate identity.

All point arithmetic here is exact field arithmetic; infinity is a
first-class point throughout.  The explorer never claims an orbit is
infinite, only that it did not close within the budget.
"""

from collections import deque
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from .errors import (
    BudgetError,
    NotAPowerError,
    NotInvariantError,
    PreconditionError,
)
from .periodic import logarithmic_degree
from .ratmap import Point, RationalMap, agree, point_sort_key

ORBIT_CLOSED = "Closed"
ORBIT_BUDGET_EXCEEDED = "BudgetExceeded"

_DEFAULT_BUDGET = 10_000


@dataclass(frozen=True)
class OrbitExploration:
    """Result of a breadth-first closure run.

    When status is Closed, applying every generator to every discovered
    point lands back in the discovered set; the frontier is then empty.
    Otherwise the frontier holds the points whose images were still
    unexplored when the budget cut the run short.
    """

    generators: tuple[RationalMap, ...]
    start: Point
    points: tuple[Point, ...]
    frontier: tuple[Point, ...]
    budget: int
    status: str

    @property
    def closed(self) -> bool:
        return self.status == ORBIT_CLOSED

    def __len__(self) -> int:
        return len(self.points)

    def __contains__(self, point: Point) -> bool:
        key = point_sort_key(point)
        return any(point_sort_key(p) == key for p in self.points)


def orbit(generators: Iterable[RationalMap], start: Point,
          budget: int = _DEFAULT_BUDGET) -> OrbitExploration:
    """Breadth-first closure of start under all generators.

    Points are discovered in visit order, deduplicated exactly.  The run
    stops as soon as registering one more point would push the set past
    the budget; the status field records which way it ended.
    """
    gens = tuple(generators)
    if not gens:
        raise PreconditionError("orbit exploration needs at least one generator")
    if budget < 1:
        raise PreconditionError("budget must be positive")
    seen = {point_sort_key(start)}
    points = [start]
    frontier = deque([start])
    status = ORBIT_CLOSED
    while frontier and status == ORBIT_CLOSED:
        pivot = frontier[0]
        for g in gens:
            image = g(pivot)
            key = point_sort_key(image)
            if key in seen:
                continue
            if len(points) >= budget:
                status = ORBIT_BUDGET_EXCEEDED
                break
            seen.add(key)
            points.append(image)
            frontier.append(image)
        else:
            frontier.popleft()
    return OrbitExploration(gens, start, tuple(points), tuple(frontier),
                            budget, status)


@dataclass(frozen=True)
class ActionRow:
    """One generator restricted to a finite point set, as an index map."""

    images: tuple[int, ...]
    bijection: bool


def action_table(generators: Iterable[RationalMap],
                 orbit_points: Sequence[Point]) -> tuple[ActionRow, ...]:
    """Induced self-maps of a finite invariant set, one row per generator.

    Each row sends position i to the position of the image of the i-th
    point and carries a flag for whether that self-map is a bijection.
    Raises NotInvariantError if some image falls outside the set, which
    signals that the input was not actually a closed orbit.
    """
    pts = tuple(orbit_points)
    if not pts:
        raise PreconditionError("empty point set")
    gens = tuple(generators)
    if not gens:
        raise PreconditionError("at least one generator required")
    index = {point_sort_key(p): i for i, p in enumerate(pts)}
    if len(index) != len(pts):
        raise PreconditionError("point set contains repeats")
    rows = []
    for g in gens:
        images = []
        for p in pts:
            key = point_sort_key(g(p))
            if key not in index:
                raise NotInvariantError(
                    "generator image escapes the point set")
            images.append(index[key])
        rows.append(ActionRow(tuple(images), len(set(images)) == len(pts)))
    return tuple(rows)


@dataclass(frozen=True)
class PhiValue:
    """Log-degree residue together with the action on the orbit."""

    residue: int
    action: tuple[int, ...]


def classifier_phi(g: RationalMap, reference: RationalMap,
                   orbit_points: Sequence[Point]) -> Optional[PhiValue]:
    """Pair (log-degree residue, orbit restriction) of g.

    The reference map must fix every orbit point; its degree determines
    the base d0 and the modulus for the residue.  Returns None when the
    degree of g is not a power of d0, a diagnostic for maps outside the
    expected commuting family.  Degree-one maps get residue zero: they
    are the d0^0 layer.
    """
    pts = tuple(orbit_points)
    if not pts:
        raise PreconditionError("empty point set")
    for p in pts:
        if point_sort_key(reference(p)) != point_sort_key(p):
            raise PreconditionError(
                "reference map does not fix the orbit pointwise")
    _, ell_ref = logarithmic_degree(reference.degree, reference.degree)
    if g.degree == 1:
        ell_g = 0
    else:
        try:
            _, ell_g = logarithmic_degree(reference.degree, g.degree)
        except NotAPowerError:
            return None
    (row,) = action_table((g,), pts)
    return PhiValue(ell_g % ell_ref, row.images)


def verify_identity_eq8(g: RationalMap, h: RationalMap, N: int,
                        degree_cap: int = 5000) -> bool:
    """Exact check of the interleaved iterate identity.

    With G = g^N and H = h^N, decides whether G(GH)^N and (GH)^N G agree
    as rational maps.  The total degree is checked up front: already at
    N = 2 a pair of degree-4 maps blows past any workable cap.
    """
    if N < 1:
        raise PreconditionError("iterate count must be positive")
    bits = degree_cap.bit_length()  # d^e > cap once d > 1 and e >= bits
    e_g, e_h = N * (N + 1), N * N
    if (g.degree > 1 and e_g >= bits) or (h.degree > 1 and e_h >= bits) \
            or g.degree ** e_g * h.degree ** e_h > degree_cap:
        raise BudgetError(f"composite degree {g.degree}^{e_g} * {h.degree}^{e_h} "
                          f"exceeds cap {degree_cap}")
    big_g = g.iterate(N, degree_cap)
    big_h = h.iterate(N, degree_cap)
    mixed = big_g.compose(big_h).iterate(N, degree_cap)
    return agree([big_g, mixed], [mixed, big_g])
