"""Tests for orbit exploration, restriction tables, the residue classifier,
and the interleaved iterate identity."""

import pytest

from commdyn.budget import Budget, limits
from commdyn.errors import BudgetError, NotInvariantError, PreconditionError
from commdyn.exactfield import rational, zeta
from commdyn.exceptional import chebyshev
from commdyn.parsing import parse_map
from commdyn.ratmap import INF, Mobius
from commdyn.semigroup import (
    ORBIT_BUDGET_EXCEEDED,
    ORBIT_CLOSED,
    ActionRow,
    PhiValue,
    action_table,
    classifier_phi,
    orbit,
    verify_identity_eq8,
)

SQUARE = parse_map("z^2")
SHIFT = parse_map("z + 1")
ROT3 = Mobius.scaling(zeta(3)).to_map()

E2_U = parse_map("(z^2 - 4)/(z - 1)")
E2_V = parse_map("(z^2 + 2)/(z + 1)")
E2_G = E2_V.compose(E2_U)
E2_H = E2_V.compose(Mobius.scaling(zeta(3)).to_map()).compose(E2_U)


class TestOrbit:
    def test_fixed_point_singleton(self):
        run = orbit([SQUARE], rational(1))
        assert run.status == ORBIT_CLOSED
        assert run.points == (rational(1),)
        assert run.frontier == ()

    def test_rotation_orbit_of_three(self):
        run = orbit([ROT3], rational(1))
        assert run.status == ORBIT_CLOSED
        assert len(run) == 3
        assert rational(1) in run
        assert zeta(3) in run
        assert zeta(3) ** 2 in run

    def test_growing_heights_hit_budget(self):
        with limits(Budget(orbit_budget=150)):
            run = orbit([SQUARE, SHIFT], rational(0))
        assert run.status == ORBIT_BUDGET_EXCEEDED
        assert len(run) == 150
        assert len(run.frontier) > 0

    def test_closed_orbit_is_genuinely_closed(self):
        run = orbit([SQUARE, ROT3], zeta(3))
        assert run.status == ORBIT_CLOSED
        for p in run.points:
            for g in run.generators:
                assert g(p) in run

    def test_infinity_is_a_first_class_point(self):
        run = orbit([SQUARE], INF)
        assert run.status == ORBIT_CLOSED
        assert run.points == (INF,)
        pole = parse_map("1/z")
        run = orbit([pole], rational(0))
        assert run.status == ORBIT_CLOSED
        assert set(map(str, run.points)) == {"0", "inf"}

    def test_periodic_start_stays_periodic_under_commuting_generators(self):
        # sign flip commutes with the cube map; the start is on a 2-cycle,
        # so every discovered point must be fixed by the second iterate
        cube = parse_map("z^3")
        flip = parse_map("-z")
        start = zeta(8)
        run = orbit([flip, cube], start)
        assert run.status == ORBIT_CLOSED
        second = cube.iterate(2)
        for p in run.points:
            assert second(p) == p

    def test_single_generator_orbit_bound(self):
        # orbit of a period-p start under the map itself has at most
        # deg^p + 1 points; here period 2 under the cube map
        cube = parse_map("z^3")
        run = orbit([cube], zeta(8))
        assert run.status == ORBIT_CLOSED
        assert len(run) <= cube.degree ** 2 + 1

    def test_budget_must_be_positive(self):
        with pytest.raises(PreconditionError):
            Budget(orbit_budget=0)

    def test_no_generators_rejected(self):
        with pytest.raises(PreconditionError):
            orbit([], rational(1))


class TestActionTable:
    def test_rotation_three_cycle(self):
        pts = orbit([ROT3], rational(1)).points
        (row,) = action_table([ROT3], pts)
        assert row.bijection
        seen = {0}
        i = 0
        for _ in range(3):
            i = row.images[i]
            seen.add(i)
        assert i == 0 and seen == {0, 1, 2}

    def test_singleton_identity(self):
        (row,) = action_table([SQUARE], [rational(0)])
        assert row == ActionRow((0,), True)

    def test_non_bijective_self_map(self):
        (row,) = action_table([SQUARE], [rational(1), rational(-1)])
        assert row.images == (0, 0)
        assert not row.bijection

    def test_escape_raises(self):
        with pytest.raises(NotInvariantError):
            action_table([SHIFT], [rational(0)])

    def test_repeated_points_rejected(self):
        with pytest.raises(PreconditionError):
            action_table([SQUARE], [rational(1), rational(1)])


class TestClassifierPhi:
    def test_reference_maps_to_zero_identity(self):
        f = parse_map("z^4 + z")
        ref = f.iterate(3)
        pts = (rational(0),)
        assert classifier_phi(ref, ref, pts) == PhiValue(0, (0,))

    def test_quartic_with_symmetry(self):
        # f = z*(z^3 + 1) commutes with its own iterates; the rotated copy
        # has the same degree, so the residues agree and both fix 0
        f = parse_map("z^4 + z")
        g = Mobius.scaling(zeta(3)).to_map().compose(f)
        ref = f.iterate(3)
        pts = (rational(0),)
        assert classifier_phi(f, ref, pts) == classifier_phi(g, ref, pts)
        assert classifier_phi(f, ref, pts).residue == 2

    def test_wrong_degree_is_undefined(self):
        ref = parse_map("z^4")
        assert classifier_phi(parse_map("z^10"), ref, (rational(0),)) is None

    def test_degree_one_lands_in_residue_zero(self):
        flip = parse_map("-z")
        ref = parse_map("z^9")
        assert classifier_phi(flip, ref, (rational(0),)).residue == 0

    def test_reference_must_fix_orbit(self):
        with pytest.raises(PreconditionError):
            classifier_phi(SQUARE, SQUARE, (rational(2),))

    def test_homomorphism_on_seventh_roots(self):
        # reference z^8 fixes the 7th roots of unity pointwise
        ref = parse_map("z^8")
        pts = orbit([SQUARE], zeta(7)).points
        assert len(pts) == 3
        a = classifier_phi(SQUARE, ref, pts)
        b = classifier_phi(parse_map("z^4"), ref, pts)
        ab = classifier_phi(parse_map("z^8"), ref, pts)
        mod = 3  # 8 = 2^3
        assert ab.residue == (a.residue + b.residue) % mod
        composed = tuple(a.action[b.action[i]] for i in range(len(pts)))
        assert ab.action == composed


class TestIdentityEq8:
    def test_commuting_chebyshev_pair(self):
        assert verify_identity_eq8(chebyshev(2), chebyshev(3), 1)

    def test_non_commuting_pair(self):
        assert not verify_identity_eq8(SQUARE, SHIFT, 1)

    def test_commuting_quartic_pair(self):
        assert verify_identity_eq8(E2_G, E2_H, 1)

    def test_power_maps_higher_n(self):
        assert verify_identity_eq8(SQUARE, SQUARE, 2)

    def test_degree_cap_enforced(self):
        with pytest.raises(BudgetError):
            verify_identity_eq8(parse_map("z^4 + 1"), parse_map("z^4"), 2)
        # decided without building the 64-million-bit degree, and reported
        # as powers: printing that integer raised ValueError
        with pytest.raises(BudgetError, match=r"degree 2\^25005000 \* 3\^25000000 exceeds"):
            verify_identity_eq8(SQUARE, parse_map("z^3"), 5000)

    def test_n_must_be_positive(self):
        with pytest.raises(PreconditionError):
            verify_identity_eq8(SQUARE, SQUARE, 0)
