"""Graph curves, orbit closures, orbit-size bound reports, and the float layer."""

import random

import numpy as np
import pytest

from commdyn import correspondence
from commdyn.budget import Budget, limits
from commdyn.correspondence import (
    BoundReport,
    Correspondence,
    GraphCurve,
    _FloatView,
    _np_roots,
    compose_graphs,
    diagonal_graph,
    graph,
    orbit_closure,
    point_orbit,
    verify_lemma4,
    verify_lemma5,
)
from commdyn.errors import BudgetError, NotStabilizedError, PreconditionError
from commdyn.parsing import parse_map
from commdyn.polynomial import BiPolynomial, Polynomial
from commdyn.ritt import ritt_sequence

E2_U = parse_map("(z^2 - 4)/(z - 1)")
E2_V = parse_map("(z^2 + 2)/(z + 1)")
E2_SIGMA = parse_map("zeta3 * z")
E2_G = E2_V.compose(E2_U)
E2_H = E2_V.compose(E2_SIGMA).compose(E2_U)

# generic orbit size of the first-step correspondence of (g, h); regression
# constant, cross-checked numerically below
E2_ORBIT_SIZE = 6


def _w():
    return BiPolynomial.from_poly_in_var2(Polynomial.variable("w"), "x", "w")


def _x_poly(p: Polynomial) -> BiPolynomial:
    return BiPolynomial.from_poly_in_var1(p, "x", "w")


def _z(*coeffs: int) -> Polynomial:
    return Polynomial.from_ints(list(coeffs))


class TestGraph:
    def test_parabola(self):
        g = graph(Correspondence(parse_map("z"), parse_map("z^2")))
        assert g.poly == (_w() - _x_poly(_z(0, 0, 1))).normalized()
        assert g.bidegree == (1, 2)

    def test_equal_pair_collapses_to_diagonal(self):
        g = graph(Correspondence(parse_map("z^2"), parse_map("z^2")))
        assert g == diagonal_graph()
        assert g.bidegree == (1, 1)

    def test_inverse_of_squaring(self):
        g = graph(Correspondence(parse_map("z^2"), parse_map("z")))
        expected = _w() * _w() - _x_poly(_z(0, 1))
        assert g.poly == expected.normalized()
        assert g.bidegree == (2, 1)

    def test_transpose_symmetry(self):
        c = Correspondence(parse_map("z^2 + 1"), parse_map("z^3 - 2"))
        forward = graph(c).poly
        backward = graph(c.transpose()).poly
        assert backward == forward.transpose().rename("x", "w").normalized()

    def test_rejects_constant_curve(self):
        with pytest.raises(PreconditionError):
            GraphCurve(BiPolynomial([[Polynomial.one().leading()]], "x", "w"))


class TestCompose:
    def test_squaring_twice(self):
        g = graph(Correspondence(parse_map("z"), parse_map("z^2")))
        composed = compose_graphs(g, g)
        assert composed.poly == (_w() - _x_poly(_z(0, 0, 0, 0, 1))).normalized()

    def test_diagonal_is_neutral(self):
        g = graph(Correspondence(parse_map("z^2 - 1"), parse_map("z^3")))
        d = diagonal_graph()
        assert compose_graphs(d, g) == g
        assert compose_graphs(g, d) == g

    def test_square_root_after_square_splits(self):
        square = graph(Correspondence(parse_map("z"), parse_map("z^2")))
        root = graph(Correspondence(parse_map("z^2"), parse_map("z")))
        composed = compose_graphs(root, square)
        expected = _w() * _w() - _x_poly(_z(0, 0, 1))
        assert composed.poly == expected.normalized()
        assert composed.bidegree == (2, 2)

    def test_functional_composition_matches_map_composition(self):
        ident = parse_map("z")
        f = parse_map("z^2 + 1")
        g = parse_map("z^3 - 2")
        inner = graph(Correspondence(ident, f))
        outer = graph(Correspondence(ident, g))
        assert compose_graphs(outer, inner) == graph(
            Correspondence(ident, g.compose(f)))


class TestOrbitClosure:
    def test_identity_stays_diagonal(self):
        curve, size = orbit_closure(
            Correspondence(parse_map("z"), parse_map("z")))
        assert size == 1
        assert curve == diagonal_graph()

    def test_sign_flip_gives_two_lines(self):
        curve, size = orbit_closure(
            Correspondence(parse_map("z"), parse_map("-z")))
        assert size == 2
        expected = _w() * _w() - _x_poly(_z(0, 0, 1))
        assert curve.poly == expected.normalized()

    def test_order_three_rotation(self):
        _, size = orbit_closure(
            Correspondence(parse_map("z"), parse_map("zeta3 * z")))
        assert size == 3

    def test_first_step_pair_stabilizes(self):
        seq = ritt_sequence(E2_G, E2_H)
        step = seq.steps[0]
        curve, size = orbit_closure(Correspondence(step.a, step.b))
        assert size == E2_ORBIT_SIZE
        assert curve.bidegree == (E2_ORBIT_SIZE, E2_ORBIT_SIZE)

    def test_translation_never_stabilizes(self):
        with pytest.raises(NotStabilizedError) as info, limits(Budget(kmax=5)):
            orbit_closure(Correspondence(parse_map("z"), parse_map("z + 1")))
        assert info.value.last_union is not None
        assert not info.value.last_union.is_constant()

    def test_squaring_outgrows_degree_cap(self):
        with pytest.raises(BudgetError):
            orbit_closure(Correspondence(parse_map("z"), parse_map("z^2")))


class TestPointOrbit:
    def test_fixed_point(self):
        c = Correspondence(parse_map("z"), parse_map("z"))
        assert len(point_orbit(c, 0.3 + 0.2j)) == 1

    def test_sign_orbit(self):
        c = Correspondence(parse_map("z"), parse_map("-z"))
        pts = point_orbit(c, 2.0)
        assert len(pts) == 2

    def test_matches_algebraic_orbit_size(self):
        seq = ritt_sequence(E2_G, E2_H)
        step = seq.steps[0]
        c = Correspondence(step.a, step.b)
        pts = point_orbit(c, 0.73 + 0.41j)
        assert len(pts) == E2_ORBIT_SIZE

    def test_reciprocal_passes_through_infinity(self):
        c = Correspondence(parse_map("1/z"), parse_map("z"))
        pts = point_orbit(c, 0.0)
        assert len(pts) == 2
        assert any(p is None for p in pts)

    def test_translation_exceeds_budget(self):
        c = Correspondence(parse_map("z"), parse_map("z + 1"))
        with pytest.raises(BudgetError):
            point_orbit(c, 0.0, budget=10)


def _roots_oracle(row):
    """np.roots on one row (low to high), trimmed as the float layer trims it."""
    trimmed = list(row)
    while trimmed and abs(trimmed[-1]) < 1e-13:
        trimmed.pop()
    return list(np.roots(trimmed[::-1])) if len(trimmed) > 1 else []


def _fiber_oracle(view, value):
    row = view.den if value is None else [a - value * b for a, b in zip(view.num, view.den)]
    roots = _roots_oracle(row)
    return roots + [None] if len(roots) < view.degree else roots


def _same(got, want):
    """Equal values in the same order, with the same element types."""
    return len(got) == len(want) and all(
        type(g) is type(w) and g == w for g, w in zip(got, want))


class TestBatchedRoots:
    MIXED_ROWS = [
        [1 + 2j, -0.5j, 3 + 0j],
        [2 + 0j, 1 - 1j, 0.25 + 0j, 1 + 0j],
        [0.5 - 1j, 2j, -1 + 0j],  # the first row's degree: one shared eigvals call
        [1 + 0j, 2 + 0j, 1e-15 + 0j],  # dropped degree: trimmed to a linear row
        [0j, 1 + 1j, 2 + 0j],  # exact-zero constant term: a root at zero
        [3 + 0j],  # constant row
        [],
        [1e-14 + 0j, 0j],  # trimmed to nothing
        [np.complex128(-1 + 0.5j), 0.3 + 0j, -2j, 0.7 + 0j, 1 + 0j, 0.1 - 0.2j],
    ]

    def test_mixed_rows_match_np_roots(self):
        got = _np_roots(self.MIXED_ROWS)
        assert len(got) == len(self.MIXED_ROWS)
        for roots, row in zip(got, self.MIXED_ROWS):
            assert _same(roots, _roots_oracle(row)), row

    @pytest.mark.parametrize("stack_entries", [1 << 18, 40])
    def test_random_rows_match_np_roots(self, stack_entries, monkeypatch):
        # a small stack bound splits each degree's rows into many chunks
        monkeypatch.setattr(correspondence, "_STACK_ENTRIES", stack_entries)
        rng = random.Random(3)
        rows = [[complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
                 for _ in range(rng.randint(1, 8))] for _ in range(300)]
        for roots, row in zip(_np_roots(rows), rows):
            assert _same(roots, _roots_oracle(row))

    @pytest.mark.parametrize("text", ["(2*z^2 + z)/(z^2 - 1)", "z^2 - 1",
                                      "(1/4*z^4 - 2*z)/(z^3 + 1)"])
    def test_preimages_match_per_point_fibers(self, text):
        # over 2 the first map's fiber drops to degree one, over 0 its
        # constant term vanishes, and the fiber over infinity (None) is
        # the denominator's roots, or a constant row for the polynomial
        view = _FloatView(parse_map(text))
        cloud = [None, 2 + 0j, 0j, 0.3 + 0.1j, np.complex128(-3 + 2j), 1.5 - 0.5j]
        want = [root for value in cloud for root in _fiber_oracle(view, value)]
        assert _same(view.preimages(cloud), want)


class TestBoundReports:
    def test_example_pair(self):
        report = verify_lemma4(E2_G, E2_H)
        assert report == BoundReport(p=3, d=4, s_c=E2_ORBIT_SIZE, bound=192,
                                     bound_ok=True)

    def test_equal_pair(self):
        report = verify_lemma4(E2_G, E2_G)
        assert report.p == 1
        assert report.s_c == 1
        assert report.bound_ok

    def test_rotated_odd_cubic(self):
        f0 = parse_map("z^3 + z")
        rotated = parse_map("-z").compose(f0)
        report = verify_lemma4(rotated, f0)
        assert report == BoundReport(p=2, d=3, s_c=2, bound=18, bound_ok=True)

    def test_growth_on_extended_tail(self):
        seq = ritt_sequence(E2_G, E2_H, min_steps=4)
        assert [s.r for s in seq.steps] == [2, 1, 1, 1]
        reports = verify_lemma5(seq)
        assert len(reports) == 2
        assert all(r.ok for r in reports)
        assert {(r.s_prev, r.s_next) for r in reports} == {(3, 3)}

    def test_growth_on_trivial_tail(self):
        f = parse_map("z^2")
        seq = ritt_sequence(f, f, min_steps=3)
        reports = verify_lemma5(seq)
        assert len(reports) == 2
        assert all(r.ok and r.s_prev == 1 and r.s_next == 1 for r in reports)
