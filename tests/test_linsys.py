"""Exact LP/ILP kernels and the sparse-solution machinery."""

import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from operator import itemgetter
from pathlib import Path

import pytest

from helpers import (dense_solve, random_unary_atom, reference_build_system,
                     reference_ilp_solve)
from numlog import linsys
from numlog.c1 import build_system, entails, normalize
from numlog.errors import BudgetExhaustedError, InputError, NotASolutionError
from numlog.linsys import (_FLIP, EQ, GE, LE, LinearSystem, _greedy_seed,
                           _presolve, _Tableau, check_prop2_bound,
                           enumerate_solutions, ilp_solve, lp_feasible,
                           many_nonzeros_instance, natural_sparsity_bound,
                           sparsify_natural, sparsify_rational,
                           system_from_rows)
from numlog.logic import negate_atom
from numlog.proofs import incompleteness_instance
from numlog.reductions import encode_3col, graph


def nnz(x):
    return sum(1 for v in x if v != 0)


def random_boolean_system(rng, max_m=6, max_l=12, max_val=3):
    m = rng.randint(1, max_m)
    l = rng.randint(m, max_l)
    coeffs = [[rng.randint(0, 1) for _ in range(l)] for _ in range(m)]
    planted = [rng.randint(0, max_val) if rng.random() < 0.6 else 0
               for _ in range(l)]
    rhs = [sum(a * v for a, v in zip(row, planted)) for row in coeffs]
    return system_from_rows(coeffs, [EQ] * m, rhs), tuple(planted)


class TestLpFeasible:
    def test_simple_feasible(self):
        sol = lp_feasible(system_from_rows([[1, 1]], [EQ], [1]))
        assert sol is not None and sum(sol) == 1 and all(v >= 0 for v in sol)

    def test_contradictory(self):
        assert lp_feasible(system_from_rows([[1, 0], [1, 0]],
                                            [EQ, EQ], [1, 2])) is None

    def test_unique_solution_system_feasible_over_rationals(self):
        s = many_nonzeros_instance(6)
        sol = lp_feasible(s)
        assert sol is not None and s.is_solution(sol)

    def test_inequalities_and_rationals(self):
        s = system_from_rows([[Fraction(1, 2), 1], [1, -1]],
                             [GE, LE], [Fraction(3, 2), 0])
        sol = lp_feasible(s)
        assert sol is not None and s.is_solution(sol)

    def test_planted_systems_always_found(self):
        rng = random.Random(5)
        for _ in range(200):
            s, _ = random_boolean_system(rng)
            sol = lp_feasible(s)
            assert sol is not None and s.is_solution(sol)
            assert all(v >= 0 for v in sol)

    def test_results_are_exact_fractions(self):
        s = system_from_rows([[3, 7], [2, -1]], [EQ, EQ], [10, 1])
        sol = lp_feasible(s)
        assert sol == (1, 1)
        assert all(isinstance(v, Fraction) for v in sol)

    def test_zero_rows(self):
        s = system_from_rows([[0, 0]], [GE], [1])
        assert lp_feasible(s) is None

    def test_rejects_floats(self):
        with pytest.raises(InputError):
            system_from_rows([[0.5]], [EQ], [1])


class TestSparsifyRational:
    def test_three_vars_one_row(self):
        s = system_from_rows([[1, 1, 1]], [EQ], [3])
        out = sparsify_rational(s, [1, 1, 1])
        assert nnz(out) <= 1 and s.is_solution(out)

    def test_already_sparse_unchanged(self):
        s = system_from_rows([[1, 1], [0, 1]], [EQ, EQ], [2, 1])
        out = sparsify_rational(s, [1, 1])
        assert out == (1, 1)

    def test_unique_system_gains_a_zero(self):
        s = many_nonzeros_instance(6)
        out = sparsify_rational(s, [Fraction(1)] * 7)
        assert nnz(out) <= 6
        assert any(v == 0 for v in out)
        assert s.is_solution(out)

    def test_zero_set_grows_monotonically(self):
        rng = random.Random(23)
        for _ in range(100):
            s, planted = random_boolean_system(rng)
            out = sparsify_rational(s, planted)
            assert s.is_solution(out)
            assert all(out[j] == 0 for j, v in enumerate(planted) if v == 0)
            assert nnz(out) <= s.m

    def test_rejects_non_solution(self):
        s = system_from_rows([[1, 1]], [EQ], [2])
        with pytest.raises(NotASolutionError):
            sparsify_rational(s, [1, 0])

    def test_rejects_inequalities(self):
        s = system_from_rows([[1]], [LE], [2])
        with pytest.raises(InputError):
            sparsify_rational(s, [1])


class TestSparsifyNatural:
    def test_bound_already_met(self):
        s = system_from_rows([[1, 1, 1]], [EQ], [2])
        assert sparsify_natural(s, (2, 0, 0)) == (2, 0, 0)

    def test_seven_ones_to_three(self):
        s = system_from_rows([[1] * 7], [EQ], [7])
        assert natural_sparsity_bound(1, 7) == 3
        out = sparsify_natural(s, [1] * 7)
        assert nnz(out) <= 3 and s.is_solution(out)

    def test_random_harness(self):
        rng = random.Random(31)
        for _ in range(200):
            s, planted = random_boolean_system(rng)
            out = sparsify_natural(s, planted)
            assert s.is_solution(out)
            assert all(isinstance(v, int) and v >= 0 for v in out)
            assert nnz(out) <= natural_sparsity_bound(s.m, s.num_vars)

    def test_rejects_non_boolean(self):
        s = system_from_rows([[2, 1]], [EQ], [2])
        with pytest.raises(InputError):
            sparsify_natural(s, [1, 0])

    def test_wide_supports(self):
        # supports of 41-90 columns over at most 5 rows, so equal columns
        # always exist and the first exchanges spend them
        rng = random.Random(43)
        for _ in range(60):
            m, l = rng.randint(1, 5), rng.randint(41, 90)
            coeffs = [[rng.randint(0, 1) for _ in range(l)] for _ in range(m)]
            planted = [rng.randint(1, 3) for _ in range(l)]
            rhs = [sum(a * v for a, v in zip(row, planted)) for row in coeffs]
            s = system_from_rows(coeffs, [EQ] * m, rhs)
            out = sparsify_natural(s, planted)
            assert s.is_solution(out)
            assert nnz(out) <= natural_sparsity_bound(m, l)


class TestProp2Bound:
    def test_m1_single_nonzero(self):
        s = system_from_rows([[1, 1]], [EQ], [2])
        assert check_prop2_bound(s, (2, 0))
        assert not check_prop2_bound(s, (1, 1))

    def test_m2_exhaustive_minimal_supports(self):
        # oracle: minimal-support solutions found by full box enumeration
        rng = random.Random(41)
        for _ in range(40):
            s, planted = random_boolean_system(rng, max_m=2, max_l=6, max_val=2)
            if s.m != 2:
                continue
            sols = enumerate_solutions(s, [3] * s.num_vars)
            assert sols, "planted solution must be in the box"
            minimal = min(sols, key=nnz)
            assert check_prop2_bound(s, minimal)  # bound is 6 at m=2

    def test_m6_harness(self):
        rng = random.Random(43)
        for _ in range(20):
            s, planted = random_boolean_system(rng, max_m=6, max_l=8, max_val=1)
            if s.m < 6:
                continue
            sols = enumerate_solutions(s, [2] * s.num_vars)
            minimal = min(sols, key=nnz)
            assert check_prop2_bound(s, minimal)


class TestManyNonzerosInstance:
    def test_m6_shape(self):
        s = many_nonzeros_instance(6)
        assert (s.m, s.num_vars) == (6, 7)
        assert [dict(s.rows[0]).get(j, 0) for j in range(7)] == [1, 1, 1, 0, 0, 0, 0]
        assert [dict(s.rows[5]).get(j, 0) for j in range(7)] == [1, 1, 0, 1, 0, 0, 1]
        assert [int(c) for c in s.rhs] == [3, 3, 3, 3, 3, 4]
        assert s.is_boolean

    def test_m6_rows_pinned(self):
        s = many_nonzeros_instance(6)
        assert s.rows == (((0, 1), (1, 1), (2, 1)), ((1, 1), (2, 1), (3, 1)),
                          ((2, 1), (3, 1), (4, 1)), ((3, 1), (4, 1), (5, 1)),
                          ((4, 1), (5, 1), (6, 1)),
                          ((0, 1), (1, 1), (3, 1), (6, 1)))
        assert s.relations == (EQ,) * 6
        assert s.rhs == (3, 3, 3, 3, 3, 4)

    def test_m6_unique_solution_is_all_ones(self):
        s = many_nonzeros_instance(6)
        assert enumerate_solutions(s, [4] * 7) == [(1,) * 7]

    def test_m7_unique_by_enumeration(self):
        s = many_nonzeros_instance(7)
        assert enumerate_solutions(s, [4] * 8) == [(1,) * 8]

    def test_rejects_small_m(self):
        with pytest.raises(InputError):
            many_nonzeros_instance(5)


class TestIlpSolve:
    def test_unique_by_algebra(self):
        s = system_from_rows([[1, 1], [1, -1]], [EQ, EQ], [3, 1])
        assert ilp_solve(s, [3, 3]) == (2, 1)

    def test_unique_solution_system(self):
        s = many_nonzeros_instance(6)
        assert ilp_solve(s, [4] * 7) == (1,) * 7

    def test_zero_equals_one_infeasible(self):
        s = system_from_rows([[0, 0]], [EQ], [1])
        assert ilp_solve(s, [5, 5]) is None

    def test_agrees_with_enumeration(self):
        rng = random.Random(53)
        for _ in range(200):
            m = rng.randint(1, 3)
            l = rng.randint(1, 4)
            coeffs = [[rng.randint(-2, 2) for _ in range(l)] for _ in range(m)]
            rhs = [rng.randint(-3, 6) for _ in range(m)]
            rels = [rng.choice([LE, GE, EQ]) for _ in range(m)]
            s = system_from_rows(coeffs, rels, rhs)
            box = [rng.randint(0, 4) for _ in range(l)]
            expected = enumerate_solutions(s, box)
            got = ilp_solve(s, box)
            if expected:
                assert got is not None and s.is_solution(got)
                assert all(0 <= v <= b for v, b in zip(got, box))
            else:
                assert got is None

    def test_planted_boolean_agrees_with_enumeration(self):
        rng = random.Random(59)
        for _ in range(50):
            s, planted = random_boolean_system(rng, max_m=3, max_l=5)
            box = [3] * s.num_vars
            expected = enumerate_solutions(s, box)
            assert planted in expected
            assert ilp_solve(s, box) in expected

    def test_gcd_refutes_equality_rows_at_the_root(self):
        # each = row's coefficient gcd (2) does not divide its rhs (3); the
        # LP relaxation is feasible, so only the integer test refutes them
        # within one node
        for coeffs, box in (([-12, 18, -2], [9, 9, 9]),
                            ([4, 8, -4, -18, -4], [9, 5, 5, 1, 12])):
            s = system_from_rows([coeffs], [EQ], [3])
            assert lp_feasible(s) is not None
            assert ilp_solve(s, box, max_nodes=1) is None

    @pytest.mark.parametrize("k", [1, 10**6])
    def test_seed_raises_as_far_as_the_rows_allow(self, k, monkeypatch):
        # 2x + 3y >= 10k with x <= 4k: x rises to the slack of its <= row,
        # then y by ceil(need / 3); no LP is solved at any scale
        calls = []
        monkeypatch.setattr(_Tableau, "solve",
                            lambda self: calls.append(1))
        s = system_from_rows([[2, 3], [1, 0]], [GE, LE], [10 * k, 4 * k])
        assert ilp_solve(s, [10 * k] * 2) == (4 * k, -(-2 * k // 3))
        assert not calls

    def test_deep_chain_exhausts_the_node_budget(self):
        # integer-infeasible (eliminating y leaves 8x - 10z = 11), but the
        # LP relaxation stays feasible deep down the search: the budget ends it
        s = system_from_rows([[-3, 1, 3], [-1, 3, -1]], [EQ, EQ], [-3, 2])
        assert enumerate_solutions(s, [30] * 3) == []
        with pytest.raises(BudgetExhaustedError):
            ilp_solve(s, [1000] * 3, max_nodes=200)


class TestEnumerateSolutions:
    def test_pairs_summing_to_two(self):
        s = system_from_rows([[1, 1]], [EQ], [2])
        assert enumerate_solutions(s, [2, 2]) == [(0, 2), (1, 1), (2, 0)]

    def test_infeasible_gives_empty(self):
        s = system_from_rows([[1]], [EQ], [9])
        assert enumerate_solutions(s, [3]) == []

    def test_volume_cap(self):
        s = system_from_rows([[1] * 10], [EQ], [5])
        with pytest.raises(BudgetExhaustedError):
            enumerate_solutions(s, [9] * 10)


def test_rows_are_stored_scaled():
    # each rational row is multiplied by the lcm of its denominators
    s = system_from_rows([[1, Fraction(1, 2)], [0, 3]], [LE, EQ],
                         [Fraction(7, 3), 4])
    assert (s.rows, s.rhs) == ((((0, 6), (1, 3)), ((1, 3),)), (14, 4))
    # 0/1 rows are stored as they are, zero entries dropped
    s = system_from_rows([[1, 0, 1], [0, 1, 1]], [LE, GE], [2, 0])
    assert (s.rows, s.rhs) == ((((0, 1), (2, 1)), ((1, 1), (2, 1))), (2, 0))


def test_boolean_flag():
    assert system_from_rows([[1, 0]], [EQ], [2]).is_boolean
    assert not system_from_rows([[2, 0]], [EQ], [2]).is_boolean
    assert not system_from_rows([[1, 0]], [EQ], [Fraction(1, 2)]).is_boolean


def test_every_produced_value_is_reduced_and_exact():
    # randomized audit: solver outputs are ints or canonical Fractions
    import math
    rng = random.Random(61)
    for _ in range(50):
        m = rng.randint(1, 3)
        l = rng.randint(2, 5)
        coeffs = [[Fraction(rng.randint(-3, 3), rng.randint(1, 4))
                   for _ in range(l)] for _ in range(m)]
        rhs = [Fraction(rng.randint(-4, 8), rng.randint(1, 3))
               for _ in range(m)]
        s = system_from_rows(coeffs, [rng.choice([LE, GE, EQ])
                                      for _ in range(m)], rhs)
        sol = lp_feasible(s)
        if sol is None:
            continue
        assert s.is_solution(sol)
        for v in sol:
            assert isinstance(v, Fraction) and not isinstance(v, float)
            assert math.gcd(v.numerator, v.denominator) == 1
            assert v.denominator > 0


class TestScaleInvariance:
    """Multiplying a row by a positive rational keeps every answer.

    The stored rows differ (scaling clears denominators but keeps a row's
    common factor), but the solvers' presolve divides each row by its gcd,
    so both systems reach the LP as the same rows and the LP vertex and
    the ILP solution are equal, not just equally feasible.
    """

    @staticmethod
    def pair(rng, relations):
        m = len(relations)
        l = rng.randint(2, 5)
        coeffs = [[Fraction(rng.randint(-3, 3), rng.randint(1, 4))
                   for _ in range(l)] for _ in range(m)]
        rhs = [Fraction(rng.randint(-4, 8), rng.randint(1, 3))
               for _ in range(m)]
        factors = [Fraction(rng.randint(1, 9), rng.randint(1, 9))
                   for _ in range(m)]
        s = system_from_rows(coeffs, relations, rhs)
        t = system_from_rows([[a * f for a in row]
                              for row, f in zip(coeffs, factors)],
                             relations, [c * f for c, f in zip(rhs, factors)])
        return s, t

    def test_lp_ilp_and_membership(self):
        rng = random.Random(67)
        for _ in range(150):
            s, t = self.pair(rng, [rng.choice([LE, GE, EQ])
                                   for _ in range(rng.randint(1, 3))])
            a = lp_feasible(s)
            assert lp_feasible(t) == a
            if a is not None:
                assert s.is_solution(a) and t.is_solution(a)
            box = [rng.randint(0, 3) for _ in range(s.num_vars)]
            a = ilp_solve(s, box)
            assert ilp_solve(t, box) == a
            if a is not None:
                assert s.is_solution(a) and t.is_solution(a)
            for _ in range(5):
                x = [Fraction(rng.randint(0, 6), rng.randint(1, 2))
                     for _ in range(s.num_vars)]
                assert s.is_solution(x) == t.is_solution(x)

    def test_scaled_rows_reach_the_same_vertex(self):
        # without a gcd-dividing presolve, phase 1 reached (6, 0, 9) on the
        # first system and (0, 3, 3/2) on the second
        rels = [LE, GE, EQ]
        s = system_from_rows([[1, 0, -1], [-2, 1, 2], [-3, -1, 2]], rels,
                             [5, 6, 0])
        t = system_from_rows([[4, 0, -4], [-8, 4, 8], [-3, -1, 2]], rels,
                             [20, 24, 0])
        a = lp_feasible(s)
        assert a is not None and lp_feasible(t) == a

    def test_sparsify_rational(self):
        rng = random.Random(71)
        checked = 0
        for _ in range(150):
            s, t = self.pair(rng, [EQ] * rng.randint(1, 3))
            x = lp_feasible(s)
            if x is None:
                continue
            checked += 1
            assert sparsify_rational(s, x) == sparsify_rational(t, x)
        assert checked > 20


def random_small_system(rng, max_m=5, max_l=4):
    """2-max_m rows over 2-max_l columns, coefficients in [-3, 3]."""
    m, l = rng.randint(2, max_m), rng.randint(2, max_l)
    coeffs = [[rng.randint(-3, 3) for _ in range(l)] for _ in range(m)]
    rels = [rng.choice([LE, GE, EQ]) for _ in range(m)]
    return system_from_rows(coeffs, rels, [rng.randint(-6, 12) for _ in range(m)])


class TestPresolve:
    def test_conflicting_bounds(self):
        s = system_from_rows([[1], [1]], [LE, GE], [2, 3])
        assert _presolve(s) is None
        assert lp_feasible(s) is None and ilp_solve(s, [5]) is None

    def test_zero_rows(self):
        for rel, c in ((GE, 1), (LE, -1)):
            s = system_from_rows([[0, 0]], [rel], [c])
            assert _presolve(s) is None and lp_feasible(s) is None
        s = system_from_rows([[0, 0]], [EQ], [0])
        assert _presolve(s) == [] and lp_feasible(s) == (0, 0)

    def test_opposite_rows_merge(self):
        s = system_from_rows([[1, -1], [-1, 1]], [LE, GE], [1, -1])
        assert _presolve(s) == [(((0, 1), (1, -1)), LE, 1)]

    def test_bounds_meet_in_one_equation(self):
        s = system_from_rows([[2, 4], [1, 2]], [LE, GE], [6, 3])
        assert _presolve(s) == [(((0, 1), (1, 2)), EQ, 3)]

    def test_canonical_row_is_not_copied(self):
        s = system_from_rows([[1, 2, 0, 3], [2, 2, 0, 4], [2, 2, 0, 4]],
                             [LE, GE, LE], [5, 2, 3])
        out = _presolve(s)
        assert out[0][0] is s.rows[0]
        assert out[1:] == [(((0, 1), (1, 1), (3, 2)), GE, 1),
                           (((0, 2), (1, 2), (3, 4)), LE, 3)]

    # complementary 0/1 rows over three columns: {0} and {1, 2}
    ONES, R, R_ = ((0, 1), (1, 1), (2, 1)), ((0, 1),), ((1, 1), (2, 1))

    def test_equation_pair_folds_into_the_all_ones_row(self):
        s = system_from_rows([[1, 1, 1], [1, 0, 0], [0, 1, 1], [0, 2, 2]],
                             [GE, EQ, LE, GE], [1, 2, 3, 6])
        out = _presolve(s)
        assert out == [(self.ONES, EQ, 5), (self.R, EQ, 2)]
        # the first two input rows, as they are; the last two fold away
        assert out[0][0] is s.rows[0] and out[1][0] is s.rows[1]
        assert lp_feasible(s) is not None
        assert ilp_solve(s, [5] * 3) in enumerate_solutions(s, [5] * 3)

    def test_band_on_the_complement_of_an_equation(self):
        s = system_from_rows([[1, 0, 0], [0, 1, 1], [0, 1, 1], [1, 1, 1]],
                             [EQ, GE, LE, LE], [2, 1, 4, 9])
        assert _presolve(s) == [(self.R, EQ, 2), (self.ONES, LE, 6),
                                (self.ONES, GE, 3)]

    def test_of_two_equations_the_first_is_kept(self):
        s = system_from_rows([[0, 1, 1], [1, 1, 1], [1, 0, 0]],
                             [EQ, GE, EQ], [3, 1, 2])
        assert _presolve(s) == [(self.R_, EQ, 3), (self.ONES, EQ, 5)]

    def test_disagreeing_totals_are_refuted(self):
        # cells pq, p!q, !pq, !p!q: |p| + |!p| = 7 but |q| + |!q| = 8
        s = system_from_rows(
            [[1, 1, 1, 1], [1, 1, 0, 0], [0, 0, 1, 1], [1, 0, 1, 0],
             [0, 1, 0, 1]], [GE, EQ, EQ, EQ, EQ], [1, 3, 4, 5, 3])
        assert _presolve(s) is None
        assert lp_feasible(s) is None and ilp_solve(s, [8] * 4) is None

    def test_no_fold_without_an_all_ones_row(self):
        s = system_from_rows([[1, 0, 0], [0, 1, 1]], [EQ, LE], [2, 3])
        assert _presolve(s) == [(self.R, EQ, 2), (self.R_, LE, 3)]

    def test_no_fold_without_an_equation(self):
        s = system_from_rows([[1, 1, 1], [1, 0, 0], [0, 1, 1]],
                             [EQ, LE, GE], [5, 2, 3])
        assert _presolve(s) == [(self.ONES, EQ, 5), (self.R, LE, 2),
                                (self.R_, GE, 3)]

    def test_same_integer_solutions(self):
        rng = random.Random(83)
        for _ in range(300):
            s = random_small_system(rng, max_l=3)
            box = [3] * s.num_vars
            rows = _presolve(s)
            if rows is None:
                assert enumerate_solutions(s, box) == []
                continue
            t = LinearSystem(tuple(r for r, _, _ in rows),
                             tuple(rel for _, rel, _ in rows),
                             tuple(c for _, _, c in rows), s.num_vars)
            assert t.m <= s.m
            assert enumerate_solutions(t, box) == enumerate_solutions(s, box)


def presolve_case(rng):
    """1-4 groups of rows over 1-3 columns, each group one thing `_presolve`
    does: a row kept as drawn, a row times -3, -2, 2 or 3 (negated and/or
    divided by its gcd), a `<=` pair of a row and -2 times it whose bounds
    meet (merged into one `=` row), a `>=`/`<=` band on one row (kept as a
    `<=` and a `>=` row) or an empty row with a true relation (dropped)."""
    n = rng.randint(1, 3)
    rows = []
    for _ in range(rng.randint(1, 4)):
        a = [rng.randint(-3, 3) for _ in range(n)]
        rel, c = rng.choice([LE, GE, EQ]), rng.randint(-4, 8)
        kind = rng.choice(["kept", "scaled", "equation", "band", "empty"])
        if kind == "kept":
            rows.append((a, rel, c))
        elif kind == "scaled":
            k = rng.choice([-3, -2, 2, 3])
            rows.append(([k * v for v in a], rel, k * c))
        elif kind == "equation":
            rows += [(a, LE, c), ([-2 * v for v in a], LE, -2 * c)]
        elif kind == "band":
            rows += [(a, GE, c), (a, LE, c + rng.randint(1, 3))]
        else:
            rows.append(([0] * n, LE, rng.randint(0, 3)))
    rng.shuffle(rows)
    return system_from_rows(*zip(*rows))


def transposed(rows, n):
    """The n columns of presolved rows, each row negated as `add_rows`
    does."""
    cols = [[] for _ in range(n)]
    for i, (row, rel, c) in enumerate(rows):
        sign = -1 if c < 0 or (c == 0 and rel == GE) else 1
        for j, a in row:
            cols[j].append((i, sign * a))
    return list(map(tuple, cols))


def presolved_system(rows, n):
    return LinearSystem(tuple(r for r, _, _ in rows),
                        tuple(rel for _, rel, _ in rows),
                        tuple(c for _, _, c in rows), n)


class TestColdStart:
    def test_columns_are_the_transposed_presolved_rows(self):
        rng = random.Random(241)
        seen = dict.fromkeys(["in place", "negated", "divided", "merged",
                              "split", "made =", "dropped", "refuted"], 0)
        for _ in range(600):
            s = presolve_case(rng)
            n = s.num_vars
            rows = _presolve(s)
            tab = _Tableau(n)
            assert tab.start(s) == rows
            box = [rng.randint(3, 6)] * n
            expected = enumerate_solutions(s, box)
            got = ilp_solve(s, box)
            assert got in expected if expected else got is None
            x = lp_feasible(s)
            assert x is not None if expected else True
            assert x is None or s.is_solution(x)
            seen["dropped"] += any(not row for row in s.rows)
            if rows is None:
                seen["refuted"] += 1
                continue
            assert tab.cols[:n] == transposed(rows, n)
            cold = _Tableau(n)
            cold.add_rows(rows)
            assert vars(tab) == vars(cold)
            seen["in place"] += all(c is d for c, d in zip(tab.cols, s.columns))
            live = [(row, c) for row, c in zip(s.rows, s.rhs) if row]
            seen["negated"] += any(row[0][1] < 0 for row, _ in live)
            seen["divided"] += any(math.gcd(c, *map(itemgetter(1), row)) > 1
                                   for row, c in live)
            kept = {row for row, _, _ in rows}
            seen["merged"] += len(kept) < len(live)
            seen["split"] += len(kept) < len(rows)
            seen["made ="] += (sum(rel == EQ for _, rel, _ in rows)
                               > s.relations.count(EQ))
        assert min(seen.values()) >= 20, seen

    def test_columns_are_reused_exactly_when_the_rows_are_untouched(self):
        # untouched: as many presolved rows as input rows, each the input
        # row's own tuple at the same index, none that `add_rows` negates
        rng = random.Random(263)
        cases = [presolve_case, complement_case,
                 lambda rng: implicit_zero_case(rng)[1]]
        seen = dict.fromkeys(["reused", "divided", "negated", "merged",
                              "folded", "dropped"], 0)
        for _ in range(900):
            s = rng.choice(cases)(rng)
            n, rows = s.num_vars, _presolve(s)
            if rows is None or not any(s.rows):
                continue
            tab = _Tableau(n)
            assert tab.start(s) == rows
            assert tab.cols[:n] == transposed(rows, n)
            same = [c is d for c, d in zip(tab.cols, s.columns) if d]
            reused = all(same)
            assert reused or not any(same)
            assert reused == (len(rows) == s.m and all(
                row is r and c >= 0 and not (c == 0 and rel == GE)
                for (row, rel, c), r in zip(rows, s.rows)))
            live = [(row, c) for row, c in zip(s.rows, s.rhs) if row]
            kept = {row for row, _, _ in rows}
            forms = [form(row, c) for row, c in live]
            causes = {
                "divided": any(math.gcd(c, *map(itemgetter(1), row)) > 1
                               for row, c in live),
                "negated": any(row[0][1] < 0 for row, _ in live),
                "merged": len(set(forms)) < len({id(row) for row, _ in live}),
                "folded": any(f not in kept for f in forms),
                "dropped": len(live) < s.m}
            assert not reused or not any(causes.values()), causes
            seen["reused"] += reused
            for cause, happened in causes.items():
                seen[cause] += happened
        assert min(seen.values()) >= 20, seen

    def test_a_band_on_one_row_tuple_reuses_the_columns(self):
        row = ((0, 1), (1, 2))
        s = LinearSystem((row, row, ((1, 1),)), (GE, LE, EQ), (1, 4, 2), 2)
        tab = _Tableau(2)
        assert tab.start(s) == [(row, LE, 4), (row, GE, 1), (((1, 1),), EQ, 2)]
        assert all(c is d for c, d in zip(tab.cols, s.columns))
        # the same band over two equal tuples is a merge: the columns are built
        t = LinearSystem((row, tuple(list(row)), ((1, 1),)), s.relations,
                         s.rhs, 2)
        tab = _Tableau(2)
        assert tab.start(t) == [(row, LE, 4), (row, GE, 1), (((1, 1),), EQ, 2)]
        assert not any(c is d for c, d in zip(tab.cols, t.columns))
        assert tab.cols[:2] == list(t.columns)

    def test_a_batch_of_rows_is_its_rows_one_at_a_time(self):
        # on a solved tableau, so each row's residual reads the basis; the
        # batch appends its slacks before its artificials, so the basis is
        # compared as the basic columns
        rng = random.Random(269)
        batches = 0
        for _ in range(300):
            s = random_small_system(rng)
            rows = _presolve(s)
            if rows is None:
                continue
            root = _Tableau(s.num_vars)
            root.add_rows(rows)
            root.solve()
            extra = [(tuple((j, rng.randint(-3, 3) or 1)
                            for j in sorted(rng.sample(range(s.num_vars),
                                                       rng.randint(1, 2)))),
                      rng.choice([LE, GE, EQ]), rng.randint(-4, 6))
                     for _ in range(rng.randint(2, 4))]
            batch, single = root.copy(), root.copy()
            batch.add_rows(extra)
            for row in extra:
                single.add_rows([row])
            n = s.num_vars
            assert batch.cols[:n] == single.cols[:n]
            assert ([batch.cols[b] for b in batch.basis]
                    == [single.cols[b] for b in single.basis])
            assert (batch.binv, batch.xb, batch.art, batch.d) == (
                single.binv, single.xb, single.art, single.d)
            assert sorted(batch.cols) == sorted(single.cols)
            assert batch.solve() == single.solve()
            batches += 1
        assert batches >= 100, batches


def form(row, c):
    """A nonempty row as `_presolve` writes it: divided by the gcd of its
    coefficients and c, with a positive first entry."""
    g = math.gcd(c, *(a for _, a in row)) * (1 if row[0][1] > 0 else -1)
    return tuple((j, a // g) for j, a in row)


def complement_case(rng):
    """A 0/1 system over 2-4 columns: usually an all-ones row, then one or
    two planted pairs of rows over complementary supports, each side an
    `=` row, a `<=` or `>=` row or a `>=`/`<=` band, and sometimes a row of
    coefficients in [-2, 2].  Every row is scaled by 1, 2, -1 or -2."""
    n = rng.randint(2, 4)
    rows = []

    def add(support, rel, c):
        k = rng.choice([1, 2, -1, -2])
        rows.append(([k * (j in support) for j in range(n)],
                     _FLIP[rel] if k < 0 else rel, k * c))

    def side(support):
        kind, c = rng.choice([EQ, EQ, LE, GE, "band"]), rng.randint(0, 4)
        if kind == "band":
            add(support, GE, c)
            add(support, LE, c + rng.randint(0, 2))
        else:
            add(support, kind, c)

    if rng.random() < 0.85:
        add(range(n), rng.choice([GE, GE, LE, EQ]), rng.randint(1, 8))
    for _ in range(rng.randint(1, 2)):
        left = set(rng.sample(range(n), rng.randint(1, n - 1)))
        side(left)
        side(set(range(n)) - left)
    if rng.random() < 0.3:
        rows.append(([rng.randint(-2, 2) for _ in range(n)],
                     rng.choice([LE, GE, EQ]), rng.randint(-2, 6)))
    rng.shuffle(rows)
    return system_from_rows(*zip(*rows))


class TestComplementFold:
    def test_folded_systems_agree_with_the_oracles(self):
        rng = random.Random(251)
        folded = refuted = 0
        for _ in range(500):
            s = complement_case(rng)
            n, box = s.num_vars, [4] * s.num_vars
            rows = _presolve(s)
            tab = _Tableau(n)
            assert tab.start(s) == rows
            x = lp_feasible(s)
            assert (x is not None) == fourier_motzkin_feasible(s)
            assert x is None or s.is_solution(x)
            expected = enumerate_solutions(s, box)
            got = ilp_solve(s, box)
            assert got in expected if expected else got is None
            if rows is None:
                assert expected == []
                refuted += 1
                continue
            assert enumerate_solutions(presolved_system(rows, n), box) == expected
            assert tab.cols[:n] == transposed(rows, n)
            # a merged row keeps its coefficients; only a fold drops them
            kept = {row for row, _, _ in rows}
            folded += any(form(r, c) not in kept
                          for r, c in zip(s.rows, s.rhs) if r)
        assert folded >= 20 and refuted >= 20, (folded, refuted)


class TestWarmStart:
    def test_child_matches_cold_solve(self):
        # a child tableau (parent copy plus one branch row) decides the same
        # LP as a cold solve of the system plus that row
        rng = random.Random(79)
        children = 0
        for _ in range(300):
            s = random_small_system(rng)
            rows = _presolve(s)
            if rows is None:
                continue
            root = _Tableau(s.num_vars)
            root.add_rows(rows)
            if not root.solve():
                continue
            x = root.solution()
            assert s.is_solution(x)
            for j, v in enumerate(x):
                if v.denominator == 1:
                    continue
                floor = v.numerator // v.denominator
                for rel, c in ((LE, floor), (GE, floor + 1)):
                    t = LinearSystem(s.rows + (((j, 1),),),
                                     s.relations + (rel,), s.rhs + (c,),
                                     s.num_vars)
                    child = root.copy()
                    child.add_rows([(((j, 1),), rel, c)])
                    feasible = child.solve()
                    assert feasible == (lp_feasible(t) is not None)
                    if feasible:
                        assert t.is_solution(child.solution())
                    children += 1
            assert root.solution() == x
        assert children > 50

    def test_children_carry_their_branch_row(self):
        # the root vertex (0, 1/2, 0) is fractional; a child that did not see
        # its branch row would re-solve to the same vertex and keep splitting
        s = system_from_rows([[3, -2, -1], [-2, 2, -3]], [LE, LE], [-1, 5])
        assert ilp_solve(s, [1000] * 3, max_nodes=5) == (0, 0, 1)

    def test_ilp_agrees_with_enumeration_while_branching(self, monkeypatch):
        warm = 0
        add_rows = _Tableau.add_rows

        def counting(tab, rows):
            nonlocal warm
            warm += bool(tab.basis)
            add_rows(tab, rows)

        monkeypatch.setattr(_Tableau, "add_rows", counting)
        rng = random.Random(89)
        for _ in range(600):
            s = random_small_system(rng)
            box = [rng.randint(6, 9) for _ in range(s.num_vars)]
            expected = enumerate_solutions(s, box)
            got = ilp_solve(s, box)
            if expected:
                assert got in expected
            else:
                assert got is None
        assert warm > 100

    def test_boxes_stay_with_the_node_that_broke_them(self):
        # the earlier search shared every broken box with the nodes still
        # waiting; now a box joins only the LP of a node whose point breaks
        # it, and both searches answer as enumeration does
        rng = random.Random(97)
        shared = 0
        for _ in range(1500):
            s = random_small_system(rng, max_l=6)
            box = [rng.randint(0, 3) for _ in range(s.num_vars)]
            expected = enumerate_solutions(s, box)
            log = []
            for got in (ilp_solve(s, box),
                        reference_ilp_solve(s, box, log=log)):
                if expected:
                    assert got in expected
                else:
                    assert got is None
            shared += any(nodes > 1 and waiting for nodes, waiting in log)
        assert shared >= 20, shared


def c1_systems(atoms):
    """(system, per-cell caps) of every branch of `atoms` that `decide_sat`
    would search."""
    preds = sorted({l.pred for a in atoms for l in a.lits})
    for branch in normalize(atoms):
        built = build_system(branch, preds)
        if not built.infeasible:
            yield built.system, [branch.cap] * built.system.num_vars


class TestNodeLocalBoxes:
    def test_matches_the_shared_box_search_on_c1_systems(self):
        # seeded unary sets, seeded 3-colourings of 2-8 node graphs and the
        # entailment of every m=6 and m=8 goal: the same answer tuples
        rng = random.Random(131)
        sets = []
        for _ in range(400):
            preds = ["p", "q", "r", "s"][:rng.randint(1, 4)]
            sets.append([random_unary_atom(rng, preds)
                         for _ in range(rng.randint(1, 8))])
        for n in range(2, 9):
            pairs = [(i, j) for i in range(1, n + 1)
                     for j in range(i + 1, n + 1)]
            for _ in range(8):
                edges = rng.sample(pairs, len(pairs) // 2)
                sets.append(encode_3col(graph(n, edges)))
        for m in (6, 8):
            phi, goals = incompleteness_instance(m)
            sets += [list(phi) + [negate_atom(g)] for g in goals]
        solves = searched = 0
        for atoms in sets:
            for s, caps in c1_systems(atoms):
                assert ilp_solve(s, caps) == reference_ilp_solve(s, caps)
                solves += 1
                searched += _greedy_seed(s, caps) is None
        assert solves >= 400 and searched >= 150, (solves, searched)


class TestSparsePivot:
    def test_pivots_match_the_dense_loop(self):
        # every basis, binv, xb, d and pricing position after a cold solve
        # and after each warm-started child equals the dense loop's
        rng = random.Random(113)
        log = []
        for case in range(1200):
            s = presolve_case(rng) if case % 3 == 0 else random_small_system(
                rng, max_m=6, max_l=5)
            rows = _presolve(s)
            if rows is None:
                continue
            root = _Tableau(s.num_vars)
            root.add_rows(rows)
            ref = root.copy()
            assert root.solve() == dense_solve(ref, log)
            assert vars(root) == vars(ref)
            for j, v in enumerate(root.solution()):
                if v.denominator == 1:
                    continue
                floor = v.numerator // v.denominator
                for rel, c in ((LE, floor), (GE, floor + 1)):
                    child, ref_child = root.copy(), ref.copy()
                    child.add_rows([(((j, 1),), rel, c)])
                    ref_child.add_rows([(((j, 1),), rel, c)])
                    assert child.solve() == dense_solve(ref_child, log)
                    assert vars(child) == vars(ref_child)
        scaled = sum(piv != d for piv, d in log)
        over_one = sum(d > 1 for _, d in log)
        assert scaled >= 100 and over_one >= 100, (len(log), scaled, over_one)


    @pytest.mark.parametrize("rows, rels, rhs, branch, entry, scaled", [
        # the child's first pivot has piv 1 != d 3 and leaves on the branch
        # row, so it rescales binv[1], where a 4 in place of 3 is caught
        ([[-2, 3], [-2, -1]], [GE, LE], [11, 0], (1, GE, 4), (1, 1), True),
        # piv == d == 4: binv[0][0] meets the entering column, so it shifts
        # row 0's factor f, and f * lrow[k] stops being a multiple of d on
        # the leaving row's nonzeros
        ([[2, 1, -3], [-1, 2, -1], [-1, -2, 3]], [LE, EQ, LE], [3, 9, -1],
         (1, GE, 7), (0, 0), False),
    ])
    def test_a_non_exact_division_raises(self, rows, rels, rhs, branch,
                                         entry, scaled):
        # one binv entry off by one, in a row that the next pivot updates
        s = system_from_rows(rows, rels, rhs)
        root = _Tableau(s.num_vars)
        root.add_rows(_presolve(s))
        assert root.solve() and root.d > 1
        j, rel, c = branch
        log = []
        child = root.copy()
        child.add_rows([(((j, 1),), rel, c)])
        assert dense_solve(child, log)
        assert (log[0][0] != log[0][1]) == scaled
        i, k = entry
        assert root.binv[i][k]
        root.binv[i][k] += 1
        root.add_rows([(((j, 1),), rel, c)])
        log = []
        with pytest.raises(ArithmeticError, match="non-exact"):
            dense_solve(root.copy(), log)
        assert len(log) == 1 and (log[0][0] != log[0][1]) == scaled
        with pytest.raises(ArithmeticError, match="non-exact"):
            root.solve()


def fourier_motzkin_feasible(s):
    """Whether s has a nonnegative rational solution, by Fourier-Motzkin
    elimination over Fraction of every variable from the rows written as
    a . x <= c.  Each row is scaled to a leading coefficient of +-1, and of
    rows with equal coefficients only the least c is kept."""
    n = s.num_vars
    rows = {}

    def add(a, c):
        lead = abs(next((v for v in a if v), 1))
        a, c = tuple(Fraction(v, lead) for v in a), Fraction(c, lead)
        if a not in rows or c < rows[a]:
            rows[a] = c

    for row, rel, c in zip(s.rows, s.relations, s.rhs):
        a = [0] * n
        for j, v in row:
            a[j] = v
        if rel != GE:
            add(a, c)
        if rel != LE:
            add([-v for v in a], -c)
    for j in range(n):
        add([-(k == j) for k in range(n)], 0)
    for j in range(n):
        pos = [(a, c) for a, c in rows.items() if a[j] > 0]
        neg = [(a, c) for a, c in rows.items() if a[j] < 0]
        rows = {a: c for a, c in rows.items() if a[j] == 0}
        for ap, cp in pos:
            for an, cn in neg:
                fp, fn = -an[j], ap[j]
                add([fp * u + fn * v for u, v in zip(ap, an)], fp * cp + fn * cn)
    return all(c >= 0 for c in rows.values())


def beale_system(bound):
    """Beale's cycling example (x4..x7 of the original numbering) in
    phase-1 form: its two degenerate rows, x6 <= 1, and its objective
    -3/4 x4 + 20 x5 - 1/2 x6 + 6 x7 <= bound.  The optimum is -5/4."""
    return system_from_rows(
        [[Fraction(1, 4), -8, -1, 9],
         [Fraction(1, 2), -12, Fraction(-1, 2), 3],
         [0, 0, 1, 0],
         [Fraction(-3, 4), 20, Fraction(-1, 2), 6]],
        [LE, LE, LE, LE], [0, 0, 1, bound])


class TestPricing:
    def test_agrees_with_fourier_motzkin(self):
        rng = random.Random(97)
        feasible = 0
        for k in range(400):
            n, m = rng.randint(1, 4), rng.randint(1, 5)
            coeffs = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(m)]
            rels = [rng.choice([LE, GE, EQ]) for _ in range(m)]
            rhs = [0 if k % 2 else rng.randint(-3, 3) for _ in range(m)]
            s = system_from_rows(coeffs, rels, rhs)
            sol = lp_feasible(s)
            assert (sol is not None) == fourier_motzkin_feasible(s)
            if sol is not None:
                assert s.is_solution(sol)
                feasible += 1
        assert 100 < feasible < 400

    def test_beale_example_terminates(self, monkeypatch):
        monkeypatch.setattr("numlog.linsys.MAX_PIVOTS", 50)
        sol = lp_feasible(beale_system(Fraction(-5, 4)))
        assert sol == (1, 0, 1, 0)
        assert lp_feasible(beale_system(Fraction(-126, 100))) is None

    def test_copy_resumes_from_its_own_position(self, monkeypatch):
        s = system_from_rows([[-1, 2, -3, 3], [0, 1, -1, 3]], [EQ, EQ], [3, 4])
        tab = _Tableau(s.num_vars)
        tab.add_rows(_presolve(s))
        monkeypatch.setattr("numlog.linsys.MAX_PIVOTS", 0)
        with pytest.raises(BudgetExhaustedError):
            tab.solve()  # stops after its first pivot, which entered column 1
        monkeypatch.undo()
        child = tab.copy()
        assert child.pos == tab.pos == 2
        assert tab.solve() and tab.basis == [1, 2]
        assert child.pos == 2
        # pricing from position 0 would enter column 0 and end at basis
        # [1, 0]; the copy goes on from column 2, as the original did
        assert child.solve()
        assert (child.basis, child.xb, child.d) == (tab.basis, tab.xb, tab.d)
        assert s.is_solution(child.solution())


def implicit_zero_case(rng):
    """A 0/1 system over 3-6 columns, kind "zeroed", "refuted" or "decoy".
    A container `=` row R = c; inside it, for "zeroed" and "refuted", 1-3
    disjoint `=` or `>=` content rows that leave a column of R out and whose
    bounds sum to c or past it; then 0-2 decoys: rows inside R with lower
    bound at most c - 1 that all meet one column of R (the greedy picks at
    most one), or rows that leave R.  Sometimes one more random 0/1 row.
    Every row is scaled by 1, 2 or -1."""
    n = rng.randint(3, 6)
    rows = []

    def add(support, rel, c):
        k = rng.choice([1, 1, 2, -1])
        rows.append(([k * (j in support) for j in range(n)],
                     _FLIP[rel] if k < 0 else rel, k * c))

    container = rng.sample(range(n), rng.randint(2, n))
    kind = rng.choice(["zeroed", "refuted", "decoy"])
    c = rng.randint(1, 4)
    add(container, EQ, c)
    if kind != "decoy":
        parts = rng.randint(1, min(3, len(container) - 1, c))
        inner = rng.sample(container, rng.randint(parts, len(container) - 1))
        cuts = sorted(rng.sample(range(1, len(inner)), parts - 1))
        total = c + (kind == "refuted") * rng.randint(1, 2)
        splits = sorted(rng.sample(range(1, total), parts - 1))
        for part, lo in zip(
                [inner[a:b] for a, b in zip([0] + cuts, cuts + [len(inner)])],
                [b - a for a, b in zip([0] + splits, splits + [total])]):
            add(part, rng.choice([EQ, GE]), lo)
    hub = rng.choice(container)
    for _ in range(rng.randint(0, 2)):
        if c > 1 and rng.random() < 0.6:
            others = [j for j in container if j != hub]
            add({hub, *rng.sample(others, rng.randint(0, len(others) - 1))},
                rng.choice([EQ, GE]), rng.randint(1, c - 1))
        elif len(container) < n:
            outside = rng.choice([j for j in range(n) if j not in container])
            add({outside, *rng.sample(container, rng.randint(1, len(container)))},
                rng.choice([EQ, GE]), rng.randint(1, c + 1))
    if rng.random() < 0.3:
        add({j for j in range(n) if rng.random() < 0.5} or {0},
            rng.choice([LE, GE]), rng.randint(0, 4))
    rng.shuffle(rows)
    return kind, system_from_rows(*zip(*rows))


class TestImplicitZeros:
    def test_planted_zeros_agree_with_the_oracles(self):
        # the presolve keeps every column; a sum past the container's count
        # is left to the LP
        rng = random.Random(293)
        seen = dict.fromkeys(["zeroed", "refuted", "decoy"], 0)
        for _ in range(400):
            kind, s = implicit_zero_case(rng)
            n, box = s.num_vars, [3] * s.num_vars
            rows = _presolve(s)
            expected = enumerate_solutions(s, box)
            x = lp_feasible(s)
            assert (x is not None) == fourier_motzkin_feasible(s)
            assert x is None or s.is_solution(x)
            got = ilp_solve(s, box)
            assert got in expected if expected else got is None
            tab = _Tableau(n)
            assert tab.start(s) == rows
            if rows is None:
                assert not fourier_motzkin_feasible(s)
                continue
            assert enumerate_solutions(presolved_system(rows, n), box) == expected
            assert tab.cols[:n] == transposed(rows, n)
            cold = _Tableau(n)
            cold.add_rows(rows)
            assert vars(tab) == vars(cold)
            seen["zeroed"] += kind == "zeroed" and x is not None
            seen["refuted"] += kind == "refuted" and x is None
            seen["decoy"] += kind == "decoy"
        assert min(seen.values()) >= 20, seen

    def test_a_container_holds_its_disjoint_contents(self):
        # p = 5 holds the disjoint q >= 3 and r >= 2: the cells of p with
        # neither are 0; q >= 3 and r >= 3 need 6 > 5, which the LP refutes
        s = system_from_rows([[1, 1, 1, 0], [1, 0, 0, 0], [0, 1, 0, 0]],
                             [EQ, GE, GE], [5, 3, 2])
        assert all(x[2] == 0 for x in enumerate_solutions(s, [5] * 4))
        assert lp_feasible(s)[2] == 0 and ilp_solve(s, [5] * 4)[2] == 0
        s = system_from_rows([[1, 1, 1, 0], [1, 0, 0, 0], [0, 1, 0, 0]],
                             [EQ, GE, GE], [5, 3, 3])
        assert _presolve(s) is not None
        assert lp_feasible(s) is None and ilp_solve(s, [5] * 4) is None

    @pytest.mark.parametrize("m, cells", [(6, 128), (8, 512)])
    def test_premise_order_leaves_the_zeros(self, m, cells):
        # built without its derived kills, the system keeps the cells with
        # t and no t_j; the derived kills drop exactly those, in any premise
        # order, and every goal stays entailed
        rng = random.Random(307 + m)
        phi, goals = incompleteness_instance(m)
        for _ in range(5):
            order = rng.sample(phi, len(phi))
            for goal in goals:
                atoms = order + [negate_atom(goal)]
                preds = sorted(set().union(*(a.predicates() for a in atoms)))
                (branch,) = normalize(atoms)
                bit = {p: 1 << i for i, p in enumerate(preds)}
                tj = sum(bit[f"t{j}"] for j in range(1, m + 2))
                live = set(reference_build_system(branch, preds).live_types)
                t_only = {mask for mask in live
                          if mask & bit["t"] and not mask & tj}
                assert len(t_only) == cells
                assert set(build_system(branch, preds).live_types) == (
                    live - t_only)
                assert entails(order, goal)


EXACT_CHECK = """
import sys
from fractions import Fraction
from numlog import linsys, n2, psat, reductions
from numlog.linsys import EQ, system_from_rows
from numlog.logic import CellStructure, Lit, at_least, structure
if __debug__:
    sys.exit("asserts are on: run under -O")
check = sys.argv[1]
phi = [at_least(2, Lit("p"), Lit("p"))]
try:
    if check == "ilp":
        linsys.LinearSystem.is_solution = lambda self, x: False
        linsys.ilp_solve(system_from_rows([[1, 1]], [EQ], [2]), [2, 2])
    elif check == "psat":
        psat.prob = lambda assignment, clause: Fraction(-1)
        psat.psat_decide([((Lit("p"),), Fraction(1, 2))])
    elif check == "shrink":
        n2.size_bound = lambda phi: 0
        n2.shrink_model(structure(3, {"p": {0, 1, 2}}), phi)
    elif check == "shrink_cells":
        n2.size_bound = lambda phi: 0
        n2.shrink_model(CellStructure(("p",), ((1, 3),)), phi)
    elif check == "incompleteness":
        psat.approx_models = lambda assignment, atom: False
        psat.counterexample_assignment(6)
    elif check == "tiling":
        reductions.evaluate = lambda s, atom: False
        pairs = frozenset({("c1", "c1")})
        ts = reductions.TilingSystem(("c1",), pairs, pairs)
        tiling = reductions.brute_tiling(ts, 2, ["c1"])
        reductions.witness_model(ts, tiling, ["c1"], 1)
    else:
        # subsets whose column sums differ: 1 against 2
        linsys._colliding_subsets = lambda system, support: (
            (support[0],), (support[1], support[2]))
        linsys.sparsify_natural(system_from_rows([[1] * 7], [EQ], [7]),
                                [1] * 7)
except AssertionError:
    print("raised")
"""


@pytest.mark.parametrize("check", ["ilp", "psat", "shrink", "shrink_cells",
                                   "incompleteness", "tiling", "sparsify"])
def test_exact_checks_survive_python_O(check):
    # under -O a bare assert is stripped; these checks raise all the same
    src = Path(linsys.__file__).resolve().parent.parent
    env = {**os.environ, "PYTHONPATH": str(src)}
    out = subprocess.run([sys.executable, "-O", "-c", EXACT_CHECK, check],
                         capture_output=True, text=True, env=env, check=True)
    assert out.stdout.split() == ["raised"], out.stderr
