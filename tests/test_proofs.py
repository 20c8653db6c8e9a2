"""The syllogism calculus: rule schemas, saturation, derivability with
replayable derivations, numerically explicit sets, and the incompleteness
instance."""

import random

import pytest

from numlog.c1 import build_system, entails, normalize
from numlog.errors import InputError
from numlog.linsys import EQ, _presolve
from numlog.logic import Lit, at_least, at_most, evaluate, negate_atom
from numlog.proofs import (check_derivation, derives,
                           incompleteness_instance, is_numerically_explicit,
                           render_derivation, rule_conclusions, saturate)
from helpers import eager_derives, random_structure, random_unary_atom

P, Q, R_ = Lit("p"), Lit("q"), Lit("r")


class TestRules:
    def test_r1_chains_uppers(self):
        got = rule_conclusions("R1", at_most(3, Lit("b"), Lit("c")),
                               at_most(4, Lit("d"), Lit("c", False)))
        assert got == [at_most(7, Lit("b"), Lit("d"))]

    def test_r2_subtracts(self):
        got = rule_conclusions("R2", at_least(13, Lit("a"), Lit("b")),
                               at_most(3, Lit("b"), Lit("c")))
        assert got == [at_least(10, Lit("a"), Lit("c", False))]

    def test_r3_caps_remainder(self):
        got = rule_conclusions("R3", at_most(5, P, P), at_least(2, P, Q))
        assert got == [at_most(3, P, Q.opposite())]

    def test_no_unification_gives_none(self):
        assert rule_conclusions("R1", at_most(1, P, Q), at_most(1, P, Q)) == []

    def test_rule_soundness_standard_semantics(self):
        rng = random.Random(107)
        preds = ["p", "q", "r"]
        checked = 0
        while checked < 1000:
            rule = rng.choice(["R1", "R2", "R3"])
            l1 = Lit(rng.choice(preds), rng.random() < 0.5)
            l2 = Lit(rng.choice(preds), rng.random() < 0.5)
            l3 = Lit(rng.choice(preds), rng.random() < 0.5)
            c, d = rng.randint(0, 5), rng.randint(0, 5)
            if rule == "R1":
                a, b = at_most(c, l1, l2), at_most(d, l2.opposite(), l3)
            elif rule == "R2":
                a, b = at_least(c, l1, l2), at_most(d, l2, l3)
            else:
                a, b = at_most(c, l1, l1), at_least(d, l1, l2)
            for concl in rule_conclusions(rule, a, b):
                s = random_structure(rng, preds)
                if evaluate(s, a) and evaluate(s, b):
                    assert evaluate(s, concl), (rule, a, b, concl)
                    checked += 1


class TestSaturateAndDerive:
    def test_axiom_instance_from_empty_premises(self):
        res = derives([], at_least(0, P, Q))
        assert res.derivable
        assert res.derivation.rule == "axiom"
        assert check_derivation(res.derivation, [])

    def test_flagship_argument_derivable(self):
        prem = [at_least(13, Lit("a"), Lit("b")),
                at_most(3, Lit("b"), Lit("c")),
                at_most(4, Lit("d"), Lit("c", False))]
        table = saturate(prem)
        pair = tuple(sorted((Lit("a"), Lit("d", False)),
                            key=lambda l: l.sort_key))
        assert table.lower_of(pair) >= 6
        res = derives(prem, at_least(6, Lit("a"), Lit("d", False)))
        assert res.derivable and check_derivation(res.derivation, prem)

    def test_additivity_not_derivable_bare(self):
        prem = [at_least(2, P, Q), at_least(3, P, Q.opposite())]
        res = derives(prem, at_least(5, P, P))
        assert not res.derivable
        assert res.complete  # fixpoint-certified, not a budget artifact

    def test_additivity_derivable_when_explicit(self):
        prem = [at_least(2, P, Q), at_least(3, P, Q.opposite())]
        def exact(c, lit):
            return [at_most(c, lit, lit), at_least(c, lit, lit)]
        explicit = prem + exact(5, P) + exact(5, P.opposite()) \
            + exact(2, Q) + exact(8, Q.opposite())
        assert is_numerically_explicit(explicit) is not None
        res = derives(explicit, at_least(5, P, P))
        assert res.derivable and check_derivation(res.derivation, explicit)

    def test_ex_falso_derives_anything(self):
        prem = [at_least(2, P, P), at_most(1, P, P)]
        res = derives(prem, at_least(99, Lit("z"), Lit("w")))
        assert res.derivable
        assert res.derivation.rule == "exfalso"
        assert check_derivation(res.derivation, prem)

    def test_weakened_goals_replay(self):
        prem = [at_least(13, Lit("a"), Lit("b"))]
        res = derives(prem, at_least(4, Lit("a"), Lit("b")))
        assert res.derivable and check_derivation(res.derivation, prem)
        res2 = derives(prem + [at_most(2, Lit("a"), Lit("a"))],
                       at_most(9, Lit("a"), Lit("b", False)))
        assert res2.derivable
        assert check_derivation(res2.derivation,
                                prem + [at_most(2, Lit("a"), Lit("a"))])

    def test_saturation_bounds_all_replay(self):
        rng = random.Random(109)
        preds = ["p", "q"]
        for _ in range(30):
            prem = []
            for _ in range(rng.randint(1, 4)):
                l1 = Lit(rng.choice(preds), rng.random() < 0.5)
                l2 = Lit(rng.choice(preds), rng.random() < 0.5)
                if rng.random() < 0.5:
                    prem.append(at_least(rng.randint(0, 4), l1, l2))
                else:
                    prem.append(at_most(rng.randint(0, 4), l1, l2))
            table = saturate(prem)
            if table.contradiction is not None:
                continue
            for pair, val in table.lower.items():
                res = derives(prem, at_least(val, *pair))
                assert res.derivable
                assert check_derivation(res.derivation, prem)
            for pair, val in table.upper.items():
                res = derives(prem, at_most(val, *pair))
                assert res.derivable
                assert check_derivation(res.derivation, prem)

    def test_dominance_completeness(self):
        # adding an already-derivable sentence never changes any verdict
        rng = random.Random(113)
        prem = [at_least(6, P, Q), at_most(2, Q, R_), at_most(3, P, P.opposite())]
        goals = [at_least(rng.randint(0, 8),
                          Lit(rng.choice(["p", "q", "r"]), rng.random() < 0.5),
                          Lit(rng.choice(["p", "q", "r"]), rng.random() < 0.5))
                 for _ in range(20)]
        [derivable_extra] = rule_conclusions("R2", prem[0], prem[1])
        assert derives(prem, derivable_extra).derivable
        for goal in goals:
            assert derives(prem, goal).derivable == \
                derives(prem + [derivable_extra], goal).derivable

    def test_monotone_termination(self):
        phi, _ = incompleteness_instance(6)
        table = saturate(phi)
        assert table.complete and table.contradiction is None


class TestBudget:
    @staticmethod
    def entries(table):
        return sum(1 for prov in (table.prov_lower, table.prov_upper)
                   for got in prov.values() for _, just in got
                   if just[0] != "axiom")

    def test_budget_caps_updates(self):
        phi, _ = incompleteness_instance(6)
        full = saturate(phi)
        assert full.complete and full.updates == self.entries(full)
        for budget in (0, 10, 100, 1000):
            table = saturate(phi, max_updates=budget)
            assert not table.complete
            assert table.updates == self.entries(table)
            assert table.updates <= max(budget + 1, len(phi))

    def test_budget_never_flips_a_verdict(self):
        rng = random.Random(127)
        preds = ["p", "q", "r"]
        for _ in range(150):
            prem = [random_unary_atom(rng, preds, max_bound=6)
                    for _ in range(rng.randint(1, 6))]
            goal = random_unary_atom(rng, preds, max_bound=6)
            want = derives(prem, goal)
            assert want.complete
            for budget in (0, 1, 3, 10, 30):
                got = derives(prem, goal, max_updates=budget)
                if got.derivable != want.derivable:
                    assert not got.derivable and not got.complete
                if got.derivable:
                    assert check_derivation(got.derivation, prem)


class TestNumericallyExplicit:
    def test_instance_is_explicit_with_total_42(self):
        phi, _ = incompleteness_instance(6)
        got = is_numerically_explicit(phi)
        assert got is not None
        total, counts = got
        assert total == 6 * (6 + 1)
        assert counts["t"] == 21 and counts["r"] == 21
        assert counts["t1"] == 3 and counts["s1"] == 9 and counts["s6"] == 12

    def test_empty_set(self):
        assert is_numerically_explicit([]) is None

    def test_missing_one_of_four(self):
        phi = [at_most(2, P, P), at_least(2, P, P), at_most(3, P.opposite(),
                                                            P.opposite())]
        assert is_numerically_explicit(phi) is None


class TestIncompletenessInstance:
    def test_atom_counts(self):
        m = 6
        phi, goals = incompleteness_instance(m)
        system_part = 1 + (m + 1) + (m + 1) + (m + 1) * m // 2 + m \
            + m * (m + 1) + 2 * (m - 1) + 2
        assert system_part == 96
        explicit_part = 4 + 4 * (m + 1) + 4 * m + 4
        assert len(phi) == system_part + explicit_part == 156
        assert len(goals) == m + 1

    @pytest.mark.parametrize("m, rows, total", [(6, 22, 42), (8, 28, 54)])
    def test_presolve_folds_the_exact_counts(self, m, rows, total):
        # |p| and |!p| are both exact for every predicate, so each !p row
        # folds into the domain-size row, which becomes "= total"
        phi, goals = incompleteness_instance(m)
        atoms = phi + [negate_atom(goals[0])]
        preds = sorted(set().union(*(a.predicates() for a in atoms)))
        (branch,) = normalize(atoms)
        system = build_system(branch, preds).system
        presolved = _presolve(system)
        assert len(presolved) == rows
        assert [(rel, c) for row, rel, c in presolved
                if len(row) == system.num_vars] == [(EQ, total)]

    @pytest.mark.parametrize("m", range(7, 11))
    def test_every_goal_is_entailed(self, m):
        phi, goals = incompleteness_instance(m)
        assert all(entails(phi, goal) for goal in goals)

    def test_satisfiable_with_42_element_model(self):
        from numlog.c1 import decide_sat, SAT
        phi, _ = incompleteness_instance(6)
        res = decide_sat(phi)
        assert res.status == SAT
        assert res.witness.domain_size == 42
        assert len(res.witness.unary_ext("r")) == 21
        # every cell t_j meets r in exactly one element
        for j in range(1, 8):
            cell = res.witness.unary_ext(f"t{j}")
            assert len(cell) == 3
            assert len(cell & res.witness.unary_ext("r")) == 1

    def test_some_goal_not_derivable(self):
        phi, goals = incompleteness_instance(6)
        results = [derives(phi, g) for g in goals]
        assert all(r.complete for r in results)
        assert any(not r.derivable for r in results)

    @pytest.mark.parametrize("m", [6, 8])
    def test_derives_over_the_lazy_table_is_unchanged(self, m):
        phi, goals = incompleteness_instance(m)
        derivable = 0
        for goal in goals:
            tj = goal.lits[1] if goal.lits[0].pred == "r" else goal.lits[0]
            # the goal, its dual, and >=3 (t_j & t) by R2 from two premises
            for g in (goal, negate_atom(goal), at_least(3, tj, Lit("t"))):
                res = derives(phi, g)
                assert (res.derivable, res.derivation, res.complete) == \
                    eager_derives(phi, g)
                derivable += res.derivable
        assert derivable == len(goals)

    def test_rejects_small_m(self):
        with pytest.raises(InputError):
            incompleteness_instance(5)


def test_render_derivation_shows_rules():
    prem = [at_least(13, Lit("a"), Lit("b")), at_most(3, Lit("b"), Lit("c"))]
    res = derives(prem, at_least(10, Lit("a"), Lit("c", False)))
    text = render_derivation(res.derivation)
    assert "[R2]" in text and "premise" in text
