"""Probability assignments, threshold semantics, the PSAT decider, and the
incompleteness counterexample."""

import random
from fractions import Fraction

import pytest

from numlog import psat
from numlog.c1 import cell_system
from numlog.errors import BudgetExhaustedError, InputError, UnknownPredicateError
from numlog.linsys import lp_feasible, scaled_system
from numlog.logic import (And, Lit, Not, Or, Pred, _literal_bits, at_least,
                          at_most)
from numlog.proofs import incompleteness_instance, rule_conclusions
from numlog.psat import (ProbabilityAssignment, approx_models,
                         counterexample_assignment, parse_psat_instance,
                         prob, psat_decide, render_psat_instance)
from helpers import random_assignment

HALF = Fraction(1, 2)


def flat(letters, worlds, scale=None):
    w = Fraction(1, len(worlds))
    return ProbabilityAssignment(tuple(letters),
                                 tuple((frozenset(x), w) for x in worlds),
                                 scale)


class TestProb:
    def test_flat_two_worlds(self):
        p = flat(["p"], [{"p"}, set()])
        assert prob(p, (Lit("p"),)) == HALF

    def test_tautology_has_probability_one(self):
        rng = random.Random(127)
        for _ in range(50):
            p = random_assignment(rng, ["p", "q"])
            f = Or((Pred("p"), Not(Pred("p"))))
            assert prob(p, f) == 1

    def test_weights_must_sum_to_one(self):
        with pytest.raises(InputError):
            ProbabilityAssignment(("p",), ((frozenset(), HALF),))

    def test_unknown_letter(self):
        p = flat(["p"], [{"p"}])
        with pytest.raises(UnknownPredicateError):
            prob(p, (Lit("z"),))

    def test_worlds_merge(self):
        p = ProbabilityAssignment(("p",), ((frozenset({"p"}), HALF),
                                           (frozenset({"p"}), HALF)))
        assert len(p.worlds) == 1


class TestApproxModels:
    def test_zero_probability_refutes_at_least_one(self):
        p = flat(["t", "r"], [{"t"}, {"r"}], scale=2)
        assert prob(p, And((Pred("t"), Pred("r")))) == 0
        assert not approx_models(p, at_least(1, Lit("t"), Lit("r")))

    def test_at_least_zero_always_true(self):
        rng = random.Random(131)
        for _ in range(50):
            p = random_assignment(rng, ["p", "q"], scale=rng.randint(1, 9))
            assert approx_models(p, at_least(0, Lit("p"), Lit("q")))

    def test_threshold_is_exact(self):
        p = flat(["p"], [{"p"}, set()], scale=4)
        # P(p) = 1/2 = 2/4: at least 2 holds, at least 3 fails
        assert approx_models(p, at_least(2, Lit("p"), Lit("p")))
        assert not approx_models(p, at_least(3, Lit("p"), Lit("p")))
        assert approx_models(p, at_most(2, Lit("p"), Lit("p")))

    def test_needs_scale(self):
        p = flat(["p"], [{"p"}])
        with pytest.raises(InputError):
            approx_models(p, at_least(1, Lit("p"), Lit("p")))

    def test_unknown_letter(self):
        # as in prob, every letter must belong to the signature
        p = flat(["p"], [{"p"}], scale=1)
        for atom in (at_most(0, Lit("z"), Lit("z")),
                     at_least(1, Lit("z", False), Lit("p"))):
            with pytest.raises(UnknownPredicateError):
                approx_models(p, atom)


class TestPsatDecide:
    def test_contradictory_unit_probabilities(self):
        inst = [((Lit("p"),), Fraction(1)), ((Lit("p", False),), Fraction(1))]
        assert psat_decide(inst) is None

    def test_overlap_forced_to_one_tenth(self):
        inst = [((Lit("p"), Lit("q")), Fraction(1)),
                ((Lit("p"),), HALF),
                ((Lit("q"),), Fraction(3, 5))]
        p = psat_decide(inst)
        assert p is not None
        assert prob(p, And((Pred("p"), Pred("q")))) == Fraction(1, 10)
        for cl, q in inst:
            assert prob(p, cl) == q

    def test_consistent_01_instance_gets_point_mass(self):
        inst = [((Lit("p"),), Fraction(1)), ((Lit("q", False),), Fraction(1))]
        p = psat_decide(inst)
        assert p is not None and len(p.worlds) == 1

    def test_support_bound(self):
        rng = random.Random(137)
        for _ in range(40):
            letters = ["p", "q", "r"][:rng.randint(1, 3)]
            inst = []
            for _ in range(rng.randint(1, 3)):
                cl = tuple(Lit(rng.choice(letters), rng.random() < 0.5)
                           for _ in range(rng.randint(1, 2)))
                inst.append((cl, Fraction(rng.randint(0, 4), 4)))
            p = psat_decide(inst)
            if p is not None:
                assert len(p.worlds) <= len(inst) + 1
                for cl, q in inst:
                    assert prob(p, cl) == q

    @pytest.mark.parametrize("n", [24, 40])
    def test_an_implication_chain_past_twenty_letters_is_sat(self, n):
        # the 0/1 rows leave n + 1 live worlds, so no letter count caps it
        inst = [((Lit(f"x{i}", False), Lit(f"x{i + 1}")), Fraction(1))
                for i in range(n - 1)]
        inst += [((Lit("x0"),), Fraction(1, 3)),
                 ((Lit(f"x{n - 1}"),), Fraction(2, 3))]
        p = psat_decide(inst)
        assert p is not None
        for cl, q in inst:
            assert prob(p, cl) == q

    def test_a_kill_that_leaves_too_many_worlds_is_refused(self):
        # x0 ; 0 halves 2^24 truth assignments: c1.MAX_LIVE refuses the rest
        inst = [((Lit("x0"),), Fraction(0))]
        inst += [((Lit(f"x{i}"),), HALF) for i in range(1, 24)]
        with pytest.raises(BudgetExhaustedError, match="live 1-type cap"):
            psat_decide(inst)

    def test_thirteen_letters_need_a_pruning_row(self):
        inst = [((Lit(f"x{i}"),), HALF) for i in range(13)]
        with pytest.raises(BudgetExhaustedError):
            psat_decide(inst)

    def test_instance_file_round_trip(self):
        inst = [((Lit("p"), Lit("q", False)), Fraction(3, 5)),
                ((Lit("r"),), Fraction(1))]
        assert parse_psat_instance(render_psat_instance(inst)) == inst

    @pytest.mark.parametrize("text, line", [
        ("p ; 1\n! ; 1/2\n", 2),
        ("p ; 1\n# comment\np | 9q ; 1/2\n", 3),
    ])
    def test_bad_literal_names_the_line(self, text, line):
        with pytest.raises(InputError, match=rf"^line {line}: "):
            parse_psat_instance(text)

    @pytest.mark.parametrize("text", ["p ; 1/0\n", "p ; 3/2\n", "p 1/2\n",
                                      "p | ; 1\n"])
    def test_other_errors_keep_their_line(self, text):
        with pytest.raises(InputError, match=r"^line 1: "):
            parse_psat_instance(text)

    def test_inequality_extension(self):
        inst = [((Lit("p"),), ">=", Fraction(1, 2)),
                ((Lit("p"),), "<=", Fraction(3, 4))]
        p = psat_decide(inst)
        assert p is not None
        assert Fraction(1, 2) <= prob(p, (Lit("p"),)) <= Fraction(3, 4)
        # inequality instances round-trip through the file format too
        assert parse_psat_instance(render_psat_instance(inst)) == inst
        # an infeasible band
        assert psat_decide([((Lit("p"),), ">=", Fraction(3, 4)),
                            ((Lit("p"),), "<=", Fraction(1, 4))]) is None


def brute_psat_feasible(instance) -> bool:
    """Test-side PSAT oracle: one LP column per truth assignment of the
    letters, one row per clause plus the total row; no pruning, no
    merging."""
    letters = sorted({lit.pred for cl, _, _ in instance for lit in cl})
    worlds = range(1 << len(letters))

    def holds(lit, w):
        return bool(w >> letters.index(lit.pred) & 1) == lit.positive

    rows = [[(w, 1) for w in worlds if any(holds(lit, w) for lit in cl)]
            for cl, _, _ in instance]
    system = scaled_system(rows + [[(w, 1) for w in worlds]],
                           [rel for _, rel, _ in instance] + ["="],
                           [q for _, _, q in instance] + [1], len(worlds))
    return lp_feasible(system) is not None


class TestPsatDifferential:
    def test_verdicts_and_support_against_full_enumeration(self):
        rng = random.Random(157)
        probabilities = [Fraction(0), Fraction(1), HALF, Fraction(1, 3),
                         Fraction(2, 3), Fraction(1, 4), Fraction(3, 5),
                         Fraction(5, 7)]
        verdicts = []
        for _ in range(320):
            letters = ["p", "q", "r", "s"][:rng.randint(1, 4)]
            inst = []
            for _ in range(rng.randint(1, 5)):
                cl = tuple(Lit(rng.choice(letters), rng.random() < 0.5)
                           for _ in range(rng.randint(1, 3)))
                inst.append((cl, rng.choice(["=", "<=", ">="]),
                             rng.choice(probabilities)))
            got = psat_decide(inst)
            assert (got is not None) == brute_psat_feasible(inst), inst
            if got is not None:
                assert len(got.worlds) <= len(inst) + 1, inst
            verdicts.append(got is not None)
        assert 80 < sum(verdicts) < 300

    def test_sure_clauses_kill_as_literal_conjunctions(self, monkeypatch):
        # P(clause) = 1 kills the worlds that falsify the clause, stated as
        # the conjunction of the opposite literals, which the walk folds
        # into masks; the system is the one `Not(clause)` gives
        calls = []

        def record(letters, kills, rows):
            calls.append((letters, list(kills), rows))
            return cell_system(*calls[-1])

        monkeypatch.setattr(psat, "cell_system", record)
        rng = random.Random(163)
        folded = 0
        for _ in range(200):
            letters = [f"x{i}" for i in range(rng.randint(1, 6))]
            inst = [(tuple(Lit(rng.choice(letters), rng.random() < 0.5)
                           for _ in range(rng.randint(1, 3))),
                     rng.choice([Fraction(1), Fraction(1), HALF]))
                    for _ in range(rng.randint(1, 6))]
            psat_decide(inst)
            letters, kills, rows = calls.pop()
            index = {p: i for i, p in enumerate(letters)}
            negated = [Not(Or(tuple(part.body if isinstance(part, Not)
                                    else Not(part) for part in kill.parts)))
                       for kill in kills]
            assert cell_system(letters, kills, rows) \
                == cell_system(letters, negated, rows)
            folded += sum(_literal_bits(k, And, index) is not None
                          for k in kills)
        assert folded > 300


class TestCounterexample:
    def test_structure_of_the_assignment(self):
        p, j = counterexample_assignment(6)
        assert p.scale == 42
        assert 1 <= j <= 7
        # the intersection probabilities forced by the system rows
        for i in range(1, 6):
            assert prob(p, And((Pred(f"s{i}"), Pred("r")))) == Fraction(3, 42)
        assert prob(p, And((Pred("s6"), Pred("r")))) == Fraction(4, 42)
        assert prob(p, (Lit("r"),)) == HALF
        assert prob(p, (Lit("t"),)) == HALF

    def test_threshold_satisfies_every_premise(self):
        p, _ = counterexample_assignment(6)
        phi, _ = incompleteness_instance(6)
        assert all(approx_models(p, a) for a in phi)

    def test_returned_goal_has_zero_probability(self):
        p, j = counterexample_assignment(6)
        assert prob(p, And((Pred(f"t{j}"), Pred("r")))) == 0
        assert not approx_models(p, at_least(1, Lit(f"t{j}"), Lit("r")))

    def test_certifies_underivability(self):
        from numlog.proofs import derives
        phi, goals = incompleteness_instance(6)
        _, j = counterexample_assignment(6)
        res = derives(phi, goals[j - 1])
        assert not res.derivable and res.complete


class TestCalculusSoundUnderThresholds:
    def test_axioms_always_hold(self):
        rng = random.Random(139)
        for _ in range(300):
            p = random_assignment(rng, ["p", "q"], scale=rng.randint(1, 9))
            assert approx_models(p, at_least(0, Lit("p"), Lit("q")))
            c = rng.randint(0, 6)
            assert approx_models(p, at_most(c, Lit("p"), Lit("p", False)))

    def test_rules_preserve_threshold_truth(self):
        rng = random.Random(149)
        preds = ["p", "q", "r"]
        checked = 0
        while checked < 1000:
            scale = rng.randint(1, 8)
            p = random_assignment(rng, preds, scale=scale)
            rule = rng.choice(["R1", "R2", "R3"])
            l1 = Lit(rng.choice(preds), rng.random() < 0.5)
            l2 = Lit(rng.choice(preds), rng.random() < 0.5)
            l3 = Lit(rng.choice(preds), rng.random() < 0.5)
            c, d = rng.randint(0, scale), rng.randint(0, scale)
            if rule == "R1":
                a, b = at_most(c, l1, l2), at_most(d, l2.opposite(), l3)
            elif rule == "R2":
                a, b = at_least(c, l1, l2), at_most(d, l2, l3)
            else:
                a, b = at_most(c, l1, l1), at_least(d, l1, l2)
            for concl in rule_conclusions(rule, a, b):
                if approx_models(p, a) and approx_models(p, b):
                    # negative-bound conclusions are trivially true under the
                    # threshold reading, so the plain check covers them too
                    assert approx_models(p, concl), (rule, a, b, concl)
                    checked += 1

    def test_integral_models_are_threshold_models(self):
        # a finite witness induces a flat assignment at scale = domain size
        # satisfying the same sentences
        from numlog.c1 import decide_sat, SAT
        rng = random.Random(151)
        preds = ["p", "q"]
        done = 0
        while done < 30:
            atoms = [at_least(rng.randint(0, 3), Lit(rng.choice(preds)),
                              Lit(rng.choice(preds), rng.random() < 0.5))
                     for _ in range(rng.randint(1, 3))]
            res = decide_sat(atoms)
            if res.status != SAT or res.witness.domain_size == 0:
                continue
            wit = res.witness
            interpreted = sorted(wit.unary)
            worlds = []
            w = Fraction(1, wit.domain_size)
            for e in range(wit.domain_size):
                true = frozenset(p for p in interpreted
                                 if e in wit.unary_ext(p))
                worlds.append((true, w))
            p = ProbabilityAssignment(tuple(interpreted), tuple(worlds),
                                      scale=wit.domain_size)
            for a in atoms:
                assert approx_models(p, a)
            done += 1
