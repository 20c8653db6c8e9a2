"""Core syntax and semantics: canonical atoms, duality, exact evaluation,
one-types, and the structure file format."""

import random

import pytest

from numlog import logic
from numlog.errors import BudgetExhaustedError, InputError, UnknownPredicateError
from numlog.logic import (AT_LEAST, AT_MOST, FALSE, TRUE, And, CellStructure,
                          Count, Lit, Not, Or, Pred, RelationalAtom, at_least,
                          at_most, compile_body, evaluate, live_signatures,
                          mask_of, negate_atom, parse_structure,
                          render_structure, satisfiers, structure, true_preds)
from helpers import random_structure, random_unary_atom


def test_literal_opposite_involution():
    l = Lit("p", False)
    assert l.opposite().opposite() == l


def test_literal_requires_identifier():
    with pytest.raises(InputError):
        Lit("")
    with pytest.raises(InputError):
        Lit("3bad")


def test_atom_canonical_order():
    a = at_least(2, Lit("q"), Lit("p"))
    b = at_least(2, Lit("p"), Lit("q"))
    assert a == b
    assert a.lits[0].pred == "p"
    # positive sorts before negative on the same predicate
    c = at_most(1, Lit("p", False), Lit("p"))
    assert c.lits[0].positive and not c.lits[1].positive


class TestNegateAtom:
    def test_at_least_to_at_most(self):
        a = at_least(1, Lit("p"), Lit("q"))
        assert negate_atom(a) == at_most(0, Lit("p"), Lit("q"))

    def test_conclusion_dualization(self):
        # "At most 4 dentists are not carpenters" flips to >=5
        a = at_most(4, Lit("d"), Lit("c", False))
        assert negate_atom(a) == at_least(5, Lit("d"), Lit("c", False))

    def test_zero_lower_bound_dualizes_to_false_atom(self):
        a = at_least(0, Lit("p"), Lit("p"))
        dual = negate_atom(a)
        assert dual == at_most(-1, Lit("p"), Lit("p"))
        assert dual.is_trivially_false

    def test_relational_dual_touches_outer_only(self):
        a = RelationalAtom(AT_MOST, 1, "artist", "admire", AT_MOST, 7, "beekeeper")
        d = negate_atom(a)
        assert d.direction == AT_LEAST and d.bound == 2
        assert (d.inner_direction, d.inner_bound) == (AT_MOST, 7)

    def test_duality_property(self):
        rng = random.Random(42)
        preds = ["p", "q", "r"]
        for _ in range(1000):
            s = random_structure(rng, preds)
            a = random_unary_atom(rng, preds)
            assert evaluate(s, a) != evaluate(s, negate_atom(a))


class TestEvaluate:
    def test_cardinality_equals_bound(self):
        s = structure(4, {"p": {0, 1, 2}})
        assert evaluate(s, at_most(3, Lit("p"), Lit("p")))
        assert not evaluate(s, at_most(2, Lit("p"), Lit("p")))

    def test_triangle_witness_satisfies_colouring_sentences(self):
        # domain {0,1,2}, p total, node-colour predicates singletons
        # shifted by a proper triangle colouring
        colouring = {1: 0, 2: 1, 3: 2}
        unary = {"p": {0, 1, 2}}
        for i in range(1, 4):
            for k in range(3):
                unary[f"p{i}_{k}"] = {(k + colouring[i]) % 3}
        s = structure(3, unary)
        atoms = [at_most(3, Lit("p"), Lit("p"))]
        for i in range(1, 4):
            for j in range(3):
                for k in range(j + 1, 3):
                    atoms.append(at_most(0, Lit(f"p{i}_{j}"), Lit(f"p{i}_{k}")))
        for i in range(1, 4):
            for k in range(3):
                atoms.append(at_least(1, Lit(f"p{i}_{k}"), Lit("p")))
        for a, b in [(1, 2), (1, 3), (2, 3)]:
            for k in range(3):
                atoms.append(at_most(0, Lit(f"p{a}_{k}"), Lit(f"p{b}_{k}")))
        assert all(evaluate(s, a) for a in atoms)

    def test_relational_subject_scopes_over_object(self):
        # every p-element reaches a q-element, so no p-element has zero
        # q-successors: the sentence asking for one such subject is false
        s = structure(4, {"p": {0, 1}, "q": {2, 3}},
                      {"r": {(0, 2), (1, 3)}})
        a = RelationalAtom(AT_LEAST, 1, "p", "r", AT_MOST, 0, "q")
        # independent oracle: explicit nested loops
        count = 0
        for e in sorted(s.unary_ext("p")):
            inner = sum(1 for b in sorted(s.unary_ext("q"))
                        if (e, b) in s.binary_ext("r"))
            if inner <= 0:
                count += 1
        assert (count >= 1) is False
        assert evaluate(s, a) is False

    def test_uninterpreted_predicate_is_an_error(self):
        s = structure(2, {"p": {0}})
        with pytest.raises(UnknownPredicateError):
            evaluate(s, at_least(1, Lit("p"), Lit("q")))

    def test_counting_agrees_with_bruteforce_counter(self):
        rng = random.Random(7)
        preds = ["p", "q", "r"]
        for _ in range(300):
            s = random_structure(rng, preds, max_domain=6)
            a = random_unary_atom(rng, preds, max_bound=4)
            ext1 = s.lit_ext(a.lits[0])
            matching = sum(1 for e in range(s.domain_size)
                           if e in ext1 and e in s.lit_ext(a.lits[1]))
            expected = matching >= a.bound if a.direction == AT_LEAST \
                else matching <= a.bound
            assert evaluate(s, a) == expected

    def test_nested_formula_evaluation(self):
        s = structure(3, {"p": {0, 1}, "q": {2}})
        # two elements satisfy p and exactly one satisfies q
        f = Count(AT_LEAST, 2, And((Pred("p"), Not(Count(AT_LEAST, 2, Pred("q"))))))
        assert evaluate(s, f)  # inner count is closed and false, so !inner holds


def random_body(rng, preds, depth=3):
    """A random quantifier-free body over preds, TRUE and FALSE."""
    roll = rng.random()
    if depth == 0 or roll < 0.3:
        choice = rng.randrange(len(preds) + 2)
        if choice < len(preds):
            return Pred(preds[choice])
        return TRUE if choice == len(preds) else FALSE
    if roll < 0.45:
        return Not(random_body(rng, preds, depth - 1))
    parts = tuple(random_body(rng, preds, depth - 1)
                  for _ in range(rng.randint(0, 3)))
    return And(parts) if rng.random() < 0.5 else Or(parts)


def realizing_structure(preds, mask):
    """The one-element structure whose element has 1-type `mask`."""
    return structure(1, {p: {0} if (mask >> i) & 1 else set()
                         for i, p in enumerate(preds)})


class TestMaskKernel:
    def test_compiled_test_matches_evaluate(self):
        rng = random.Random(157)
        preds = ["p", "q", "r"]
        index = {p: i for i, p in enumerate(preds)}
        for _ in range(300):
            body = random_body(rng, preds)
            test = compile_body(body, index)
            for mask in range(1 << len(preds)):
                s = realizing_structure(preds, mask)
                assert test(mask) == evaluate(s, Count(AT_LEAST, 1, body))

    def test_unknown_predicate(self):
        rng = random.Random(163)
        index = {"p": 0, "q": 1}
        for _ in range(50):
            body = random_body(rng, ["p", "q"])
            bad = rng.choice([And, Or])((body, Pred("z")))
            with pytest.raises(UnknownPredicateError):
                compile_body(rng.choice([bad, Not(bad)]), index)

    def test_quantifier_is_rejected(self):
        with pytest.raises(InputError):
            compile_body(Or((Pred("p"), Count(AT_LEAST, 1, Pred("p")))),
                         {"p": 0})

    @pytest.mark.parametrize("frontier", [1, 2, logic.FRONTIER])
    def test_live_masks_match_brute_force(self, monkeypatch, frontier):
        monkeypatch.setattr(logic, "FRONTIER", frontier)
        rng = random.Random(167)
        for _ in range(200):
            preds = [f"x{i}" for i in range(rng.randint(0, 4))]
            kills = [random_body(rng, preds) for _ in range(rng.randint(0, 3))]
            # depth-first from bit 0, 0 branch first: lexicographic in the
            # bits read from bit 0 upwards
            order = sorted(range(1 << len(preds)),
                           key=lambda m: [(m >> i) & 1 for i in range(len(preds))])
            expected = [m for m in order
                        if not any(evaluate(realizing_structure(preds, m),
                                            Count(AT_LEAST, 1, k))
                                   for k in kills)]
            assert [mask for mask, _ in live_signatures(preds, kills, ())
                    ] == expected

    @pytest.mark.parametrize("frontier", [1, 2, logic.FRONTIER])
    def test_walk_node_cap_counts_dead_partial_masks(self, monkeypatch,
                                                     frontier):
        monkeypatch.setattr(logic, "FRONTIER", frontier)
        # kills on z, the last bit, leave nothing live: the walk pops the
        # root, 2 masks over a and 4 over a, b, and pushes none over z
        kills = [Pred("z"), Not(Pred("z"))]
        assert list(live_signatures(["a", "b", "z"], kills, (), 7)) == []
        with pytest.raises(BudgetExhaustedError):
            list(live_signatures(["a", "b", "z"], kills, (), 6))


class TestCellModels:
    def test_cell_structure_round_trip(self):
        rng = random.Random(211)
        for _ in range(200):
            preds = sorted(rng.sample(["p", "q", "r", "s"], rng.randint(0, 4)))
            masks = list(range(1 << len(preds)))
            rng.shuffle(masks)
            cells = [(m, rng.randint(0, 5))
                     for m in masks[:rng.randint(0, len(masks))]]
            s = CellStructure(tuple(preds), tuple(cells)).expand()
            # each cell takes the next consecutive elements, in cell order
            types = [mask_of([p for p in preds if e in s.unary[p]],
                             {p: i for i, p in enumerate(preds)})
                     for e in range(s.domain_size)]
            assert types == [m for m, count in cells for _ in range(count)]

    def test_mask_conversions(self):
        preds = ["a", "b", "c"]
        index = {p: i for i, p in enumerate(preds)}
        for mask in range(8):
            assert mask_of(true_preds(mask, preds), index) == mask
        assert true_preds(0b101, preds) == ["a", "c"]
        with pytest.raises(UnknownPredicateError):
            mask_of(["z"], index)


class TestSatisfiers:
    @staticmethod
    def brute_satisfiers(s, a):
        def holds(l, e):
            return (e in s.unary[l.pred]) == l.positive
        if isinstance(a, RelationalAtom):
            out = set()
            for e in s.unary[a.subject]:
                tally = sum(1 for b in s.unary[a.obj]
                            if (e, b) in s.binary[a.verb])
                if (tally >= a.inner_bound if a.inner_direction == AT_LEAST
                        else tally <= a.inner_bound):
                    out.add(e)
            return out
        return {e for e in range(s.domain_size)
                if holds(a.lits[0], e) and holds(a.lits[1], e)}

    def test_count_agrees_with_evaluate(self):
        rng = random.Random(223)
        preds = ["p", "q", "r"]
        seen = {True: 0, False: 0}
        for _ in range(300):
            s = random_structure(rng, preds, verbs=("v",))
            if rng.random() < 0.5:
                a = random_unary_atom(rng, preds, max_bound=4)
            else:
                a = RelationalAtom(rng.choice((AT_LEAST, AT_MOST)),
                                   rng.randint(0, 4), rng.choice(preds), "v",
                                   rng.choice((AT_LEAST, AT_MOST)),
                                   rng.randint(0, 3), rng.choice(preds))
            expected = self.brute_satisfiers(s, a)
            assert satisfiers(s, a) == expected
            n = len(expected)
            truth = n >= a.bound if a.direction == AT_LEAST else n <= a.bound
            assert evaluate(s, a) == truth
            seen[truth] += 1
        assert min(seen.values()) > 50

    def test_rejects_formulas(self):
        with pytest.raises(InputError):
            satisfiers(structure(1, {"p": {0}}), Pred("p"))


class TestStructureFiles:
    def test_round_trip(self):
        s = structure(5, {"p": {0, 2}, "q": set()},
                      {"r": {(0, 1), (4, 0)}})
        assert parse_structure(render_structure(s)) == s

    def test_parse_rejects_garbage(self):
        with pytest.raises(InputError):
            parse_structure("domain 3\nunary p: 0\nwat 5\n")
        with pytest.raises(InputError):
            parse_structure("unary p: 0\n")

    def test_out_of_range_elements(self):
        with pytest.raises(InputError):
            parse_structure("domain 2\nunary p: 5\n")

    def test_negative_element_is_rejected(self):
        with pytest.raises(InputError):
            parse_structure("domain 2\nunary p: -1\n")

    def test_binary_pair_out_of_range(self):
        for pair in ("(0, 2)", "(2, 0)"):
            with pytest.raises(InputError):
                parse_structure(f"domain 2\nbinary r: {pair}\n")
        with pytest.raises(InputError):
            structure(2, {}, {"r": {(0, -1)}})

    def test_empty_extensions_are_accepted(self):
        s = parse_structure("domain 0\nunary p:\nbinary r:\n")
        assert s.unary == {"p": frozenset()} and s.binary == {"r": frozenset()}
        assert structure(3, {"p": set()}, {"r": set()}).unary["p"] == frozenset()
