"""Finite-model shrink, size bound, and the bounded exhaustive finder."""

import random
from collections import Counter
from itertools import accumulate, product

import pytest

from numlog import n2
from numlog.errors import (BudgetExhaustedError, InputError,
                           UnknownPredicateError)
from numlog.logic import (AT_LEAST, AT_MOST, CellStructure, Lit,
                          RelationalAtom, at_least, at_most, evaluate,
                          render_structure, structure)
from numlog.n2 import _compositions, bounded_search, shrink_model, size_bound
from numlog.parsing import parse_english, Lexicon


class TestSizeBound:
    def test_single_sentence(self):
        assert size_bound([at_least(1, Lit("p"), Lit("p"))]) == 4

    def test_argument_two_set(self):
        # the seven-premise relational argument plus its negated conclusion:
        # five nouns, largest bound 8, eight sentences
        lex = Lexicon(frozenset({"artist", "beekeeper", "carpenter",
                                 "dentist", "electrician"}),
                      frozenset({"admire"}))
        text = """
        At most 1 artist admires at most 7 beekeepers
        At most 2 carpenters admire at most 8 dentists
        At most 3 artists admire at least 7 electricians
        At most 4 beekeepers are not electricians
        At most 5 dentists are not electricians
        At most 1 beekeeper is a dentist
        Therefore:
        At most 6 artists are carpenters
        """
        arg = parse_english(text, lex)
        from numlog.logic import negate_atom
        atoms = list(arg.premises) + [negate_atom(arg.conclusion)]
        assert len(atoms) == 7
        # negating "at most 6" gives bound 7; largest bound is 8
        assert size_bound(atoms) == 32 * (8 * 7 + 1)

    def test_empty_set(self):
        assert size_bound([]) == 1


class TestShrinkModel:
    def test_small_model_only_thins_edges(self):
        phi = [RelationalAtom(AT_LEAST, 1, "p", "r", AT_LEAST, 1, "q")]
        s = structure(3, {"p": {0}, "q": {1, 2}}, {"r": {(0, 1), (0, 2)}})
        report = shrink_model(s, phi)
        assert report.structure.domain_size == 3
        assert all(evaluate(report.structure, a) for a in phi)

    def test_long_chain_shrinks(self):
        n = 100
        phi = [RelationalAtom(AT_LEAST, 1, "p", "r", AT_LEAST, 1, "q")]
        s = structure(n, {"p": set(range(n)), "q": set(range(n))},
                      {"r": {(i, (i + 1) % n) for i in range(n)}})
        report = shrink_model(s, phi)
        assert report.structure.domain_size <= size_bound(phi)
        assert all(evaluate(report.structure, a) for a in phi)

    def test_witnesses_are_retained(self):
        phi = [RelationalAtom(AT_LEAST, 2, "p", "r", AT_LEAST, 1, "q"),
               at_most(30, Lit("p"), Lit("p"))]
        s = structure(30, {"p": set(range(30)), "q": set(range(30))},
                      {"r": {(i, i) for i in range(30)}})
        report = shrink_model(s, phi)
        out = report.structure
        assert all(evaluate(out, a) for a in phi)
        # the designated witnesses of the outer >=2 survive the shrink
        assert report.witnesses
        assert report.witnesses <= set(report.kept_elements)
        assert out.domain_size <= size_bound(phi)

    def test_witness_retention_randomized(self):
        rng = random.Random(179)
        for _ in range(20):
            n = rng.randint(2, 25)
            s = structure(
                n,
                {"p": {e for e in range(n) if rng.random() < 0.6},
                 "q": {e for e in range(n) if rng.random() < 0.6}},
                {"r": {(a, b) for a in range(n) for b in range(n)
                       if rng.random() < 0.3}})
            cand = RelationalAtom(AT_LEAST, 1, "p", "r", AT_LEAST, 1, "q")
            if not evaluate(s, cand):
                continue
            report = shrink_model(s, [cand])
            assert report.witnesses <= set(report.kept_elements)

    def test_random_pairs_harness(self):
        rng = random.Random(83)
        done = 0
        while done < 50:
            n = rng.randint(1, 40)
            s = structure(
                n,
                {"p": {e for e in range(n) if rng.random() < 0.5},
                 "q": {e for e in range(n) if rng.random() < 0.5}},
                {"r": {(a, b) for a in range(n) for b in range(n)
                       if rng.random() < 0.2}})
            phi = []
            for _ in range(rng.randint(1, 4)):
                if rng.random() < 0.5:
                    a = RelationalAtom(
                        AT_LEAST if rng.random() < 0.5 else AT_MOST,
                        rng.randint(0, 2), rng.choice(["p", "q"]), "r",
                        AT_LEAST if rng.random() < 0.5 else AT_MOST,
                        rng.randint(0, 2), rng.choice(["p", "q"]))
                else:
                    a = at_least(rng.randint(0, 2), Lit("p"), Lit("q")) \
                        if rng.random() < 0.5 else \
                        at_most(n, Lit(rng.choice(["p", "q"])),
                                Lit(rng.choice(["p", "q"])))
                if evaluate(s, a):
                    phi.append(a)
            if not phi:
                continue
            report = shrink_model(s, phi)
            assert all(evaluate(report.structure, a) for a in phi)
            assert report.structure.domain_size <= size_bound(phi)
            done += 1

    def test_kept_successors_match_the_quadratic_count(self):
        # every kept element keeps, per 1-type cell, the first
        # min(successors in the cell, cap) kept members of the cell; the
        # expected edges are counted pair by pair, independently of the
        # edge-set tally that shrink_model uses
        rng = random.Random(191)
        done = rewired = 0
        while done < 200:
            n = rng.randint(1, 30)
            s = structure(
                n, {p: {e for e in range(n) if rng.random() < 0.5}
                    for p in ("p", "q", "t")},
                {v: {(a, b) for a in range(n) for b in range(n)
                     if rng.random() < rng.choice([0.1, 0.3, 0.6])}
                 for v in ("r", "w")})
            phi = [RelationalAtom(rng.choice([AT_LEAST, AT_MOST]),
                                  rng.randint(0, 2), rng.choice("pqt"),
                                  rng.choice("rw"),
                                  rng.choice([AT_LEAST, AT_MOST]),
                                  rng.randint(0, 2), rng.choice("pqt"))
                   for _ in range(rng.randint(1, 2))]
            phi = [a for a in phi if evaluate(s, a)]
            if not phi:
                continue
            report = shrink_model(s, phi)
            preds = sorted({p for a in phi for p in (a.subject, a.obj)})
            cells: dict[frozenset, list[int]] = {}
            for e in range(n):
                cells.setdefault(frozenset(p for p in preds
                                           if e in s.unary[p]), []).append(e)
            new = {e: i for i, e in enumerate(report.kept_elements)}
            for v in sorted({a.verb for a in phi}):
                want = set()
                for e in report.kept_elements:
                    for members in cells.values():
                        orig = sum(1 for b in members if (e, b) in s.binary[v])
                        kept = [b for b in members if b in new]
                        for b in kept[:min(orig, report.cell_cap)]:
                            want.add((new[e], new[b]))
                assert report.structure.binary[v] == want
                restricted = {(a, b) for a, b in s.binary[v]
                              if a in new and b in new}
                rewired += want != restricted
            done += 1
        assert rewired > 20

    def test_rejects_non_model(self):
        phi = [at_least(1, Lit("p"), Lit("p"))]
        s = structure(1, {"p": set()}, {})
        with pytest.raises(InputError):
            shrink_model(s, phi)

    def test_cell_input_matches_the_explicit_shrink(self):
        # a cell model shrinks to cells that expand to exactly what the
        # explicit shrink of its expansion writes; predicates the sentences
        # do not name put several cells into one group
        rng = random.Random(241)
        done = truncated = grouped = 0
        while done < 300:
            preds = ["p", "q", "s", "t"][:rng.randint(1, 4)]
            masks = rng.sample(range(1 << len(preds)),
                               rng.randint(1, 1 << len(preds)))
            cs = CellStructure(tuple(preds),
                               tuple((m, rng.randint(0, 9)) for m in masks))
            named = preds[:rng.randint(1, min(2, len(preds)))]
            phi = [rng.choice([at_least, at_most])(
                       rng.randint(0, 3), Lit(rng.choice(named),
                                              rng.random() < 0.7),
                       Lit(rng.choice(named), rng.random() < 0.7))
                   for _ in range(rng.randint(1, 3))]
            phi = [a for a in phi if evaluate(cs, a)]
            if not phi:
                continue
            report = shrink_model(cs, phi)
            explicit = shrink_model(cs.expand(), phi)
            assert isinstance(report.structure, CellStructure)
            assert report.structure.preds == cs.preds
            assert render_structure(report.structure.expand()) == \
                render_structure(explicit.structure)
            assert report.kept_per_cell == explicit.kept_per_cell
            assert (report.input_size, report.cell_cap) == \
                (explicit.input_size, explicit.cell_cap)
            truncated += report.structure.domain_size < cs.domain_size
            grouped += len(named) < len(preds)
            done += 1
        assert truncated >= 50 and grouped >= 50, (truncated, grouped)

    def test_cell_input_refuses_a_verb_sentence(self):
        cs = CellStructure(("p",), ((1, 2),))
        with pytest.raises(UnknownPredicateError):
            shrink_model(cs, [RelationalAtom(AT_LEAST, 1, "p", "r",
                                             AT_LEAST, 0, "p")])


def explicit_search(phi, domain_cap, *, budget):
    """bounded_search's candidates in its order, each expanded into an
    explicit structure before any atom is evaluated on it.  They range over
    the masks that no `<=0` unary atom kills, found by evaluating each kill
    on a one-element structure of every mask."""
    preds = sorted({p for a in phi for p in a.predicates()})
    verbs = sorted({a.verb for a in phi if isinstance(a, RelationalAtom)})
    kills = [a for a in phi if not isinstance(a, RelationalAtom)
             and a.direction == AT_MOST and a.bound == 0]
    masks = [k for k in range(1 << len(preds))
             if all(evaluate(structure(1, {p: {0} if k >> i & 1 else set()
                                           for i, p in enumerate(preds)}), a)
                    for a in kills)]
    if not masks:  # every structure has an element of some mask
        return None
    cells = len(masks)
    relevant = {r: [k for k in range(cells)
                    if any(masks[k] >> preds.index(a.obj) & 1 for a in phi
                           if isinstance(a, RelationalAtom) and a.verb == r)]
                for r in verbs}
    spent = 0

    def tick():
        nonlocal spent
        spent += 1
        if spent > budget:
            raise BudgetExhaustedError("reference budget exhausted")

    for n in range(1, domain_cap + 1):
        for alpha in _compositions(n, cells):
            tick()
            starts = list(accumulate(alpha, initial=0))
            members = [range(starts[k], starts[k + 1]) for k in range(cells)]
            unary = {p: {e for k in range(cells) if masks[k] >> i & 1
                         for e in members[k]}
                     for i, p in enumerate(preds)}
            base = structure(n, unary)
            if not all(evaluate(base, a) for a in phi
                       if not isinstance(a, RelationalAtom)):
                continue
            if not verbs:
                return base
            axes = [(r, k) for r in verbs for k in relevant[r]]
            profiles = list(product(*(range(alpha[k] + 1) for _, k in axes)))
            occupied = [k for k in range(cells) if alpha[k]]
            for splits in product(*(list(_compositions(alpha[k], len(profiles)))
                                    for k in occupied)):
                tick()
                binary = {r: set() for r in verbs}
                for k, split in zip(occupied, splits):
                    e = starts[k]
                    for profile, times in zip(profiles, split):
                        for _ in range(times):
                            for (r, j), cnt in zip(axes, profile):
                                binary[r].update((e, b) for b in
                                                 members[j][:cnt])
                            e += 1
                cand = structure(n, unary, binary)
                if all(evaluate(cand, a) for a in phi):
                    return cand
    return None


def agreed_outcome(phi, cap, budget):
    """None, "budget", "model" or "decided", where bounded_search and
    explicit_search agree on the model, on None and on where the budget
    runs out.  A set that bounded_search decides with budget 0 has no
    model by a rule applied before its first candidate ("decided"), so
    there the reference, given a budget it finishes within, must find
    none either."""
    try:
        decided = bounded_search(phi, cap, budget=0) is None
    except BudgetExhaustedError:
        decided = False
    if decided:
        assert explicit_search(phi, cap, budget=10**6) is None, phi
        return "decided"
    results = []
    for search in (bounded_search, explicit_search):
        try:
            results.append(search(phi, cap, budget=budget))
        except BudgetExhaustedError:
            results.append("budget")
    assert results[0] == results[1], phi
    return results[1] if results[1] in (None, "budget") else "model"


class TestBoundedSearch:
    def test_simple_witness(self):
        phi = [RelationalAtom(AT_LEAST, 1, "p", "r", AT_MOST, 0, "p")]
        model = bounded_search(phi, 4)
        assert model is not None
        assert all(evaluate(model, a) for a in phi)

    def test_unsatisfiable_tiny_set(self):
        phi = [RelationalAtom(AT_LEAST, 2, "p", "r", AT_LEAST, 1, "q"),
               at_most(1, Lit("p"), Lit("p")),
               at_most(0, Lit("q"), Lit("q"))]
        assert bounded_search(phi, size_bound(phi), budget=3_000_000) is None

    def test_complete_up_to_bound_for_unary(self):
        # agreement with the one-variable solver on relational-free sets
        from numlog.c1 import decide_sat, SAT
        rng = random.Random(89)
        for _ in range(25):
            atoms = [at_least(rng.randint(0, 2), Lit("p"), Lit("q"))
                     if rng.random() < 0.5 else
                     at_most(rng.randint(0, 2), Lit("p"),
                             Lit("q", rng.random() < 0.5))
                     for _ in range(rng.randint(1, 3))]
            via_c1 = decide_sat(atoms).status == SAT
            found = bounded_search(atoms, size_bound(atoms),
                                   budget=2_000_000)
            assert (found is not None) == via_c1

    def test_planted_model_is_pinned(self):
        # cells p (mask 1) and q (mask 2) get elements 0-1 and 2 in mask
        # order; successor profiles fill ascending indices of each cell
        phi = [RelationalAtom(AT_LEAST, 2, "p", "r", AT_LEAST, 1, "q"),
               RelationalAtom(AT_MOST, 0, "q", "r", AT_LEAST, 1, "p"),
               at_most(0, Lit("p"), Lit("q")),
               at_least(1, Lit("q"), Lit("q"))]
        model = bounded_search(phi, size_bound(phi))
        assert render_structure(model) == (
            "domain 3\nunary p: 0, 1\nunary q: 2\n"
            "binary r: (0,0), (0,1), (0,2), (1,0), (1,1), (1,2), (2,2)\n")

    @pytest.mark.parametrize("phi", [
        # no q can exist, so no p has two r-successors in q
        [RelationalAtom(AT_LEAST, 3000, "p", "r", AT_LEAST, 2, "q"),
         at_most(0, Lit("q"), Lit("q"))],
        # the kills leave no 1-type
        [at_most(0, Lit("p"), Lit("p")),
         at_most(0, Lit("p", False), Lit("p", False)),
         RelationalAtom(AT_LEAST, 1, "p", "r", AT_LEAST, 1, "p")],
        # no live 1-type satisfies >=1 (q & q)
        [at_least(1, Lit("q"), Lit("q")), at_most(0, Lit("q"), Lit("q")),
         RelationalAtom(AT_MOST, 1, "q", "r", AT_LEAST, 1, "q")],
    ])
    def test_no_model_before_the_first_candidate(self, phi):
        assert bounded_search(phi, size_bound(phi), budget=0) is None
        assert n2.refutation(phi)[0] is not None

    def test_budget_is_distinct_from_no_model(self):
        phi = [RelationalAtom(AT_LEAST, 2, "p", "r", AT_LEAST, 2, "q")]
        with pytest.raises(BudgetExhaustedError):
            bounded_search(phi, size_bound(phi), budget=3)

    def test_matches_explicit_expansion_at_every_budget(self):
        # the reference builds every composition's explicit structure and
        # evaluates every atom on every candidate; the two searches must
        # agree on the model, on None and on where the budget runs out
        rng = random.Random(227)
        outcomes = Counter()
        for _ in range(300):
            preds = ["p", "q", "t"][:rng.randint(1, 3)]
            phi = []
            for _ in range(rng.randint(1, 3)):
                if rng.random() < 0.5:
                    phi.append(RelationalAtom(
                        rng.choice([AT_LEAST, AT_MOST]), rng.randint(0, 2),
                        rng.choice(preds), rng.choice("rw"),
                        rng.choice([AT_LEAST, AT_MOST]), rng.randint(0, 2),
                        rng.choice(preds)))
                else:
                    phi.append(rng.choice([at_least, at_most])(
                        rng.randint(0, 2), Lit(rng.choice(preds)),
                        Lit(rng.choice(preds), rng.random() < 0.7)))
            cap = rng.randint(1, 4)
            budget = rng.choice([5, 40, 300])
            outcomes[agreed_outcome(phi, cap, budget)] += 1
        assert min(outcomes[None] + outcomes["decided"], outcomes["budget"],
                   outcomes["model"]) >= 20 and outcomes["decided"], outcomes

    def test_two_verbs_match_explicit_expansion(self):
        # both verbs in every set, inner bounds up to 3, and budgets large
        # enough that profile candidates outnumber cell vectors
        rng = random.Random(233)
        outcomes = Counter()
        for _ in range(200):
            preds = ["p", "q", "t"][:rng.randint(1, 3)]
            phi = [RelationalAtom(rng.choice([AT_LEAST, AT_MOST]),
                                  rng.randint(0, 3), rng.choice(preds), verb,
                                  rng.choice([AT_LEAST, AT_MOST]),
                                  rng.randint(0, 3), rng.choice(preds))
                   for verb in rng.sample("rw", 2)]
            for _ in range(rng.randint(0, 2)):
                phi.append(rng.choice([at_least, at_most])(
                    rng.randint(0, 2), Lit(rng.choice(preds)),
                    Lit(rng.choice(preds), rng.random() < 0.7)))
            cap = rng.randint(2, 4)
            budget = rng.choice([40, 300, 3000])
            outcomes[agreed_outcome(phi, cap, budget)] += 1
        assert min(outcomes[None] + outcomes["decided"], outcomes["budget"],
                   outcomes["model"]) >= 20 and outcomes["decided"], outcomes

    def test_evaluate_runs_only_on_the_model_returned(self, monkeypatch):
        calls = Counter()

        def counted(s, f):
            calls[f] += 1
            return evaluate(s, f)

        monkeypatch.setattr(n2, "evaluate", counted)
        # every candidate fails on counts alone
        phi = [RelationalAtom(AT_LEAST, 3000, "p", "r", AT_LEAST, 2, "q")]
        with pytest.raises(BudgetExhaustedError):
            bounded_search(phi, size_bound(phi), budget=2_000)
        assert not calls
        rng = random.Random(239)
        answered = 0
        for _ in range(100):
            preds = ["p", "q"][:rng.randint(1, 2)]
            phi = [RelationalAtom(rng.choice([AT_LEAST, AT_MOST]),
                                  rng.randint(0, 2), rng.choice(preds),
                                  rng.choice("rw"),
                                  rng.choice([AT_LEAST, AT_MOST]),
                                  rng.randint(0, 2), rng.choice(preds)),
                   rng.choice([at_least, at_most])(
                       rng.randint(0, 2), Lit(rng.choice(preds)),
                       Lit(rng.choice(preds), rng.random() < 0.7))]
            calls.clear()
            if bounded_search(phi, 3, budget=10_000) is not None:
                assert calls == Counter(phi), phi
                answered += 1
        assert answered >= 20

    def test_expand_runs_only_for_the_model_returned(self, monkeypatch):
        calls = [0]
        expand = CellStructure.expand

        def counted(self):
            calls[0] += 1
            return expand(self)

        monkeypatch.setattr(CellStructure, "expand", counted)
        phi = [RelationalAtom(AT_LEAST, 3000, "p", "r", AT_LEAST, 2, "q")]
        with pytest.raises(BudgetExhaustedError):
            bounded_search(phi, size_bound(phi), budget=20_000)
        assert calls[0] == 0
        rng = random.Random(251)
        models = 0
        for _ in range(150):
            preds = ["p", "q"][:rng.randint(1, 2)]
            phi = [rng.choice([at_least, at_most])(
                       rng.randint(0, 2), Lit(rng.choice(preds)),
                       Lit(rng.choice(preds), rng.random() < 0.7))]
            if rng.random() < 0.7:
                phi.append(RelationalAtom(
                    rng.choice([AT_LEAST, AT_MOST]), rng.randint(0, 2),
                    rng.choice(preds), rng.choice("rw"),
                    rng.choice([AT_LEAST, AT_MOST]), rng.randint(0, 2),
                    rng.choice(preds)))
            calls[0] = 0
            try:
                found = bounded_search(phi, 3, budget=rng.choice([50, 5000]))
            except BudgetExhaustedError:
                found = None
            assert calls[0] == (found is not None), phi
            models += found is not None
        assert models >= 50

    def test_compositions_keep_the_recursive_order(self):
        def recursive(total, parts):
            if parts == 1:
                yield (total,)
                return
            for first in range(total + 1):
                for rest in recursive(total - first, parts - 1):
                    yield (first,) + rest

        for total in range(7):
            for parts in range(1, 6):
                assert (list(_compositions(total, parts))
                        == list(recursive(total, parts)))
