"""The satisfiability pipeline: normalization, system construction with
pruning, the decision procedure against a brute-force model-search oracle,
and entailment."""

import random
from itertools import product

import pytest

from numlog.c1 import (SAT, UNSAT, build_system, decide_sat, entails,
                       normalize, render_certificate)
from numlog.errors import (BudgetExhaustedError, InputError,
                           UnknownPredicateError)
from numlog.linsys import _Tableau
from numlog.logic import (AT_LEAST, AT_MOST, EXACTLY, FALSE, TRUE, And,
                          Count, Lit, Not, Or, Pred, RelationalAtom,
                          UnaryAtom, at_least, at_most, atom_formula,
                          evaluate, live_signatures, negate_atom,
                          render_structure, structure)
from helpers import random_lit, random_unary_atom


def brute_sat_flat(atoms, preds, cap):
    """Oracle: exhaustive search over capped one-type cardinality vectors,
    returning the first vector that satisfies every atom, or None.

    An atom's count under a vector is the sum of its entries at the masks
    that satisfy both literals, found with this oracle's own bit test.
    Complete because any model's cell counts capped coordinatewise still
    model the same flat sentences.
    """
    bit = {p: i for i, p in enumerate(preds)}
    masks = range(1 << len(preds))
    hits = [[m for m in masks
             if all((m >> bit[l.pred] & 1) == l.positive for l in a.lits)]
            for a in atoms]
    for vec in product(range(cap + 1), repeat=len(masks)):
        if not any(vec):
            continue
        counts = [sum(vec[m] for m in ms) for ms in hits]
        if all(n >= a.bound if a.direction == AT_LEAST else n <= a.bound
               for a, n in zip(atoms, counts)):
            return vec
    return None


class TestNormalize:
    def test_already_normal(self):
        branches = normalize([at_least(2, Lit("p"), Lit("q"))])
        assert len(branches) == 1
        assert len(branches[0].conjuncts) == 1

    def test_two_flat_formulas_one_branch(self):
        f = And((Count(AT_LEAST, 1, Pred("p")), Count(AT_LEAST, 2, Pred("q"))))
        branches = normalize([f])
        assert len(branches) == 1
        assert len(branches[0].conjuncts) == 2

    def test_embedded_quantifier_gives_two_branches(self):
        inner = Count(AT_LEAST, 2, Pred("q"))
        f = Count(AT_MOST, 2, And((Pred("p"), inner)))
        branches = normalize([f])
        assert len(branches) == 2
        # true-branch first: the inner sentence is asserted there
        assert (AT_LEAST, 2, Pred("q")) in branches[0].conjuncts

    def test_constant_false_branch_is_dropped(self):
        inner = Count(AT_LEAST, 2, Pred("q"))
        f = Count(AT_LEAST, 1, And((Pred("p"), inner)))
        # the false-branch body collapses to an unsatisfiable >=1, so only
        # the true branch survives
        branches = normalize([f])
        assert len(branches) == 1

    def test_equisatisfiable_over_small_domains(self):
        rng = random.Random(61)
        preds = ["p", "q"]

        def formula(depth, closed):
            """A closed formula, or a count's body when not `closed`: And
            and Or of 0-3 parts, Not, TRUE, FALSE and =, <= and >= counts
            with bounds -1..3, whose bodies nest further counts."""
            kinds = ["count"] if closed else ["pred", "pred", "count"]
            if depth < 3:
                kinds += ["and", "or", "not", "const"]
            kind = rng.choice(kinds)
            if kind == "pred":
                return Pred(rng.choice(preds))
            if kind == "const":
                return rng.choice((TRUE, FALSE))
            if kind == "not":
                return Not(formula(depth + 1, closed))
            if kind == "count":
                body = (formula(depth + 1, False) if depth < 3
                        else Pred(rng.choice(preds)))
                return Count(rng.choice((AT_LEAST, AT_MOST, EXACTLY)),
                             rng.randint(-1, 3), body)
            parts = tuple(formula(depth + 1, closed)
                          for _ in range(rng.randint(0, 3)))
            return And(parts) if kind == "and" else Or(parts)

        for _ in range(300):
            f = formula(0, True)
            branches = normalize([f])
            for n in range(1, 5):
                for bits in product([0, 1], repeat=n * 2):
                    unary = {"p": {e for e in range(n) if bits[e]},
                             "q": {e for e in range(n) if bits[n + e]}}
                    s = structure(n, unary, {})
                    direct = evaluate(s, f)
                    via = any(all(evaluate(s, Count(d, b, body_))
                                  for d, b, body_ in br.conjuncts)
                              for br in branches)
                    assert direct == via

    def test_atoms_normalize_as_their_formulas_do(self):
        # atoms alone skip the formula rewriting; their embeddings take it
        rng = random.Random(251)
        seen = {"branch": 0, "no branch": 0, ">=0": 0, "p & !p": 0,
                "repeated": 0}
        for _ in range(400):
            preds = ["p", "q", "r"][:rng.randint(1, 3)]
            atoms = [random_unary_atom(rng, preds, max_bound=3)
                     for _ in range(rng.randint(0, 6))]
            if rng.random() < 0.2:
                atoms.append(at_most(-1, random_lit(rng, preds),
                                     random_lit(rng, preds)))
            if atoms and rng.random() < 0.3:
                atoms.insert(rng.randrange(len(atoms)), rng.choice(atoms))
            got = normalize(atoms)
            assert got == normalize([atom_formula(a) for a in atoms])
            seen["branch" if got else "no branch"] += 1
            seen[">=0"] += any(a.direction == AT_LEAST and a.bound == 0
                               for a in atoms)
            seen["p & !p"] += any(a.lits[0] == a.lits[1].opposite()
                                  for a in atoms)
            seen["repeated"] += len(set(atoms)) < len(atoms)
        assert min(seen.values()) >= 20, seen

    def test_rejects_relational(self):
        a = RelationalAtom(AT_LEAST, 1, "p", "r", AT_LEAST, 1, "q")
        with pytest.raises(InputError):
            normalize([a])

    def test_rejects_free_variable(self):
        with pytest.raises(InputError):
            normalize([Pred("p")])


class TestBuildSystem:
    def test_pruning_deletes_killed_columns(self):
        branches = normalize([at_most(0, Lit("p"), Lit("q"))])
        # the p-and-q cell dies; three cells remain
        kills = [body for _, _, body in branches[0].conjuncts]
        assert len(list(live_signatures(["p", "q"], kills, ()))) == 3
        # no row tells the three apart, so they merge into one column under
        # the nonempty row
        built = build_system(branches[0], ["p", "q"])
        assert len(built.live_types) == 1
        assert built.system.m == 1
        assert built.system.relations == (">=",)

    def test_a_predicate_outside_the_list_is_refused_by_the_walk(self):
        # a kill, a two-literal row, a wider conjunction and a clause: the
        # walk decides each of them, so it names the predicate it lacks
        for f in (at_most(0, Lit("p"), Lit("z")),
                  at_least(1, Lit("z"), Lit("p")),
                  Count(AT_LEAST, 1, And((Pred("p"), Pred("q"), Pred("z")))),
                  Count(AT_LEAST, 1, Or((Pred("p"), Not(Pred("z")))))):
            [branch] = normalize([f])
            with pytest.raises(UnknownPredicateError, match="'z'"):
                build_system(branch, ["p", "q"])
        # a >=0 conjunct holds in every structure and is dropped unread
        [branch] = normalize([at_least(0, Lit("z"), Lit("p")),
                              at_least(1, Lit("p"), Lit("q"))])
        assert build_system(branch, ["p", "q"]).system.m == 2

    def test_totality_row_always_added(self):
        branches = normalize([at_least(1, Lit("p"), Lit("p"))])
        built = build_system(branches[0], ["p"])
        assert built.system.relations[-1] == ">="
        assert built.system.rhs[-1] == 1

    def test_infeasible_when_everything_killed(self):
        branches = normalize([at_most(0, Lit("p"), Lit("p")),
                              at_most(0, Lit("p", False), Lit("p", False))])
        built = build_system(branches[0], ["p"])
        assert built.infeasible

    def test_demand_on_killed_cells_is_infeasible(self):
        # ">=1 p" demands live p-cells, "<=0 p" kills them all
        res = decide_sat([at_least(1, Lit("p"), Lit("p")),
                          at_most(0, Lit("p"), Lit("p"))])
        assert res.status == UNSAT

    def test_incompleteness_instance_live_columns(self):
        # independent oracle: enumerate all 2^15 masks, applying the <=0
        # sentences directly
        from numlog.proofs import incompleteness_instance
        phi, goals = incompleteness_instance(6)
        kills = [a for a in phi if a.direction == AT_MOST and a.bound == 0]
        preds = sorted({l.pred for a in phi for l in a.lits})
        index = {p: i for i, p in enumerate(preds)}

        def alive(mask):
            for a in kills:
                if all(bool((mask >> index[l.pred]) & 1) == l.positive
                       for l in a.lits):
                    return False
            return True

        oracle_live = sum(1 for mask in range(1 << 15) if alive(mask))
        branches = normalize(phi)
        assert len(branches) == 1
        built = build_system(branches[0], preds)
        assert len(built.live_types) == oracle_live == 144
        # with one goal negated, its cell dies too
        aug = phi + [negate_atom(goals[0])]
        built2 = build_system(normalize(aug)[0], preds)
        assert len(built2.live_types) == 143


class TestDecideSat:
    def test_triangle_colouring_is_sat(self):
        from numlog.reductions import encode_3col, graph
        k3 = graph(3, [(1, 2), (1, 3), (2, 3)])
        res = decide_sat(encode_3col(k3))
        assert res.status == SAT
        assert res.witness is not None
        assert all(evaluate(res.cells, a) for a in encode_3col(k3))

    def test_k4_is_unsat(self):
        from numlog.reductions import brute_3col, encode_3col, graph
        k4 = graph(4, [(i, j) for i in range(1, 5) for j in range(i + 1, 5)])
        assert brute_3col(k4) is None
        assert decide_sat(encode_3col(k4)).status == UNSAT

    def test_contradictory_pair(self):
        res = decide_sat([at_least(2, Lit("p"), Lit("p")),
                          at_most(1, Lit("p"), Lit("p"))])
        assert res.status == UNSAT

    def test_witness_size_bound(self):
        rng = random.Random(67)
        preds = ["p", "q"]
        for _ in range(100):
            atoms = [random_unary_atom(rng, preds, max_bound=3)
                     for _ in range(rng.randint(1, 4))]
            res = decide_sat(atoms)
            if res.status == SAT:
                cap = max(1, max(a.bound for a in atoms))
                assert res.witness.domain_size <= (1 << len(preds)) * cap
                for a in atoms:
                    assert evaluate(res.witness, a)

    def test_oracle_equivalence_small(self):
        rng = random.Random(71)
        preds = ["p", "q", "r"]
        for _ in range(120):
            atoms = [random_unary_atom(rng, preds[:rng.randint(1, 3)],
                                       max_bound=3)
                     for _ in range(rng.randint(1, 5))]
            used = sorted({l.pred for a in atoms for l in a.lits})
            cap = max(1, max(a.bound for a in atoms))
            oracle = brute_sat_flat(atoms, used, cap)
            res = decide_sat(atoms)
            assert (res.status == SAT) == (oracle is not None)

    def test_cap_doubling_never_flips(self):
        # re-solving with doubled per-cell caps keeps every verdict
        rng = random.Random(73)
        preds = ["p", "q"]
        for _ in range(100):
            atoms = [random_unary_atom(rng, preds, max_bound=3)
                     for _ in range(rng.randint(1, 4))]
            base = decide_sat(atoms)
            branches = normalize(atoms)
            doubled_sat = False
            for branch in branches:
                built = build_system(branch, sorted(
                    {l.pred for a in atoms for l in a.lits}))
                if built.infeasible:
                    continue
                cap = 2 * max(1, max(b for _, b, _ in branch.conjuncts))
                from numlog.linsys import ilp_solve
                if ilp_solve(built.system,
                             [cap] * len(built.live_types)) is not None:
                    doubled_sat = True
                    break
            assert (base.status == SAT) == doubled_sat

    def test_nested_quantifier_formula_is_sat(self):
        inner = Count(AT_LEAST, 2, Pred("q"))
        f = Count(AT_LEAST, 1, And((Pred("p"), Not(inner))))
        assert decide_sat([f]).status == SAT

    def test_witness_is_pinned(self):
        # the nonzero cells in column order (live types 0, 4, 6, 1, 3, 7),
        # each taking the next consecutive elements: c twice, then a&b,
        # then a&b&c
        a, b, c = Lit("a"), Lit("b"), Lit("c")
        res = decide_sat([at_least(3, a, b), at_most(1, a, c.opposite()),
                          at_least(2, b.opposite(), c), at_most(4, b, c)])
        assert res.cells.cells == ((4, 2), (3, 1), (7, 2))
        assert render_structure(res.witness) == (
            "domain 5\nunary a: 2, 3, 4\nunary b: 2, 3, 4\n"
            "unary c: 0, 1, 3, 4\n")


    def test_certificate_is_pinned(self):
        # a branch its search refuted, then one refuted before any search
        p, not_p = Lit("p"), Lit("p", False)
        res = decide_sat([at_least(2, p, p), at_most(1, p, p)])
        assert render_certificate(res) == (
            "branch 0: cap 2, 2 columns, over p\n>=2 (p & p)\n<=1 (p & p)\n")
        res = decide_sat([at_most(0, p, p), at_most(0, not_p, not_p)])
        assert render_certificate(res) == (
            "branch 0: trivially infeasible\n<=0 (p & p)\n<=0 (!p & !p)\n")
        with pytest.raises(ValueError):
            render_certificate(decide_sat([at_least(1, p, p)]))


class TestEntails:
    def test_flagship_argument(self):
        prem = [at_least(13, Lit("a"), Lit("b")),
                at_most(3, Lit("b"), Lit("c")),
                at_most(4, Lit("d"), Lit("c", False))]
        assert entails(prem, at_least(6, Lit("a"), Lit("d", False)))

    def test_additivity_sequent(self):
        prem = [at_least(2, Lit("p"), Lit("q")),
                at_least(3, Lit("p"), Lit("q", False))]
        assert entails(prem, at_least(5, Lit("p"), Lit("p")))

    def test_one_element_countermodel(self):
        assert not entails([at_least(1, Lit("p"), Lit("q"))],
                           at_least(2, Lit("p"), Lit("p")))

    def test_incompleteness_goal_is_entailed(self):
        from numlog.proofs import incompleteness_instance
        phi, goals = incompleteness_instance(6)
        assert entails(phi, goals[0])

    def test_rejects_nonatoms(self):
        with pytest.raises(InputError):
            entails([Count(AT_LEAST, 1, Pred("p"))],
                    at_least(1, Lit("p"), Lit("p")))

    def test_budget_exhaustion_raises_instead_of_a_verdict(self):
        # t2 is entailed, but only a branch and bound finds that out; one
        # node is not enough, and the entailment is not guessed
        from numlog.proofs import incompleteness_instance
        phi, goals = incompleteness_instance(6)
        assert entails(phi, goals[1])
        with pytest.raises(BudgetExhaustedError, match="undecided"):
            entails(phi, goals[1], max_nodes=1)


class TestScaledBounds:
    """Scaling every bound of a unary set by K maps a solution x to K*x, so
    Sat stays Sat, and the work must not grow with the numerals."""

    @staticmethod
    def counted_solves(monkeypatch):
        calls = [0]
        solve = _Tableau.solve

        def counting(self, *args, **kwargs):
            calls[0] += 1
            return solve(self, *args, **kwargs)

        monkeypatch.setattr(_Tableau, "solve", counting)
        return calls

    def test_lp_solves_do_not_grow_with_the_scale(self, monkeypatch):
        calls = self.counted_solves(monkeypatch)
        rng = random.Random(1)
        sets = []
        while len(sets) < 120:
            preds = ["p", "q", "r", "s"][:rng.randint(2, 4)]
            atoms = [random_unary_atom(rng, preds, max_bound=6)
                     for _ in range(rng.randint(2, 6))]
            if decide_sat(atoms).status == SAT:
                sets.append(atoms)
        for k in (1, 10**3, 10**6):
            per_set = []
            for atoms in sets:
                before = calls[0]
                scaled = [UnaryAtom(a.direction, a.bound * k, a.lits)
                          for a in atoms]
                assert decide_sat(scaled).status == SAT, (k, atoms)
                per_set.append(calls[0] - before)
            if k == 1:
                at_one = per_set
            assert all(c <= c1 for c, c1 in zip(per_set, at_one)), k

    def test_huge_bound_makes_no_lp_solve(self, monkeypatch):
        calls = self.counted_solves(monkeypatch)
        res = decide_sat([at_least(10**12, Lit("p"), Lit("q"))])
        assert res.status == SAT and res.cells.domain_size == 10**12
        assert calls[0] == 0

    def test_31_predicate_kill_chain_is_decided(self):
        # p0 -> p1 -> ... -> p30 leaves 32 live 1-types out of 2^31
        preds = [f"p{i}" for i in range(31)]
        atoms = [at_most(0, Lit(a), Lit(b, False))
                 for a, b in zip(preds, preds[1:])]
        atoms.append(at_least(1, Lit("p0"), Lit("p0")))
        assert decide_sat(atoms).status == SAT

    def test_a_subtree_of_one_signature_is_one_column(self):
        # 4 * 3^12 (2.1 M) masks are live, past MAX_LIVE; but below a and b
        # no row body changes, so each (a, b) subtree yields one mask
        atoms = [at_least(3, Lit("a"), Lit("b")), at_most(5, Lit("a"), Lit("a"))]
        atoms += [at_most(0, Lit(f"x_{i}"), Lit(f"y_{i}")) for i in range(12)]
        res = decide_sat(atoms)
        assert res.status == SAT and len(res.cells.preds) == 26
        assert res.cells.cells == ((0b11, 3),)
        assert all(evaluate(res.cells, a) for a in atoms)

    def test_kills_decided_at_the_last_predicate_are_refused(self):
        # every partial mask over a01..a40 dies only at z's bit, so no mask
        # is ever live and only the walk's node cap stops 2^41 nodes
        atoms = [at_least(1, Lit(f"a{i:02d}"), Lit(f"a{i:02d}"))
                 for i in range(1, 41)]
        atoms += [at_most(0, Lit("z"), Lit("z")),
                  at_most(0, Lit("z", False), Lit("z", False))]
        with pytest.raises(BudgetExhaustedError, match="walk node cap"):
            decide_sat(atoms)
