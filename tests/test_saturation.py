"""Saturation against an independent oracle, and metamorphic laws of the
calculus: the fixpoint and every `derives` verdict must not depend on the
order of the premises, the names of the predicates, or the order of the two
literals inside an atom; and whatever the calculus derives is entailed."""

import random
from itertools import combinations_with_replacement

from hypothesis import given, settings, strategies as st

from numlog.c1 import entails
from numlog.logic import AT_LEAST, AT_MOST, Lit, UnaryAtom, at_least, at_most
from numlog.parsing import parse_symbolic
from numlog.proofs import (check_derivation, derives, render_derivation,
                           rule_conclusions, saturate)

from helpers import eager_derives, random_unary_atom

PREDS = ["p", "q", "r", "s"]
SUITE = settings(derandomize=True, database=None, deadline=None,
                 max_examples=150)


def oracle_saturate(premises):
    """Best bounds by brute force: close the best-bound atoms under every
    rule instance that `rule_conclusions` licenses until nothing improves.

    Returns (lower, upper, contradicted) keyed by canonical literal pairs
    over the premises' predicates."""
    preds = sorted({l.pred for a in premises for l in a.lits})
    lits = sorted((Lit(p, pos) for p in preds for pos in (True, False)),
                  key=lambda l: l.sort_key)
    lower = {pair: 0 for pair in combinations_with_replacement(lits, 2)}
    upper = {(a, b): 0 for a, b in lower if a == b.opposite()}

    def put(atom):
        pair = atom.lits
        if atom.direction == AT_LEAST:
            if atom.bound > lower[pair]:
                lower[pair] = atom.bound
                return True
        elif pair not in upper or atom.bound < upper[pair]:
            upper[pair] = atom.bound
            return True
        return False

    def contradicted():
        return any(lower[pair] > up for pair, up in upper.items())

    for atom in premises:
        put(atom)
    while not contradicted():
        lows = [at_least(v, *pair) for pair, v in lower.items()]
        ups = [at_most(v, *pair) for pair, v in upper.items()]
        found = [c for rule, firsts, seconds in
                 (("R1", ups, ups), ("R2", lows, ups), ("R3", ups, lows))
                 for a in firsts for b in seconds
                 for c in rule_conclusions(rule, a, b)]
        if not [c for c in found if put(c)]:
            break
    return lower, upper, contradicted()


def random_premises(rng):
    preds = PREDS[:rng.randint(1, 4)]
    return [random_unary_atom(rng, preds, max_bound=6)
            for _ in range(rng.randint(1, 6))]


def test_saturate_matches_oracle():
    rng = random.Random(4)
    for _ in range(400):
        prem = random_premises(rng)
        lower, upper, contradicted = oracle_saturate(prem)
        table = saturate(prem)
        assert table.complete
        assert (table.contradiction is not None) == contradicted, prem
        if not contradicted:
            assert table.lower == lower, prem
            assert table.upper == upper, prem


def test_upper_from_r3_against_the_zero_lower_axiom():
    # <=5 (p & !q) follows by R3 from <=5 (p & p) and the axiom >=0 (p & q)
    p, q = Lit("p"), Lit("q")
    prem = [at_most(5, p, p), at_least(1, q, q)]
    res = derives(prem, at_most(5, p, q.opposite()))
    assert res.derivable and check_derivation(res.derivation, prem)


def same_as_eager(prem, goal, **kwargs):
    """`derives` answers as it does over the eagerly converted table:
    verdict, completeness and the rendered derivation."""
    res = derives(prem, goal, **kwargs)
    derivable, derivation, complete = eager_derives(prem, goal, **kwargs)
    assert (res.derivable, res.complete) == (derivable, complete), prem
    assert res.derivation == derivation
    if derivable:
        assert render_derivation(res.derivation) == render_derivation(derivation)
    return res


def test_derives_matches_the_eager_table():
    rng = random.Random(257)
    seen = {"derivable": 0, "not derivable": 0, "ex falso": 0,
            "incomplete": 0, "goal off the table": 0}
    for _ in range(600):
        prem = random_premises(rng)
        goal = random_unary_atom(rng, PREDS, max_bound=8)
        budget = rng.choice([None, 0, 2, 10])
        kwargs = {} if budget is None else {"max_updates": budget}
        res = same_as_eager(prem, goal, **kwargs)
        seen["derivable" if res.derivable else "not derivable"] += 1
        seen["ex falso"] += bool(res.derivable
                                 and res.derivation.rule == "exfalso")
        seen["incomplete"] += not res.complete
        seen["goal off the table"] += not goal.predicates() <= {
            l.pred for a in prem for l in a.lits}
    assert min(seen.values()) >= 20, seen


# ---------------------------------------------------------------------------
# Metamorphic suite
# ---------------------------------------------------------------------------

def atoms_over(preds, top):
    lits = st.builds(Lit, st.sampled_from(preds), st.booleans())
    return st.builds(lambda d, c, a, b: UnaryAtom(d, c, (a, b)),
                     st.sampled_from([AT_LEAST, AT_MOST]),
                     st.integers(0, top), lits, lits)


atoms = atoms_over(PREDS, 6)
premise_sets = st.lists(atoms, min_size=1, max_size=6)
small_atoms = atoms_over(PREDS[:3], 4)


def bounds(table):
    if table.contradiction is not None:
        return None
    return table.lower, table.upper


def rename_pair(pair, names):
    a, b = (Lit(names[l.pred], l.positive) for l in pair)
    return tuple(sorted((a, b), key=lambda l: l.sort_key))


def rename_atom(atom, names):
    return UnaryAtom(atom.direction, atom.bound, rename_pair(atom.lits, names))


@SUITE
@given(premise_sets, atoms, st.randoms(use_true_random=False))
def test_premise_order_does_not_matter(prem, goal, rnd):
    shuffled = list(prem)
    rnd.shuffle(shuffled)
    assert bounds(saturate(shuffled)) == bounds(saturate(prem))
    assert derives(shuffled, goal).derivable == derives(prem, goal).derivable


@SUITE
@given(premise_sets, atoms)
def test_derives_over_the_lazy_table_is_unchanged(prem, goal):
    same_as_eager(prem, goal)


@SUITE
@given(premise_sets, atoms, st.permutations(["w", "x", "y", "z"]))
def test_renaming_predicates_does_not_matter(prem, goal, targets):
    # the new names sort in another order than the old ones
    names = dict(zip(PREDS, targets))
    renamed = [rename_atom(a, names) for a in prem]
    table, other = saturate(prem), saturate(renamed)
    assert (table.contradiction is None) == (other.contradiction is None)
    if table.contradiction is None:
        for side, renamed_side in ((table.lower, other.lower),
                                   (table.upper, other.upper)):
            assert {rename_pair(pair, names): v
                    for pair, v in side.items()} == renamed_side
    res = derives(renamed, rename_atom(goal, names))
    assert res.derivable == derives(prem, goal).derivable
    if res.derivable:
        assert check_derivation(res.derivation, renamed)


@SUITE
@given(premise_sets, atoms)
def test_literal_order_inside_an_atom_does_not_matter(prem, goal):
    def swapped(a):
        return f"{a.direction}{a.bound} ({a.lits[1]} & {a.lits[0]})"

    text = "\n".join([swapped(a) for a in prem] + ["Therefore:", swapped(goal)])
    arg = parse_symbolic(text)
    assert bounds(saturate(arg.premises)) == bounds(saturate(prem))
    assert derives(arg.premises, arg.conclusion).derivable == \
        derives(prem, goal).derivable


@settings(SUITE, max_examples=100)
@given(st.lists(small_atoms, min_size=1, max_size=4), small_atoms)
def test_derivable_implies_entailed(prem, goal):
    res = derives(prem, goal)
    if res.derivable:
        assert check_derivation(res.derivation, prem)
        assert entails(prem, goal)
