"""Seeded differential suite for `c1.cell_system` and the live-type walk.

The reference below shares no code with numlog: it evaluates bodies with
its own walk over the formula, enumerates all 2^l masks in the walk's order
(lexicographic in the bits read from bit 0 upwards, that is, bit-reversed
counting), drops the masks a kill holds on and keeps the first mask of each
row signature.
"""

import random

import pytest

from numlog import c1, logic
from numlog.errors import BudgetExhaustedError, UnknownPredicateError
from numlog.linsys import EQ, GE, LE, LinearSystem
from numlog.logic import FALSE, TRUE, And, Not, Or, Pred, live_signatures

# bodies without predicates, decided once at the root of the walk
CONSTANTS = (TRUE, FALSE, Not(TRUE), Not(FALSE), And((TRUE, Not(FALSE))),
             Or((FALSE, And(()))), Or((FALSE,)))


def holds(f, mask, index):
    if isinstance(f, Pred):
        return mask >> index[f.name] & 1 == 1
    if isinstance(f, Not):
        return not holds(f.body, mask, index)
    if isinstance(f, And):
        return all(holds(p, mask, index) for p in f.parts)
    if isinstance(f, Or):
        return any(holds(p, mask, index) for p in f.parts)
    raise TypeError(f)


def walk_order(l):
    """All masks over l bits, bit 0 most significant in the order."""
    return [int(format(i, f"0{l}b")[::-1], 2) if l else 0
            for i in range(1 << l)]


def reference_signatures(preds, kills, bodies):
    index = {p: i for i, p in enumerate(preds)}
    return [(mask, sum(1 << i for i, b in enumerate(bodies)
                       if holds(b, mask, index)))
            for mask in walk_order(len(preds))
            if not any(holds(k, mask, index) for k in kills)]


def reference_system(preds, kills, rows):
    index = {p: i for i, p in enumerate(preds)}
    first = {}
    for mask in walk_order(len(preds)):
        if any(holds(k, mask, index) for k in kills):
            continue
        sig = tuple(holds(body, mask, index) for _, _, body in rows)
        first.setdefault(sig, mask)
    sigs = list(first)
    system = LinearSystem(
        tuple(tuple((k, 1) for k, sig in enumerate(sigs) if sig[i])
              for i in range(len(rows))),
        tuple(rel for rel, _, _ in rows), tuple(rhs for _, rhs, _ in rows),
        len(sigs))
    return tuple(first.values()), system


def literal(rng, preds):
    p = Pred(rng.choice(preds))
    return p if rng.random() < 0.5 else Not(p)


def random_body(rng, preds, depth=2):
    """A literal conjunction, a clause, a constant or a nested body."""
    roll = rng.random()
    if not preds or roll < 0.1:
        return rng.choice(CONSTANTS)
    if roll < 0.45:
        lits = [literal(rng, preds) for _ in range(rng.randint(1, 3))]
        return lits[0] if len(lits) == 1 and rng.random() < 0.5 else And(tuple(lits))
    if roll < 0.6:
        return Or(tuple(literal(rng, preds) for _ in range(rng.randint(1, 3))))
    if depth == 0:
        return literal(rng, preds)
    if roll < 0.7:
        return Not(random_body(rng, preds, depth - 1))
    parts = tuple(random_body(rng, preds, depth - 1)
                  for _ in range(rng.randint(0, 3)))
    return And(parts) if rng.random() < 0.5 else Or(parts)


def random_case(rng):
    preds = [f"x{i}" for i in range(rng.choice([0, 1, 2, 3, 4, 5, 6]))]
    kills = [random_body(rng, preds) for _ in range(rng.randint(0, 4))]
    rows = [(rng.choice([GE, LE, EQ]), rng.randint(0, 9), random_body(rng, preds))
            for _ in range(rng.randint(0, 5))]
    if rows and rng.random() < 0.3:
        rows.append(rng.choice(rows))
    rng.shuffle(rows)
    return preds, kills, rows


class TestCellSystemDifferential:
    def test_matches_reference(self):
        rng = random.Random(211)
        seen = {"no live": 0, "merged": 0, "constant kill": 0, "zero preds": 0}
        for _ in range(500):
            preds, kills, rows = random_case(rng)
            want = reference_system(preds, kills, rows)
            assert c1.cell_system(preds, kills, rows) == want
            live = reference_signatures(preds, kills, [b for _, _, b in rows])
            seen["no live"] += not live
            seen["merged"] += len(want[0]) < len(live)
            seen["constant kill"] += any(k in CONSTANTS for k in kills)
            seen["zero preds"] += not preds
        assert min(seen.values()) >= 20, seen

    @pytest.mark.parametrize("frontier", [1, 2, logic.FRONTIER])
    def test_walk_yields_every_live_mask_with_its_signature(self, monkeypatch,
                                                            frontier):
        monkeypatch.setattr(logic, "FRONTIER", frontier)
        rng = random.Random(223)
        for _ in range(300):
            preds, kills, rows = random_case(rng)
            bodies = [b for _, _, b in rows]
            assert (list(live_signatures(preds, kills, bodies))
                    == reference_signatures(preds, kills, bodies))

    def test_columns_are_the_transposed_rows(self):
        rng = random.Random(239)
        for _ in range(300):
            _, system = c1.cell_system(*random_case(rng))
            gathered = LinearSystem(system.rows, system.relations, system.rhs,
                                    system.num_vars)
            assert system.columns == gathered.columns

    def test_a_wide_walk_spans_several_frontiers(self):
        # 11-13 predicates and one or two kills on three of them leave more
        # live masks than a frontier holds, so the walk splits its children
        rng = random.Random(233)
        for _ in range(4):
            preds = [f"x{i}" for i in range(rng.randint(11, 13))]
            kills = [And(tuple(Pred(p) if rng.random() < 0.5 else Not(Pred(p))
                               for p in rng.sample(preds, 3)))
                     for _ in range(rng.randint(1, 2))]
            bodies = [random_body(rng, preds) for _ in range(rng.randint(2, 5))]
            want = reference_signatures(preds, kills, bodies)
            assert len(want) > logic.FRONTIER
            assert list(live_signatures(preds, kills, bodies)) == want

    def test_unknown_predicate_in_a_kill_or_a_row(self):
        rng = random.Random(227)
        for i in range(100):
            preds, kills, rows = random_case(rng)
            bad = rng.choice([Pred("zz"), Not(Pred("zz")),
                              And((Pred("zz"), literal(rng, preds or ["zz"]))),
                              Or((random_body(rng, preds), Pred("zz")))])
            if i % 2:
                kills.insert(rng.randint(0, len(kills)), bad)
            else:
                rows.insert(rng.randint(0, len(rows)), (GE, 1, bad))
            if i % 5 == 0:
                kills.insert(0, TRUE)  # nothing is live, yet bodies are checked
            with pytest.raises(UnknownPredicateError):
                c1.cell_system(preds, kills, rows)

    def test_live_cap(self, monkeypatch):
        rng = random.Random(229)
        done = 0
        while done < 40:
            preds, kills, rows = random_case(rng)
            live = len(reference_signatures(preds, kills, []))
            if not live:
                continue
            monkeypatch.setattr(c1, "MAX_LIVE", live)
            assert c1.cell_system(preds, kills, rows) == \
                reference_system(preds, kills, rows)
            monkeypatch.setattr(c1, "MAX_LIVE", live - 1)
            with pytest.raises(BudgetExhaustedError):
                c1.cell_system(preds, kills, rows)
            done += 1
