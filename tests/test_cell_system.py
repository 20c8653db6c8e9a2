"""Seeded differential suite for `c1.cell_system` and the live-type walk.

The reference below shares no code with numlog: it evaluates bodies with
its own walk over the formula, enumerates all 2^l masks in the walk's order
(lexicographic in the bits read from bit 0 upwards, that is, bit-reversed
counting), drops the masks a kill holds on and keeps the first mask of each
row signature.  `TestWalkFold` also holds the walk to the one that tested
every kill and body on its own (`helpers.reference_live_signatures`), down
to where a node cap stops it, and `TestCollapse` holds the walk that
collapses subtrees of one signature to a recursion by its closure rule and
`cell_system` to the system built over that full walk.
"""

import random
from collections import Counter
from functools import partial

import pytest

from numlog import c1, logic, proofs, reductions
from numlog.errors import BudgetExhaustedError, UnknownPredicateError
from numlog.linsys import EQ, GE, LE, LinearSystem
from numlog.logic import (FALSE, TRUE, And, Lit, Not, Or, Pred, at_most,
                          atom_formula, live_signatures)

from helpers import reference_cell_system, reference_live_signatures

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


def conjunction_literals(f):
    """The (predicate, value) literals of a literal or a (nested) And of
    literals, else None."""
    if isinstance(f, Pred):
        return {(f.name, True)}
    if isinstance(f, Not) and isinstance(f.body, Pred):
        return {(f.body.name, False)}
    if not isinstance(f, And):
        return None
    lits = set()
    for part in f.parts:
        got = conjunction_literals(part)
        if got is None:
            return None
        lits |= got
    return lits


def closure_rule(preds, bodies):
    """Per level L below len(preds): (avoid, cover) when a node at level L
    whose mask has no avoid bit and every cover bit has one signature over
    its whole subtree, else None.  A body whose highest predicate is below
    L, which holds no predicate, or which holds some p and !p never
    changes there; any other body must be a conjunction of literals with
    exactly one predicate besides its highest one, on a bit below L, whose
    literal the mask contradicts."""
    index = {p: i for i, p in enumerate(preds)}
    rules = []  # (highest bit, (bit, value) of the other literal or None)
    for body in bodies:
        names = logic.formula_predicates(body)
        if not names:
            continue
        top = max(index[p] for p in names)
        lits = conjunction_literals(body)
        if lits is not None and len(lits) > len({p for p, _ in lits}):
            continue
        rest = ([(index[p], v) for p, v in lits if index[p] != top]
                if lits is not None else [])
        rules.append((top, rest[0] if len(rest) == 1 else None))
    closes = []
    for level in range(len(preds)):
        avoid = cover = 0
        for top, rest in rules:
            if top < level:
                continue
            if rest is None or rest[0] >= level:
                break
            if rest[1]:
                avoid |= 1 << rest[0]
            else:
                cover |= 1 << rest[0]
        else:
            if not avoid & cover:
                closes.append((avoid, cover))
                continue
        closes.append(None)
    return closes


def collapsed_walk(preds, kills, bodies):
    """The masks `live_signatures(..., collapse=True)` yields, found by
    recursion: every live leaf, except that a closed node (`closure_rule`)
    gives only the first live leaf of its subtree; and a Counter of the
    closed nodes met, by how they closed and how their leaf was found."""
    index = {p: i for i, p in enumerate(preds)}
    n = len(preds)
    decided = [(k, max((index[p] for p in logic.formula_predicates(k)),
                       default=-1)) for k in kills]
    closes = closure_rule(preds, bodies)
    kinds, masks = Counter(), []

    def live(mask, level):  # no kill decided on a bit below `level` holds
        return not any(top < level and holds(k, mask, index)
                       for k, top in decided)

    def first_leaf(mask, level, passed):
        if not live(mask, level):
            return None
        if level == n:
            return mask
        for c in (0, 1 << level):
            leaf = first_leaf(mask | c, level + 1, passed)
            if leaf is not None:
                return leaf
        passed.append(mask)  # a live node with no live leaf below
        return None

    def closed(mask, level):
        rule = closes[level] if level < n else None
        return rule is not None and not mask & rule[0] and mask & rule[1] == rule[1]

    def walk(mask, level, beside):
        """`beside`: the sibling closes too."""
        if not live(mask, level):
            return
        if level == n:
            masks.append(mask)
            return
        if closed(mask, level):
            rule = closes[level]
            kinds["closed at the root" if level == 0 else
                  "closed avoiding a bit" if rule[0] else
                  "closed covering a bit" if rule[1] else
                  "closed with no literal"] += 1
            passed = []
            leaf = first_leaf(mask, level, passed)
            kinds["beside a closed sibling"] += beside
            kinds["dead end beside a closed sibling"] += beside and bool(passed)
            if leaf is None:
                kinds["no live leaf"] += 1
                return
            kinds["dead end"] += bool(passed)
            masks.append(leaf)
            return
        kids = (mask, mask | 1 << level)
        both = all(live(k, level + 1) and closed(k, level + 1) for k in kids)
        for kid in kids:
            walk(kid, level + 1, both)

    walk(0, 0, False)
    return masks, kinds


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
            live = len(collapsed_walk(preds, kills, [b for _, _, b in rows])[0])
            if not live:
                continue
            monkeypatch.setattr(c1, "MAX_LIVE", live)
            assert c1.cell_system(preds, kills, rows) == \
                reference_system(preds, kills, rows)
            monkeypatch.setattr(c1, "MAX_LIVE", live - 1)
            with pytest.raises(BudgetExhaustedError):
                c1.cell_system(preds, kills, rows)
            done += 1


FOLD_KINDS = ("literal", "p & p", "!p & !p", "two literals", "p & !p",
              "three literals", "clause", "nested", "constant")


def fold_body(rng, preds, kind):
    """A kill or row body of one kind: the walk folds the first four into
    masks, drops `p & !p` and tests the rest."""
    p = Pred(rng.choice(preds))
    if kind == "literal":
        return literal(rng, preds)
    if kind == "p & p":
        return And((p, p))
    if kind == "!p & !p":
        return And((Not(p), Not(p)))
    if kind == "two literals":
        return And((literal(rng, preds), literal(rng, preds)))
    if kind == "p & !p":
        extra = (literal(rng, preds),) if rng.random() < 0.5 else ()
        return And((p, Not(p)) + extra)
    if kind == "three literals":
        return And(tuple(literal(rng, preds) for _ in range(3)))
    if kind == "clause":
        return Or(tuple(literal(rng, preds) for _ in range(rng.randint(1, 3))))
    if kind == "nested":
        return random_body(rng, preds)
    return rng.choice(CONSTANTS)


def fold_kinds(preds, kills, bodies):
    """How many kills and bodies the walk folds, by kind, how many bodies
    share their child and remaining literal with an earlier one, and how
    many `p & !p` conjunctions it drops."""
    index = {p: i for i, p in enumerate(preds)}
    kinds, rests = Counter(), set()
    for i, body in enumerate(kills + bodies):
        bits = logic._literal_bits(body, And, index)
        if bits is None or not any(bits):
            continue
        pos, neg = bits
        if pos & neg:
            kinds["p & !p"] += 1
            continue
        top = (pos | neg).bit_length() - 1
        rest = (pos | neg) ^ 1 << top
        if rest & (rest - 1):
            continue
        role = "kill" if i < len(kills) else "body"
        kinds[f"{role} on a {'literal' if rest else 'side'}"] += 1
        if role == "body" and rest:
            kinds["merged body"] += (top, pos >> top & 1, rest) in rests
            rests.add((top, pos >> top & 1, rest))
    return kinds


def walk_outcome(walk):
    """What a walk yields before it ends, and whether it hit its node cap."""
    got = []
    try:
        for pair in walk:
            got.append(pair)
    except BudgetExhaustedError:
        return got, True
    return got, False


def colouring_round():
    """k3, k4, c5 and seeded graphs of 2 to 8 nodes with half of the
    possible edges, as one round of the benchmark's colouring workload."""
    rng = random.Random(71)
    graphs = [reductions.graph(3, [(1, 2), (1, 3), (2, 3)]),
              reductions.graph(4, [(i, j) for i in range(1, 5)
                                   for j in range(i + 1, 5)]),
              reductions.graph(5, [(1, 2), (2, 3), (3, 4), (4, 5), (1, 5)])]
    for n in (2, 2, 3, 4, 4, 4, 5, 6, 7, 8, 8):
        pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
        graphs.append(reductions.graph(n, rng.sample(pairs, len(pairs) // 2)))
    return [reductions.encode_3col(g) for g in graphs]


class TestWalkFold:
    """The walk that folds literal kills and bodies into masks against the
    one that tested each of them (`reference_live_signatures`)."""

    @pytest.mark.parametrize("frontier", [2, logic.FRONTIER])
    def test_mixes_match_the_reference(self, monkeypatch, frontier):
        monkeypatch.setattr(logic, "FRONTIER", frontier)
        seen = Counter()
        rng = random.Random(241)
        for _ in range(1000):
            preds = [f"x{i}" for i in range(rng.randint(1, 8))]
            kills = [fold_body(rng, preds, rng.choice(FOLD_KINDS))
                     for _ in range(rng.randint(0, 3))]
            bodies = [fold_body(rng, preds, rng.choice(FOLD_KINDS))
                      for _ in range(rng.randint(0, 6))]
            if bodies and rng.random() < 0.3:
                bodies.append(rng.choice(bodies))  # an exact count's pair
            seen.update(fold_kinds(preds, kills, bodies))
            want = walk_outcome(reference_live_signatures(preds, kills, bodies))
            assert want == (list(live_signatures(preds, kills, bodies)), False)
            cap = rng.randint(0, 2 << len(preds))
            want = walk_outcome(
                reference_live_signatures(preds, kills, bodies, cap))
            assert walk_outcome(live_signatures(preds, kills, bodies, cap)) \
                == want
            seen["node cap"] += want[1]
        assert min(seen.values()) >= 20 and len(seen) == 7, seen

    def test_recorded_walks_match_the_reference(self, monkeypatch):
        walks = []

        def record(preds, kills, bodies, max_nodes=None, collapse=False):
            walks.append((preds, list(kills), list(bodies), max_nodes))
            return live_signatures(*walks[-1], collapse)

        monkeypatch.setattr(c1, "live_signatures", record)
        for m in (6, 8):
            phi, goals = proofs.incompleteness_instance(m)
            for goal in goals:
                assert c1.entails(phi, goal)
        for atoms in colouring_round():
            c1.decide_sat(atoms)
        assert len(walks) == 7 + 9 + 14
        for preds, kills, bodies, max_nodes in walks:
            full = list(reference_live_signatures(preds, kills, bodies,
                                                  max_nodes))
            assert list(live_signatures(preds, kills, bodies, max_nodes)) == full
            # on these systems the collapsed walk yields each column once
            first = {}
            for mask, sig in full:
                first.setdefault(sig, mask)
            assert (list(live_signatures(preds, kills, bodies, max_nodes, True))
                    == [(mask, sig) for sig, mask in first.items()])


SHAPES = ("gated", "kills only", "dead ends", "mixed")


def collapse_case(rng, shape):
    """preds, kills and rows of one shape: row bodies gated by one shared
    low literal (the colouring encoding's `x & p`), constant rows only,
    either of those or rows on the lowest bits (above which every node
    closes) over 2-CNF kills that force a bit only a few bits higher (so a
    closed node's first try dies below it, or every try), or a mix of
    every fold kind."""
    preds = [f"x{i}" for i in range(rng.randint(2, 8))]
    n = len(preds)

    def lit(i, value=None):
        value = rng.random() < 0.5 if value is None else value
        return Pred(preds[i]) if value else Not(Pred(preds[i]))

    def gated():
        g, value = rng.randrange(min(3, n - 1)), rng.random() < 0.5
        bodies = [And((lit(rng.randrange(g + 1, n)),
                       lit(g, value if rng.random() < 0.9 else not value)))
                  for _ in range(rng.randint(1, 6))]
        return bodies + [fold_body(rng, preds[:g + 1], rng.choice(FOLD_KINDS))
                         for _ in range(rng.randint(0, 2))]

    def constants():
        return [rng.choice(CONSTANTS) for _ in range(rng.randint(0, 2))]

    def low():  # rows on the lowest bits only
        return [fold_body(rng, preds[:rng.randint(1, 3)], rng.choice(FOLD_KINDS))
                for _ in range(rng.randint(1, 4))]

    kills = [And((lit(rng.randrange(n)), lit(rng.randrange(n))))
             for _ in range(rng.randint(0, 3))]
    if shape == "gated":
        bodies = gated()
    elif shape == "kills only":
        bodies = constants()
        kills = [fold_body(rng, preds, rng.choice(FOLD_KINDS))
                 for _ in range(rng.randint(0, 4))]
    elif shape == "dead ends":
        bodies = rng.choice([gated, constants, low])()
        for _ in range(rng.randint(1, 2)):
            i = rng.randrange(n - 1)
            j = rng.randrange(i + 1, min(i + 4, n))
            forced = [rng.random() < 0.8] if rng.random() < 0.8 else [0, 1]
            kills += [And((lit(j, v), lit(i, not f)))
                      for f in forced for v in (0, 1)]
    else:
        bodies = [fold_body(rng, preds, rng.choice(FOLD_KINDS))
                  for _ in range(rng.randint(0, 6))]
    rows = [(rng.choice([GE, LE, EQ]), rng.randint(0, 9), b) for b in bodies]
    return preds, kills, rows


def cell_outcome(build):
    """A cell system with its columns, or "capped" on BudgetExhaustedError."""
    try:
        live, system = build()
    except BudgetExhaustedError:
        return "capped"
    return live, system, system.columns


def dead_pairs(k):
    """`<=0 (a_i & b_i)` for i < k, `<=0 (z & z)` and `<=0 (!z & !z)`: z's
    bit kills both children, so no mask is live, and only that bit shows
    it."""
    atoms = [at_most(0, Lit(f"a_{i}"), Lit(f"b_{i}")) for i in range(k)]
    return atoms + [at_most(0, Lit("z"), Lit("z")),
                    at_most(0, Lit("z", False), Lit("z", False))]


class TestCollapse:
    """The walk `cell_system` runs, which yields only the first live leaf of
    a subtree whose leaves share one signature, against a recursion by the
    closure rule (`collapsed_walk`) and the cell system over the full walk
    (`helpers.reference_cell_system`)."""

    @pytest.mark.parametrize("frontier", [2, 1024])
    def test_cell_system_matches_the_full_walk(self, monkeypatch, frontier):
        monkeypatch.setattr(logic, "FRONTIER", frontier)
        rng = random.Random(257)
        seen = Counter()
        for i in range(1200):
            preds, kills, rows = collapse_case(rng, SHAPES[i % len(SHAPES)])
            bodies = [b for _, _, b in rows]
            index = {p: k for k, p in enumerate(preds)}
            masks, kinds = collapsed_walk(preds, kills, bodies)
            seen.update(kinds)
            want = [(m, sum(1 << k for k, b in enumerate(bodies)
                            if holds(b, m, index))) for m in masks]
            assert list(live_signatures(preds, kills, bodies,
                                        collapse=True)) == want
            cap = rng.randint(0, 2 << len(preds))
            got = walk_outcome(live_signatures(preds, kills, bodies, cap, True))
            capped = walk_outcome(
                reference_live_signatures(preds, kills, bodies, cap))[1]
            assert got == (want, False) or got[1] and capped
            if capped:
                seen["node cap, both walks" if got[1] else
                     "node cap, the full walk only"] += 1
            full = cell_outcome(lambda: reference_cell_system(
                preds, kills, rows, c1.MAX_LIVE))
            assert cell_outcome(lambda: c1.cell_system(preds, kills, rows)) \
                == full
            live = rng.randint(1, len(reference_signatures(preds, kills, ())) + 1)
            with monkeypatch.context() as m:
                m.setattr(c1, "MAX_LIVE", live)
                got = cell_outcome(lambda: c1.cell_system(preds, kills, rows))
            want = cell_outcome(lambda: reference_cell_system(preds, kills,
                                                              rows, live))
            if want != "capped":
                assert got == want
            else:
                seen["capped, both" if got == "capped" else
                     "capped, the full walk only"] += 1
        assert min(seen.values()) >= 20 and len(seen) == 12, seen

    def test_a_walk_with_no_live_leaf_stops_at_the_node_cap(self):
        # no row body holds a predicate, so the root closes, and only the
        # node cap stops the walk over the 3^20 partial masks of the pairs
        with pytest.raises(BudgetExhaustedError, match="walk node cap"):
            c1.decide_sat(dead_pairs(20))
        # over 11 pairs both walks pop every live partial mask: 2^12 - 1
        # over the a bits, then 2^(11-j) 3^j after the j-th b bit
        preds = sorted({f"{p}_{i}" for p in "ab" for i in range(11)}) + ["z"]
        kills = [atom_formula(a).body for a in dead_pairs(11)]
        nodes = 2 ** 12 - 1 + sum(2 ** (11 - j) * 3 ** j for j in range(1, 12))
        for walk in (partial(live_signatures, collapse=True),
                     reference_live_signatures):
            assert walk_outcome(walk(preds, kills, (), nodes)) == ([], False)
            assert walk_outcome(walk(preds, kills, (), nodes - 1)) == ([], True)
