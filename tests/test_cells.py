"""Cell structures: (1-type, count) models, their evaluation in O(cells)
against the explicit expansion, and the strict cell form of structure files."""

import random

import pytest

from numlog.c1 import SAT, decide_sat
from numlog.errors import InputError, UnknownPredicateError
from numlog.logic import (AT_LEAST, AT_MOST, EXACTLY, FALSE, TRUE, And,
                          CellStructure, Count, Lit, Not, Or, Pred,
                          RelationalAtom, UnaryAtom, at_least, evaluate,
                          parse_structure, render_structure,
                          structure)

# "z" is never interpreted; the others are, when the structure picks them
NAMES = ["p", "q", "r", "s", "z"]


def random_cells(rng, max_count=5):
    """Predicates in a random order (so bit i is not alphabetical), a random
    subset of distinct masks and counts that are often zero."""
    preds = rng.sample(NAMES[:4], rng.randint(0, 4))
    masks = rng.sample(range(1 << len(preds)),
                       rng.randint(0, 1 << len(preds)))
    return CellStructure(tuple(preds),
                         tuple((m, rng.choice([0, rng.randint(0, max_count)]))
                               for m in masks))


def random_body(rng, depth):
    """A body over NAMES that may hold closed subformulas."""
    roll = rng.random()
    if depth == 0 or roll < 0.3:
        choice = rng.randrange(len(NAMES) + 2)
        if choice < len(NAMES):
            return Pred(NAMES[choice])
        return TRUE if choice == len(NAMES) else FALSE
    if roll < 0.4:
        return Not(random_body(rng, depth - 1))
    if roll < 0.5:
        return random_closed(rng, depth - 1)
    parts = tuple(random_body(rng, depth - 1) for _ in range(rng.randint(0, 3)))
    return And(parts) if rng.random() < 0.5 else Or(parts)


def random_sentence(rng):
    """A unary counting atom or a closed, possibly nested, formula."""
    if rng.random() < 0.25:
        return UnaryAtom(rng.choice((AT_LEAST, AT_MOST)), rng.randint(0, 6),
                         tuple(Lit(rng.choice(NAMES), rng.random() < 0.5)
                               for _ in range(2)))
    return random_closed(rng)


def random_closed(rng, depth=3):
    f = Count(rng.choice((AT_LEAST, AT_MOST, EXACTLY)), rng.randint(0, 6),
              random_body(rng, depth))
    roll = rng.random()
    if depth == 0 or roll < 0.6:
        return f
    if roll < 0.7:
        return Not(f)
    rest = tuple(random_closed(rng, depth - 1) for _ in range(rng.randint(0, 2)))
    return And((f,) + rest) if rng.random() < 0.5 else Or((f,) + rest)


def outcome(s, f):
    try:
        return evaluate(s, f)
    except UnknownPredicateError:
        return "unknown predicate"


class TestCellEvaluation:
    def test_agrees_with_the_expansion(self):
        rng = random.Random(1009)
        seen = {True: 0, False: 0, "unknown predicate": 0}
        for _ in range(300):
            cs = random_cells(rng)
            s = cs.expand()
            for _ in range(4):
                f = random_sentence(rng)
                got = outcome(cs, f)
                assert got == outcome(s, f), (cs, f)
                seen[got] += 1
        assert min(seen.values()) > 100, seen

    def test_counts_beyond_any_expansion(self):
        cs = CellStructure(("p", "q"), ((3, 10**12), (1, 5), (0, 0)))
        assert cs.domain_size == 10**12 + 5
        assert cs.cells == ((3, 10**12), (1, 5))
        assert evaluate(cs, at_least(10**12 + 5, Lit("p"), Lit("p")))
        assert not evaluate(cs, Count(AT_LEAST, 10**12 + 1, Pred("q")))
        assert evaluate(cs, Count(EXACTLY, 5, And((Pred("p"), Not(Pred("q"))))))

    def test_relational_atom_names_the_verb(self):
        cs = CellStructure(("p",), ((1, 2),))
        with pytest.raises(UnknownPredicateError, match="'admire'"):
            evaluate(cs, RelationalAtom(AT_LEAST, 1, "p", "admire",
                                        AT_LEAST, 1, "p"))

    @pytest.mark.parametrize("s", [structure(0, {}), structure(1, {"p": {0}}),
                                   CellStructure((), ()),
                                   CellStructure(("p",), ((1, 1),))])
    @pytest.mark.parametrize("f", [
        Count(AT_LEAST, 1, Pred("z")),
        Count(AT_LEAST, 1, Or((Pred("p"), Pred("z")))),
        Or((Count(AT_LEAST, 0, Pred("p")), Count(AT_MOST, 0, Pred("z")))),
    ])
    def test_uninterpreted_predicate_raises(self, s, f):
        # raised whether or not the value depends on z
        with pytest.raises(UnknownPredicateError, match="'[pz]'"):
            evaluate(s, f)

    def test_free_variable_is_rejected(self):
        with pytest.raises(InputError):
            evaluate(CellStructure(("p",), ((1, 2),)), Pred("p"))

    @pytest.mark.parametrize("preds, cells", [
        (("p",), ((2, 1),)),           # mask out of range
        (("p",), ((1, -1),)),          # negative count
        (("p",), ((1, 0), (1, 2))),    # the same mask twice
        (("p", "p"), ()),              # duplicate predicate
        (("3p",), ()),                 # not a predicate name
    ])
    def test_constructor_rejects(self, preds, cells):
        with pytest.raises(InputError):
            CellStructure(preds, cells)


class TestDecideSatCells:
    def test_sat_carries_cells_and_expands_lazily(self):
        res = decide_sat([at_least(10**12, Lit("p"), Lit("q"))])
        assert res.status == SAT
        assert res.cells.domain_size == 10**12
        assert "witness" not in vars(res)  # never expanded

    def test_witness_is_the_expanded_cells(self):
        res = decide_sat([at_least(3, Lit("p"), Lit("q")),
                          at_least(2, Lit("p"), Lit("q", False))])
        assert res.witness == res.cells.expand()
        assert res.witness is res.witness


class TestCellFiles:
    def test_round_trip(self):
        rng = random.Random(1019)
        for _ in range(200):
            cs = random_cells(rng, max_count=10 ** rng.randint(0, 15))
            assert parse_structure(render_structure(cs)) == cs

    def test_form(self):
        cs = CellStructure(("p", "q"), ((3, 10**6), (0, 2)))
        assert render_structure(cs) == (
            "domain 1000002\npredicates: p, q\ncell {p, q}: 1000000\n"
            "cell {}: 2\n")

    @pytest.mark.parametrize("text, line", [
        ("domain 0\npredicates: p\ncell {p}: -1\n", 3),
        ("domain 1\npredicates: p\ncell {p}: 1.0\n", 3),
        ("domain 1\npredicates: p\ncell {p}: one\n", 3),
        ("domain 1\npredicates: p\ncell {q}: 1\n", 3),
        ("domain 2\npredicates: p, q\ncell {p, q}: 1\n# again\ncell {q, p}: 1\n", 5),
        ("domain 3\npredicates: p\ncell {p}: 1\ncell {}: 1\n", 1),
        ("domain 1\npredicates: p\ncell {p}: 1\nunary p: 0\n", 4),
        ("domain 1\nunary p: 0\ncell {p}: 1\n", 3),
        ("domain 1\nbinary r:\npredicates: p\n", 3),
        ("domain 1\ncell {p}: 1\npredicates: p\n", 2),
        ("domain 1\npredicates: p\npredicates: p\ncell {p}: 1\n", 3),
        ("domainx 1\npredicates: p\ncell {p}: 1\n", 1),
        ("domain 1 junk\npredicates: p\ncell {p}: 1\n", 1),
        ("domain 5\npredicates: p\ndomain 2\ncell {p}: 2\n", 3),
        ("domain 2\nunaryq: 0\n", 2),
        ("domain 2\nbinaryr: (0,1)\n", 2),
    ])
    def test_parser_names_the_line(self, text, line):
        with pytest.raises(InputError, match=rf"^line {line}: "):
            parse_structure(text)

    def test_zero_count_lines_are_accepted(self):
        cs = parse_structure("domain 2\npredicates: p\ncell {}: 0\ncell {p}: 2\n")
        assert cs == CellStructure(("p",), ((1, 2),))
