"""Reduction generators: 3-colouring and tiling encoders, witnesses,
decoders, and their brute-force oracles."""

import random

import pytest

from numlog.c1 import SAT, UNSAT, decide_sat
from numlog.errors import InputError
from numlog.logic import RelationalAtom, UnaryAtom, evaluate
from numlog.reductions import (TilingSystem, brute_3col,
                               brute_tiling, decode_3col, decode_tiling,
                               encode_3col, encode_tiling, graph,
                               is_valid_tiling, parse_graph, render_graph,
                               tiling_from_rows, witness_model)

K3 = graph(3, [(1, 2), (1, 3), (2, 3)])
K4 = graph(4, [(i, j) for i in range(1, 5) for j in range(i + 1, 5)])
C5 = graph(5, [(1, 2), (2, 3), (3, 4), (4, 5), (1, 5)])

FREE2 = TilingSystem(
    ("c1", "c2"),
    frozenset((a, b) for a in ("c1", "c2") for b in ("c1", "c2")),
    frozenset((a, b) for a in ("c1", "c2") for b in ("c1", "c2")))


class TestEncode3col:
    def test_atom_count(self):
        atoms = encode_3col(K3)
        assert len(atoms) == 1 + 9 + 9 + 9

    def test_k3_satisfiable(self):
        assert decide_sat(encode_3col(K3)).status == SAT

    def test_k4_unsatisfiable(self):
        assert decide_sat(encode_3col(K4)).status == UNSAT

    def test_single_node_satisfiable(self):
        assert decide_sat(encode_3col(graph(1, []))).status == SAT


class TestDecode3col:
    def test_round_trip_named_graphs(self):
        for g in (K3, C5, graph(1, [])):
            res = decide_sat(encode_3col(g))
            col = decode_3col(res.witness, g)
            for a, b in g.edges:
                assert col[a] != col[b]

    def test_random_graphs_round_trip(self):
        rng = random.Random(97)
        for _ in range(12):
            n = rng.randint(2, 6)
            g = graph(n, [(i, j) for i in range(1, n + 1)
                          for j in range(i + 1, n + 1) if rng.random() < 0.4])
            res = decide_sat(encode_3col(g))
            oracle = brute_3col(g)
            assert (res.status == SAT) == (oracle is not None)
            if res.status == SAT:
                col = decode_3col(res.witness, g)
                for a, b in g.edges:
                    assert col[a] != col[b]

    def test_non_model_rejected(self):
        from numlog.logic import structure
        with pytest.raises(InputError):
            decode_3col(structure(1, {"p": set()}), K3)


class TestBrute3col:
    def test_k3_proper(self):
        col = brute_3col(K3)
        assert col is not None and len(set(col.values())) == 3

    def test_k4_none(self):
        assert brute_3col(K4) is None

    def test_empty_graph_all_zero(self):
        assert brute_3col(graph(3, [])) == {1: 0, 2: 0, 3: 0}


class TestGraphFiles:
    def test_round_trip(self):
        assert parse_graph(render_graph(C5)) == C5

    def test_rejects_loops(self):
        with pytest.raises(InputError):
            graph(2, [(1, 1)])

    @pytest.mark.parametrize("text", ["p edge 3 1\ne 1\n",
                                      "p edge 3 1\ne 1 2 3\n",
                                      "p edge 3 1\ne 1 x\n",
                                      "c comment\np edge x 3\n",
                                      "p edge 3 1\ncheese 1 2\n",
                                      "c\tcomment\nc2 1 2\n"])
    def test_malformed_line_names_its_number(self, text):
        with pytest.raises(InputError, match="^line 2: "):
            parse_graph(text)


class TestEncodeTiling:
    def test_notebook_size_matches_formula(self):
        atoms = encode_tiling(FREE2, ["c1"], 1)
        labels = {a.lits[0].pred for a in atoms if isinstance(a, UnaryAtom)
                  and a.lits[0].pred.startswith("l")
                  and a.lits[0].pred[1:].isdigit()}
        assert len(labels) == 2 * (1 * 1 + 1 + 1)  # s = 6 at k=1

    def test_clause_gadget_count(self):
        atoms = encode_tiling(FREE2, ["c1"], 1)
        verbs = {a.verb for a in atoms if isinstance(a, RelationalAtom)}
        gadget_verbs = {v for v in verbs if v.startswith("rg")}
        assert len(gadget_verbs) == 4  # one per clause at k=1

    def test_subscript_bit_lengths_polynomial(self):
        for k, m in [(1, 2), (2, 3)]:
            colours = tuple(f"c{i+1}" for i in range(m))
            allp = frozenset((a, b) for a in colours for b in colours)
            ts = TilingSystem(colours, allp, allp)
            atoms = encode_tiling(ts, [colours[0]], k)
            limit = 2 * k + (m - 1).bit_length() + 1
            for a in atoms:
                bounds = [a.bound] + ([a.inner_bound]
                                      if isinstance(a, RelationalAtom) else [])
                for b in bounds:
                    assert b >= 0 and max(b, 1).bit_length() <= limit

    def test_rejects_overlong_init(self):
        with pytest.raises(InputError):
            encode_tiling(FREE2, ["c1", "c2", "c1"], 1)


class TestWitnessModel:
    def test_domain_size(self):
        t = brute_tiling(FREE2, 2, ["c1"])
        wit = witness_model(FREE2, t, ["c1"], 1)
        assert wit.domain_size == 2 * 4 + 2 * 6  # M*N^2 + 2s

    def test_h_edges_form_shift_permutation(self):
        t = brute_tiling(FREE2, 2, ["c1"])
        wit = witness_model(FREE2, t, ["c1"], 1)
        h = wit.binary_ext("h")
        grid = sorted(wit.unary_ext("q"))
        outs = {a for a, _ in h}
        ins = {b for _, b in h}
        assert outs == ins == set(grid)
        assert len(h) == len(grid)

    def test_colours_partition_o(self):
        t = brute_tiling(FREE2, 2, ["c1"])
        wit = witness_model(FREE2, t, ["c1"], 1)
        o = wit.unary_ext("o")
        c1, c2 = wit.unary_ext("c1"), wit.unary_ext("c2")
        assert c1 | c2 == o and not (c1 & c2)

    def test_model_checks_every_atom(self):
        t = brute_tiling(FREE2, 2, ["c1"])
        wit = witness_model(FREE2, t, ["c1"], 1)
        for a in encode_tiling(FREE2, ["c1"], 1):
            assert evaluate(wit, a), a

    def test_rejects_invalid_tiling(self):
        bad_ts = TilingSystem(("c1", "c2"), frozenset([("c1", "c1")]),
                              frozenset([("c1", "c1")]))
        t = tiling_from_rows(2, [["c1", "c2"], ["c2", "c1"]])
        with pytest.raises(InputError):
            witness_model(bad_ts, t, ["c1"], 1)


class TestDecodeTiling:
    def test_round_trip_random_tilings(self):
        rng = random.Random(101)
        colours = ("c1", "c2")
        for _ in range(10):
            rows = [[rng.choice(colours) for _ in range(2)] for _ in range(2)]
            t = tiling_from_rows(2, rows)
            init = [t.colour_at(0, 0)]
            wit = witness_model(FREE2, t, init, 1)
            assert decode_tiling(wit, FREE2, 1, init) == t

    def test_single_colour_constant(self):
        one = TilingSystem(("c1",), frozenset([("c1", "c1")]),
                           frozenset([("c1", "c1")]))
        t = brute_tiling(one, 2, ["c1"])
        assert t is not None
        wit = witness_model(one, t, ["c1"], 1)
        assert decode_tiling(wit, one, 1, ["c1"]) == t

    def test_shared_coordinates_rejected(self):
        t = brute_tiling(FREE2, 2, ["c1"])
        wit = witness_model(FREE2, t, ["c1"], 1)
        # collapse the x-digit interpretation: every grid element claims x=0
        unary = {p: set(v) for p, v in wit.unary.items()}
        unary["X0"] = set()
        unary["Xb0"] = set(wit.unary_ext("q"))
        from numlog.logic import structure
        broken = structure(wit.domain_size, unary,
                           {r: set(v) for r, v in wit.binary.items()})
        with pytest.raises(InputError):
            decode_tiling(broken, FREE2, 1, ["c1"])


class TestBruteTiling:
    def test_free_system_constant(self):
        one = TilingSystem(("c1",), frozenset([("c1", "c1")]),
                           frozenset([("c1", "c1")]))
        t = brute_tiling(one, 3)
        assert t is not None and is_valid_tiling(one, t)

    def test_empty_horizontal_none(self):
        ts = TilingSystem(("c1",), frozenset(), frozenset([("c1", "c1")]))
        assert brute_tiling(ts, 2) is None

    def test_alternating_constraints(self):
        # only alternation allowed horizontally: needs even side, works at 2
        ts = TilingSystem(("c1", "c2"),
                          frozenset([("c1", "c2"), ("c2", "c1")]),
                          frozenset((a, b) for a in ("c1", "c2")
                                    for b in ("c1", "c2")))
        t = brute_tiling(ts, 2)
        assert t is not None and is_valid_tiling(ts, t)
        assert t.colour_at(0, 0) != t.colour_at(1, 0)

    def test_large_grid_needs_no_deep_recursion(self):
        # 1024 cells: one Python frame per cell would exceed the default
        # recursion limit
        ts = TilingSystem(("c1", "c2"), FREE2.horizontal, FREE2.vertical)
        t = brute_tiling(ts, 32, ["c2"])
        assert t is not None and is_valid_tiling(ts, t, ["c2"])
        assert t.colour_at(0, 0) == "c2" and t.colour_at(31, 31) == "c1"

    def test_encode_agrees_with_brute_at_tiny_scale(self):
        # satisfiability of the encoding matches tiling existence via the
        # witness/decoder pair on random constrained 2-colour systems
        rng = random.Random(103)
        colours = ("c1", "c2")
        for _ in range(6):
            pairs = [(a, b) for a in colours for b in colours]
            h = frozenset(p for p in pairs if rng.random() < 0.7)
            v = frozenset(p for p in pairs if rng.random() < 0.7)
            ts = TilingSystem(colours, h, v)
            init = [rng.choice(colours)]
            t = brute_tiling(ts, 2, init)
            if t is None:
                continue
            wit = witness_model(ts, t, init, 1)  # checks all atoms internally
            assert decode_tiling(wit, ts, 1, init) == t


class TestTilingSystem:
    @pytest.mark.parametrize("colours, pairs, match", [
        (("a", "a"), [], "distinct names"),
        ((), [], "distinct names"),
        (("a", "b"), [("a", "c")], "unknown colour"),
    ])
    def test_refuses_bad_colours(self, colours, pairs, match):
        with pytest.raises(InputError, match=match):
            TilingSystem(colours, frozenset(), frozenset(pairs))


# rows of distinct neighbours, constant columns: tilings exist for every N
PROPER3 = TilingSystem(
    ("c1", "c2", "c3"),
    frozenset((a, b) for a in ("c1", "c2", "c3") for b in ("c1", "c2", "c3")
              if a != b),
    frozenset((a, a) for a in ("c1", "c2", "c3")))


class TestTilingRoundTripPastK1:
    """From k = 2 on the encoding has the fix-up predicates `Xp`/`Xm` and
    `Yp`/`Ym`; the witness must model their digit conditions exactly."""

    @pytest.mark.parametrize("k", [2, 3])
    @pytest.mark.parametrize("ts, init", [(FREE2, ["c1"]),
                                          (PROPER3, ["c1", "c2"])])
    def test_witness_models_every_atom_and_decodes(self, ts, init, k):
        t = brute_tiling(ts, 1 << k, init)
        s = witness_model(ts, t, init, k)
        atoms = encode_tiling(ts, init, k)
        assert all(evaluate(s, a) for a in atoms)
        assert any("Xp0_1" in a.predicates() for a in atoms
                   if isinstance(a, UnaryAtom))
        assert decode_tiling(s, ts, k, init) == t
