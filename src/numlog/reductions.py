"""Hardness-instance generators: 3-colourability as unary counting sentences,
and toroidal tiling as relational counting sentences with binary-counter
coordinates, plus witness builders, decoders, and brute-force oracles.

The tiling encoder works over an N x N torus with N = 2^k.  Grid coordinates
live in digit predicates (one per bit, with an explicit complement predicate
each); "carry chain" predicates mark the longest all-ones digit prefix so a
single step of the successor relation can be axiomatized; a 2s-element
"notebook" of uniquely-instantiated labels plus one fresh binary relation per
clause simulates the disjunctions the fragment itself cannot express.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .errors import (BudgetExhaustedError, InputError, at_line, decimal,
                     numbered_lines)
from .logic import (AT_LEAST, AT_MOST, CountingAtom, FiniteStructure, Lit,
                    RelationalAtom, UnaryAtom, at_least, at_most, evaluate,
                    structure)

# ---------------------------------------------------------------------------
# Graphs and 3-colouring
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Graph:
    """Undirected graph on nodes 1..n, no loops or multi-edges."""

    n: int
    edges: frozenset[tuple[int, int]]

    def __post_init__(self):
        if self.n < 0:
            raise InputError("negative node count")
        norm = set()
        for a, b in self.edges:
            if a == b:
                raise InputError(f"loop edge ({a},{b})")
            if not (1 <= a <= self.n and 1 <= b <= self.n):
                raise InputError(f"edge ({a},{b}) out of range")
            norm.add((min(a, b), max(a, b)))
        object.__setattr__(self, "edges", frozenset(norm))


def graph(n: int, edges) -> Graph:
    return Graph(n, frozenset(tuple(e) for e in edges))


def _colour_pred(i: int, k: int) -> str:
    return f"p{i}_{k}"


def encode_3col(g: Graph) -> list[UnaryAtom]:
    """Sentences satisfiable iff g is 3-colourable.

    Exactly: a global "at most 3 p" sentence; per node, disjointness of its
    three colour predicates and a covering "at least 1" per colour; per edge
    and colour, an exclusion.  1 + 3n + 3n + 3|E| sentences in total.
    """
    if g.n < 1:
        raise InputError("need at least one node")
    p = Lit("p")
    atoms = [at_most(3, p, p)]
    for i in range(1, g.n + 1):
        for j in range(3):
            for k in range(j + 1, 3):
                atoms.append(at_most(0, Lit(_colour_pred(i, j)),
                                     Lit(_colour_pred(i, k))))
    for i in range(1, g.n + 1):
        for k in range(3):
            atoms.append(at_least(1, Lit(_colour_pred(i, k)), p))
    for a, b in sorted(g.edges):
        for k in range(3):
            atoms.append(at_most(0, Lit(_colour_pred(a, k)),
                                 Lit(_colour_pred(b, k))))
    return atoms


def decode_3col(s: FiniteStructure, g: Graph) -> dict[int, int]:
    """Read a 3-colouring off a model of encode_3col(g).

    Picks the least element satisfying p and returns, per node, the unique
    colour predicate that element realizes.  The result is checked proper.
    """
    for a in encode_3col(g):
        if not evaluate(s, a):
            raise InputError(f"structure is not a model of the encoding: {a}")
    p_ext = s.unary_ext("p")
    elem = min(p_ext)
    colouring: dict[int, int] = {}
    for i in range(1, g.n + 1):
        hits = [k for k in range(3) if elem in s.unary_ext(_colour_pred(i, k))]
        if len(hits) != 1:
            raise InputError(f"element {elem} has {len(hits)} colours at node {i}")
        colouring[i] = hits[0]
    for a, b in g.edges:
        if colouring[a] == colouring[b]:
            raise InputError("decoded colouring is not proper")
    return colouring


def brute_3col(g: Graph) -> dict[int, int] | None:
    """Exhaustive 3-colouring oracle (first proper colouring in
    lexicographic order), for n <= 12."""
    if g.n > 12:
        raise InputError("brute_3col is capped at 12 nodes")
    adj: dict[int, list[int]] = {i: [] for i in range(1, g.n + 1)}
    for a, b in g.edges:
        adj[a].append(b)
        adj[b].append(a)
    col: dict[int, int] = {}

    def walk(i: int):
        if i > g.n:
            return dict(col)
        for k in range(3):
            if all(col.get(nb) != k for nb in adj[i]):
                col[i] = k
                got = walk(i + 1)
                if got is not None:
                    return got
                del col[i]
        return None

    return walk(1)


# Graph file format: DIMACS-like "p edge n m" plus "e i j" lines, where m
# is the number of distinct edges.

def parse_graph(text: str) -> Graph:
    n = m = n_ln = None
    edge_ln: dict[tuple[int, int], int] = {}  # the first line of each edge
    for ln, line in numbered_lines(text):
        tag, *rest = line.split()
        with at_line(ln):
            if tag == "p":
                if n_ln is not None:
                    raise InputError(f"problem line repeats line {n_ln}")
                if len(rest) != 3 or rest[0] != "edge":
                    raise InputError("bad problem line")
                n, m, n_ln = decimal(rest[1]), decimal(rest[2]), ln
            elif tag == "e":
                if len(rest) != 2:
                    raise InputError("an edge line is 'e a b'")
                edge_ln.setdefault((decimal(rest[0]), decimal(rest[1])), ln)
            elif tag != "c":
                raise InputError(f"unrecognized {line!r}")
    if n is None:
        raise InputError("missing 'p edge n m' line")
    for edge, ln in edge_ln.items():
        with at_line(ln):
            graph(n, [edge])  # a loop or a node out of range
    g = graph(n, edge_ln)
    if len(g.edges) != m:
        with at_line(n_ln):
            raise InputError(f"the problem line gives {m} edges, the file "
                             f"has {len(g.edges)}")
    return g


def render_graph(g: Graph) -> str:
    lines = [f"p edge {g.n} {len(g.edges)}"]
    lines += [f"e {a} {b}" for a, b in sorted(g.edges)]
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Tiling systems
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TilingSystem:
    """Colours plus horizontal/vertical adjacency constraints."""

    colours: tuple[str, ...]
    horizontal: frozenset[tuple[str, str]]
    vertical: frozenset[tuple[str, str]]

    def __post_init__(self):
        if len(set(self.colours)) != len(self.colours) or not self.colours:
            raise InputError("colours must be a nonempty list of distinct names")
        cs = set(self.colours)
        for rel in (self.horizontal, self.vertical):
            for a, b in rel:
                if a not in cs or b not in cs:
                    raise InputError(f"constraint ({a},{b}) uses unknown colour")


@dataclass(frozen=True)
class Tiling:
    """grid[x][y] is the colour at column x, row y; wrap-around is modulo
    size in both directions."""

    size: int
    grid: tuple[tuple[str, ...], ...]

    def colour_at(self, x: int, y: int) -> str:
        return self.grid[x % self.size][y % self.size]


def tiling_from_rows(size: int, rows) -> Tiling:
    grid = tuple(tuple(rows[x][y] for y in range(size)) for x in range(size))
    return Tiling(size, grid)


def is_valid_tiling(ts: TilingSystem, t: Tiling, init=None) -> bool:
    n = t.size
    for x in range(n):
        for y in range(n):
            if (t.colour_at(x, y), t.colour_at(x + 1, y)) not in ts.horizontal:
                return False
            if (t.colour_at(x, y), t.colour_at(x, y + 1)) not in ts.vertical:
                return False
    if init is not None:
        if len(init) > n:
            return False
        if any(t.colour_at(i, 0) != c for i, c in enumerate(init)):
            return False
    return True


def brute_tiling(ts: TilingSystem, size: int, init=None, *,
                 budget: int = 2_000_000) -> Tiling | None:
    """First valid tiling in colour-lexicographic raster order, or None."""
    init = list(init or [])
    if len(init) > size:
        raise InputError("initial configuration longer than the grid")
    cells = [(x, y) for y in range(size) for x in range(size)]
    assign: dict[tuple[int, int], str] = {}
    spent = 0

    def ok(x, y, c):
        left = assign.get(((x - 1) % size, y))
        if x > 0 and left is not None and (left, c) not in ts.horizontal:
            return False
        if x == size - 1:
            right = assign.get((0, y)) if size > 1 else c
            if right is not None and (c, right) not in ts.horizontal:
                return False
        below = assign.get((x, (y - 1) % size))
        if y > 0 and below is not None and (below, c) not in ts.vertical:
            return False
        if y == size - 1:
            top = assign.get((x, 0)) if size > 1 else c
            if top is not None and (c, top) not in ts.vertical:
                return False
        return True

    # Depth first with an explicit stack: stack[i] is the position, in cell
    # i's options, of the next colour to try there; each cell below the top
    # holds the colour just before its position.
    stack = [0]
    while stack:
        idx = len(stack) - 1
        if idx == len(cells):
            rows = [[assign[(x, y)] for y in range(size)] for x in range(size)]
            return tiling_from_rows(size, rows)
        x, y = cells[idx]
        options = [init[x]] if (y == 0 and x < len(init)) else ts.colours
        while stack[-1] < len(options):
            c = options[stack[-1]]
            stack[-1] += 1
            spent += 1
            if spent > budget:
                raise BudgetExhaustedError("brute_tiling budget exhausted")
            if ok(x, y, c):
                assign[(x, y)] = c
                stack.append(0)
                break
        else:
            stack.pop()
            if stack:
                del assign[cells[len(stack) - 1]]
    return None


# ---------------------------------------------------------------------------
# The tiling encoding
# ---------------------------------------------------------------------------

MAX_TILING_K = 6  # largest grid exponent; k = 6: 7 s, 150 MB on 2 cores


def _matches(coord: int, pairs) -> bool:
    """Whether a coordinate has the value of every (digit, value) pair."""
    return all(coord >> d & 1 == v for d, v in pairs)


class _Frame:
    """Shared bookkeeping between the encoder and the witness builder.

    `tracked` lists the s tracked predicates, the X axis's then the Y
    axis's, each as (name, complement, pairs): a grid element has the
    predicate exactly when its coordinate on that axis `_matches` the
    (digit, value) pairs.  The first p of each axis are the digits; the
    rest (carry chain `s`, fix-ups `p` and `m`) each head one clause of
    `clauses`, the predicate then the negation of each of its pairs, as
    (tracked index, barred) literals on the axis's digits, in that order:
    the witness links each grid element to its clause's first true literal.
    The encoder's complement counts and the witness's extensions and clause
    edges all derive from these pairs.
    """

    def __init__(self, ts: TilingSystem, init, k: int):
        if not 1 <= k <= MAX_TILING_K:
            raise InputError(f"exponent k must be from 1 to {MAX_TILING_K}")
        self.ts = ts
        self.init = list(init)
        self.k = k
        self.p = k
        self.N = 1 << k
        self.M = len(ts.colours)
        self.s = 2 * (k * k + k + 1)
        if len(self.init) > self.N:
            raise InputError("initial configuration longer than the grid side")
        for c in self.init:
            if c not in ts.colours:
                raise InputError(f"unknown colour {c!r} in initial configuration")
        reserved = {"q", "o", "l", "h", "v"}
        for c in ts.colours:
            if c in reserved or re.match(r"(X|Y|o\d|l\d|lb\d|rg\d)", c):
                raise InputError(f"colour name {c!r} clashes with encoding names")
        p = self.p

        def chain(i: int) -> tuple:  # digit i is the lowest 0 (none at i = p)
            return (((i, 0),) if i < p else ()) + tuple((d, 1) for d in range(i))

        self.tracked: list[tuple[str, str, tuple]] = []
        for ax in ("X", "Y"):
            self.tracked += [(f"{ax}{i}", f"{ax}b{i}", ((i, 1),))
                             for i in range(p)]
            self.tracked += [(f"{ax}s{i}", f"{ax}sb{i}", chain(i))
                             for i in range(p + 1)]
            for tag, v in (("p", 1), ("m", 0)):
                self.tracked += [(f"{ax}{tag}{i}_{j}", f"{ax}{tag}b{i}_{j}",
                                  ((j, v),) + chain(i))
                                 for i in range(p) for j in range(i + 1, p)]
        assert len(self.tracked) == self.s
        half = self.s // 2
        # the negation of (d, v) is digit d of the axis, barred when v is 1
        self.clauses = [[(h, False)] + [(h - h % half + d, v == 1)
                                        for d, v in pairs]
                        for h, (_, _, pairs) in enumerate(self.tracked)
                        if h % half >= p]


def encode_tiling(ts: TilingSystem, init, k: int) -> list[CountingAtom]:
    """Sentences satisfiable iff ts has a 2^k x 2^k tiling starting with init.

    Emits, in order: digit axioms, grid-successor axioms, colour cover with
    a padding region, initial-configuration pins, adjacency exclusions,
    complement axioms for the carry-chain/fix-up predicates, the notebook of
    uniquely-instantiated labels, and one clause gadget (fresh binary
    relation) per clause.
    """
    f = _Frame(ts, init, k)
    N2 = f.N * f.N
    atoms: dict[CountingAtom, None] = {}

    def emit(a: CountingAtom):
        atoms.setdefault(a)

    def subset(sub: str, sup: str):
        emit(at_most(0, Lit(sub), Lit(sup, False)))

    def disjoint(a: str, b: str):
        emit(at_most(0, Lit(a), Lit(b)))

    # digit axioms per axis
    for ax in ("X", "Y"):
        emit(at_most(N2, Lit("q"), Lit("q")))
        for i in range(f.p):
            emit(at_least(N2 // 2, Lit(f"{ax}{i}"), Lit(f"{ax}{i}")))
            emit(at_least(N2 // 2, Lit(f"{ax}b{i}"), Lit(f"{ax}b{i}")))
        for i in range(f.p):
            subset(f"{ax}{i}", "q")
            subset(f"{ax}b{i}", "q")
            disjoint(f"{ax}{i}", f"{ax}b{i}")

    # grid successor axioms: verb "h" moves x, "v" moves y
    for ax, other, verb in (("X", "Y", "h"), ("Y", "X", "v")):
        emit(RelationalAtom(AT_MOST, 0, "q", verb, AT_MOST, 0, "q"))
        for i in range(f.p):
            emit(RelationalAtom(AT_MOST, 0, f"{ax}s{i}", verb,
                                AT_LEAST, 1, f"{ax}b{i}"))
        for i in range(f.p + 1):
            for j in range(i):
                emit(RelationalAtom(AT_MOST, 0, f"{ax}s{i}", verb,
                                    AT_LEAST, 1, f"{ax}{j}"))
        for i in range(f.p):
            for j in range(i + 1, f.p):
                emit(RelationalAtom(AT_MOST, 0, f"{ax}p{i}_{j}", verb,
                                    AT_LEAST, 1, f"{ax}b{j}"))
                emit(RelationalAtom(AT_MOST, 0, f"{ax}m{i}_{j}", verb,
                                    AT_LEAST, 1, f"{ax}{j}"))
        for i in range(f.p):
            emit(RelationalAtom(AT_MOST, 0, f"{other}{i}", verb,
                                AT_LEAST, 1, f"{other}b{i}"))
            emit(RelationalAtom(AT_MOST, 0, f"{other}b{i}", verb,
                                AT_LEAST, 1, f"{other}{i}"))

    # colour cover with the padding region inside "o"
    subset("q", "o")
    emit(at_most(f.M * N2, Lit("o"), Lit("o")))
    for c in f.ts.colours:
        emit(at_least(N2, Lit(c), Lit(c)))
    for c in f.ts.colours:
        subset(c, "o")
    for a, b in ((f.ts.colours[i], f.ts.colours[j])
                 for i in range(f.M) for j in range(i + 1, f.M)):
        disjoint(a, b)

    # initial configuration pins
    for i, colour in enumerate(f.init):
        o_i = f"o{i}"
        emit(at_least(1, Lit(o_i), Lit("q")))
        for d in range(f.p):
            want = f"X{d}" if (i >> d) & 1 else f"Xb{d}"
            subset(o_i, want)
        for d in range(f.p):
            subset(o_i, f"Yb{d}")
        subset(o_i, colour)

    # adjacency exclusions
    for a in f.ts.colours:
        for b in f.ts.colours:
            if (a, b) not in f.ts.horizontal:
                emit(RelationalAtom(AT_MOST, 0, a, "h", AT_LEAST, 1, b))
    for a in f.ts.colours:
        for b in f.ts.colours:
            if (a, b) not in f.ts.vertical:
                emit(RelationalAtom(AT_MOST, 0, a, "v", AT_LEAST, 1, b))

    # complement axioms for the carry-chain / fix-up predicates
    for clause in f.clauses:  # the digits' are axiomatized above
        name, bar, pairs = f.tracked[clause[0][0]]
        n_g = f.N * sum(_matches(c, pairs) for c in range(f.N))
        emit(at_least(n_g, Lit(name), Lit(name)))
        emit(at_least(N2 - n_g, Lit(bar), Lit(bar)))
        subset(name, "q")
        subset(bar, "q")
        disjoint(name, bar)

    # notebook of uniquely instantiated labels
    emit(at_most(2 * f.s, Lit("l"), Lit("l")))
    for h in range(1, f.s + 1):
        emit(at_least(1, Lit(f"l{h}"), Lit(f"l{h}")))
        emit(at_least(1, Lit(f"lb{h}"), Lit(f"lb{h}")))
    for h in range(1, f.s + 1):
        subset(f"l{h}", "l")
        subset(f"lb{h}", "l")
    for h in range(1, f.s + 1):
        for h2 in range(h + 1, f.s + 1):
            disjoint(f"l{h}", f"l{h2}")
            disjoint(f"lb{h}", f"lb{h2}")
    for h in range(1, f.s + 1):
        for h2 in range(1, f.s + 1):
            disjoint(f"l{h}", f"lb{h2}")

    # clause gadgets
    for gi, clause in enumerate(f.clauses):
        verb = f"rg{gi}"
        pos = {h for h, barred in clause if not barred}
        negs = {h for h, barred in clause if barred}
        emit(RelationalAtom(AT_MOST, 0, "q", verb, AT_MOST, 0, "l"))
        for h in range(f.s):
            if h not in pos:
                emit(RelationalAtom(AT_MOST, 0, "q", verb,
                                    AT_LEAST, 1, f"l{h + 1}"))
            if h not in negs:
                emit(RelationalAtom(AT_MOST, 0, "q", verb,
                                    AT_LEAST, 1, f"lb{h + 1}"))
        for h in range(f.s):
            emit(RelationalAtom(AT_MOST, 0, f.tracked[h][0], verb,
                                AT_LEAST, 1, f"lb{h + 1}"))
            emit(RelationalAtom(AT_MOST, 0, f.tracked[h][1], verb,
                                AT_LEAST, 1, f"l{h + 1}"))

    return list(atoms)


def witness_model(ts: TilingSystem, t: Tiling, init, k: int) -> FiniteStructure:
    """The intended model of encode_tiling(ts, init, k) built from a tiling.

    Grid elements are index x*N + y; the notebook holds one element per
    label; colour predicates are padded into the spare region so each one
    has exactly N^2 elements.  The result is verified against every
    emitted sentence.
    """
    f = _Frame(ts, init, k)
    N, N2 = f.N, f.N * f.N
    if t.size != N or not is_valid_tiling(ts, t, init):
        raise InputError("not a valid tiling with the given initial configuration")

    def gidx(x: int, y: int) -> int:
        return x * N + y

    grid = [gidx(x, y) for x in range(N) for y in range(N)]
    note_top = {h: N2 + 2 * (h - 1) for h in range(1, f.s + 1)}
    note_bot = {h: N2 + 2 * (h - 1) + 1 for h in range(1, f.s + 1)}
    spare_base = N2 + 2 * f.s
    domain = spare_base + (f.M - 1) * N2

    unary: dict[str, set[int]] = {}

    def ext(name: str) -> set[int]:
        return unary.setdefault(name, set())

    ext("q").update(grid)
    half = f.s // 2
    for h, (name, bar, pairs) in enumerate(f.tracked):
        members = {gidx(x, y) for x in range(N) for y in range(N)
                   if _matches(x if h < half else y, pairs)}
        ext(name).update(members)
        ext(bar).update(set(grid) - members)

    # colours: grid cells per the tiling, padded from the spare region
    spare_next = spare_base
    for c in f.ts.colours:
        cells = {gidx(x, y) for x in range(N) for y in range(N)
                 if t.colour_at(x, y) == c}
        pad = N2 - len(cells)
        ext(c).update(cells)
        ext(c).update(range(spare_next, spare_next + pad))
        spare_next += pad
    assert spare_next == domain
    ext("o").update(grid)
    ext("o").update(range(spare_base, domain))
    for i in range(len(f.init)):
        ext(f"o{i}").add(gidx(i, 0))
    ext("l").update(range(N2, spare_base))
    for h in range(1, f.s + 1):
        ext(f"l{h}").add(note_top[h])
        ext(f"lb{h}").add(note_bot[h])

    binary: dict[str, set[tuple[int, int]]] = {
        "h": {(gidx(x, y), gidx((x + 1) % N, y))
              for x in range(N) for y in range(N)},
        "v": {(gidx(x, y), gidx(x, (y + 1) % N))
              for x in range(N) for y in range(N)},
    }
    for gi, clause in enumerate(f.clauses):
        edges = set()
        for e in grid:
            target = None
            for h, barred in clause:
                name = f.tracked[h][1] if barred else f.tracked[h][0]
                if e in unary[name]:
                    target = note_bot[h + 1] if barred else note_top[h + 1]
                    break
            assert target is not None, "grid element satisfies no clause literal"
            edges.add((e, target))
        binary[f"rg{gi}"] = edges

    out = structure(domain, unary, binary)
    for a in encode_tiling(ts, init, k):
        assert evaluate(out, a), f"witness fails {a}"
    return out


def decode_tiling(s: FiniteStructure, ts: TilingSystem, k: int,
                  init=None) -> Tiling:
    """Read the tiling off a model of the encoding.

    Coordinates come from the digit predicates; the structure is rejected
    when any coordinate pair is missing or duplicated, when a grid element's
    colour is not unique, or when the resulting tiling violates the
    adjacency constraints or the initial configuration.
    """
    f = _Frame(ts, init or [], k)
    N = f.N
    cells: dict[tuple[int, int], int] = {}
    for e in sorted(s.unary_ext("q")):
        x = y = 0
        for i in range(f.p):
            in_pos = e in s.unary_ext(f"X{i}")
            in_neg = e in s.unary_ext(f"Xb{i}")
            if in_pos == in_neg:
                raise InputError(f"element {e}: inconsistent x digit {i}")
            x |= (1 << i) if in_pos else 0
            in_pos = e in s.unary_ext(f"Y{i}")
            in_neg = e in s.unary_ext(f"Yb{i}")
            if in_pos == in_neg:
                raise InputError(f"element {e}: inconsistent y digit {i}")
            y |= (1 << i) if in_pos else 0
        if (x, y) in cells:
            raise InputError(f"two grid elements share coordinates ({x},{y})")
        cells[(x, y)] = e
    if len(cells) != N * N:
        raise InputError("grid coordinates do not cover the torus")
    rows = []
    for x in range(N):
        col = []
        for y in range(N):
            e = cells[(x, y)]
            hits = [c for c in ts.colours if e in s.unary_ext(c)]
            if len(hits) != 1:
                raise InputError(f"grid element {e} has {len(hits)} colours")
            col.append(hits[0])
        rows.append(col)
    t = tiling_from_rows(N, rows)
    if not is_valid_tiling(ts, t, init):
        raise InputError("decoded grid violates the tiling constraints")
    return t
