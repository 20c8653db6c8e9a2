"""Core syntax and exact finite-model semantics for counting-quantifier fragments.

The sentence forms handled across the package are counting atoms: "at
least/at most C elements satisfy L1 and L2" over unary literals, plus the
relational form "at least/at most C p VERB at least/at most D q" in which the
subject quantifier always scopes over the object quantifier.  A small
one-variable formula language (conjunction, disjunction, negation, counting
quantifiers over unary atoms) embeds the unary atoms and is what the
satisfiability pipeline normalizes.

Everything here is immutable after construction and evaluated exactly;
there are no approximation paths.  A structure is either explicit
(`FiniteStructure`: elements, extensions and edge sets) or given by its
1-type cells (`CellStructure`: (mask, count) pairs).  `evaluate` decides
unary atoms and closed one-variable formulas on cells in time linear in the
number of cells, so its cost grows with the bit-length of the counts, not
their value; `CellStructure.expand` gives the explicit structure.  The
live 1-types under a set of kill bodies come from one depth-first walk,
`live_signatures`, which also records the row bodies each one satisfies.
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from itertools import groupby
from typing import Callable, Iterable, Iterator, Mapping, Sequence, Union

from .errors import (BudgetExhaustedError, InputError, UnknownPredicateError,
                     at_line, decimal, numbered_lines)

AT_LEAST = ">="
AT_MOST = "<="
EXACTLY = "="

_IDENT = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")


def _check_ident(name: str) -> str:
    if not _IDENT.match(name or ""):
        raise InputError(f"not a valid predicate name: {name!r}")
    return name


@dataclass(frozen=True)
class Lit:
    """A signed unary predicate: p or !p."""

    pred: str
    positive: bool = True

    def __post_init__(self):
        _check_ident(self.pred)

    def opposite(self) -> "Lit":
        return Lit(self.pred, not self.positive)

    @property
    def sort_key(self):
        # positive before negative, predicate names lexicographic
        return (self.pred, 0 if self.positive else 1)

    def __str__(self) -> str:
        return self.pred if self.positive else "!" + self.pred


@dataclass(frozen=True)
class UnaryAtom:
    """One sentence of the unary fragments: at least/at most C (L1 and L2).

    The literal pair is canonically ordered, so the two spellings of a
    symmetric sentence compare (and hash) equal.  Bounds may be negative:
    such atoms only arise inside the proof engine, where `<= C` for C < 0 is
    the constant-false sentence and `>= C` for C <= 0 the constant-true one.
    """

    direction: str
    bound: int
    lits: tuple[Lit, Lit]

    def __post_init__(self):
        if self.direction not in (AT_LEAST, AT_MOST):
            raise InputError(f"bad direction {self.direction!r}")
        if len(self.lits) != 2:
            raise InputError("unary atom needs exactly two literals")
        ordered = tuple(sorted(self.lits, key=lambda l: l.sort_key))
        object.__setattr__(self, "lits", ordered)

    @property
    def is_trivially_false(self) -> bool:
        return self.direction == AT_MOST and self.bound < 0

    def predicates(self) -> set[str]:
        return {l.pred for l in self.lits}

    def __str__(self) -> str:
        return f"{self.direction}{self.bound} ({self.lits[0]} & {self.lits[1]})"


@dataclass(frozen=True)
class RelationalAtom:
    """A transitive-verb sentence: at least/at most C p VERB at least/at most D q.

    `subject` and `obj` are unary predicates, `verb` is binary.  The subject
    quantifier scopes over the object quantifier.
    """

    direction: str
    bound: int
    subject: str
    verb: str
    inner_direction: str
    inner_bound: int
    obj: str

    def __post_init__(self):
        for d in (self.direction, self.inner_direction):
            if d not in (AT_LEAST, AT_MOST):
                raise InputError(f"bad direction {d!r}")
        for name in (self.subject, self.verb, self.obj):
            _check_ident(name)

    @property
    def is_trivially_false(self) -> bool:
        return self.direction == AT_MOST and self.bound < 0

    def predicates(self) -> set[str]:
        return {self.subject, self.obj}

    def __str__(self) -> str:
        return (
            f"{self.direction}{self.bound} {self.subject} "
            f"[{self.verb} {self.inner_direction}{self.inner_bound} {self.obj}]"
        )


CountingAtom = Union[UnaryAtom, RelationalAtom]


def at_least(bound: int, l1: Lit, l2: Lit) -> UnaryAtom:
    return UnaryAtom(AT_LEAST, bound, (l1, l2))


def at_most(bound: int, l1: Lit, l2: Lit) -> UnaryAtom:
    return UnaryAtom(AT_MOST, bound, (l1, l2))


def negate_atom(a: CountingAtom) -> CountingAtom:
    """The dual sentence: >=C becomes <=C-1, <=C becomes >=C+1.

    For relational atoms only the outer quantifier flips.  On every finite
    structure exactly one of {a, negate_atom(a)} holds.  Dualizing >=0
    yields <=-1, the constant-false atom (see is_trivially_false).
    """
    if isinstance(a, UnaryAtom):
        if a.direction == AT_LEAST:
            return UnaryAtom(AT_MOST, a.bound - 1, a.lits)
        return UnaryAtom(AT_LEAST, a.bound + 1, a.lits)
    if a.direction == AT_LEAST:
        return RelationalAtom(AT_MOST, a.bound - 1, a.subject, a.verb,
                              a.inner_direction, a.inner_bound, a.obj)
    return RelationalAtom(AT_LEAST, a.bound + 1, a.subject, a.verb,
                          a.inner_direction, a.inner_bound, a.obj)


# ---------------------------------------------------------------------------
# One-variable formulas with counting quantifiers
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Pred:
    name: str

    def __post_init__(self):
        _check_ident(self.name)

    def __str__(self):
        return self.name


@dataclass(frozen=True)
class Not:
    body: "C1Formula"

    def __str__(self):
        return f"!{self.body}"


@dataclass(frozen=True)
class And:
    parts: tuple["C1Formula", ...]

    def __str__(self):
        return "(" + " & ".join(map(str, self.parts)) + ")" if self.parts else "true"


@dataclass(frozen=True)
class Or:
    parts: tuple["C1Formula", ...]

    def __str__(self):
        return "(" + " | ".join(map(str, self.parts)) + ")" if self.parts else "false"


@dataclass(frozen=True)
class Count:
    """A counting quantifier node: there exist >=/<=/= `bound` elements
    satisfying `body`.  Quantifier nesting re-binds the single variable, so
    a nested Count is a closed subformula."""

    direction: str
    bound: int
    body: "C1Formula"

    def __post_init__(self):
        if self.direction not in (AT_LEAST, AT_MOST, EXACTLY):
            raise InputError(f"bad quantifier direction {self.direction!r}")

    def __str__(self):
        return f"E{self.direction}{self.bound} x {self.body}"


C1Formula = Union[Pred, Not, And, Or, Count]

TRUE = And(())
FALSE = Or(())


def lit_formula(l: Lit) -> C1Formula:
    return Pred(l.pred) if l.positive else Not(Pred(l.pred))


def atom_formula(a: UnaryAtom) -> Count:
    """Lossless embedding of a unary counting atom into the formula language."""
    if not isinstance(a, UnaryAtom):
        raise InputError("only unary atoms embed into one-variable formulas")
    return Count(a.direction, a.bound, And((lit_formula(a.lits[0]),
                                            lit_formula(a.lits[1]))))


def formula_predicates(f: C1Formula) -> set[str]:
    if isinstance(f, Pred):
        return {f.name}
    if isinstance(f, Not):
        return formula_predicates(f.body)
    if isinstance(f, (And, Or)):
        out: set[str] = set()
        for p in f.parts:
            out |= formula_predicates(p)
        return out
    if isinstance(f, Count):
        return formula_predicates(f.body)
    raise InputError(f"not a formula: {f!r}")


def is_quantifier_free(f: C1Formula) -> bool:
    if isinstance(f, Count):
        return False
    if isinstance(f, Not):
        return is_quantifier_free(f.body)
    if isinstance(f, (And, Or)):
        return all(is_quantifier_free(p) for p in f.parts)
    return True


def is_closed(f: C1Formula) -> bool:
    """True when every predicate occurrence sits under some quantifier."""
    if isinstance(f, Pred):
        return False
    if isinstance(f, Not):
        return is_closed(f.body)
    if isinstance(f, (And, Or)):
        return all(is_closed(p) for p in f.parts)
    return True  # Count


# ---------------------------------------------------------------------------
# Finite structures
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FiniteStructure:
    """An explicit finite interpretation.

    Elements are the dense indices 0..domain_size-1.  `unary` maps each unary
    predicate to its extension, `binary` each binary predicate to a set of
    ordered pairs.  Values are normalized to frozensets; treat instances as
    immutable.
    """

    domain_size: int
    unary: Mapping[str, frozenset[int]]
    binary: Mapping[str, frozenset[tuple[int, int]]]

    def __post_init__(self):
        if self.domain_size < 0:
            raise InputError("negative domain size")
        un = {}
        for p, ext in self.unary.items():
            _check_ident(p)
            ext = frozenset(ext)
            if ext and not (0 <= min(ext) and max(ext) < self.domain_size):
                raise InputError(f"element out of range in unary {p}")
            un[p] = ext
        bi = {}
        for r, ext in self.binary.items():
            _check_ident(r)
            ext = frozenset((int(a), int(b)) for a, b in ext)
            if ext and not (0 <= min(map(min, ext))
                            and max(map(max, ext)) < self.domain_size):
                raise InputError(f"element out of range in binary {r}")
            bi[r] = ext
        object.__setattr__(self, "unary", un)
        object.__setattr__(self, "binary", bi)

    def unary_ext(self, pred: str) -> frozenset[int]:
        try:
            return self.unary[pred]
        except KeyError:
            raise UnknownPredicateError(f"unary predicate {pred!r} not interpreted") from None

    def binary_ext(self, pred: str) -> frozenset[tuple[int, int]]:
        try:
            return self.binary[pred]
        except KeyError:
            raise UnknownPredicateError(f"binary predicate {pred!r} not interpreted") from None

    def lit_ext(self, l: Lit) -> frozenset[int]:
        ext = self.unary_ext(l.pred)
        if l.positive:
            return ext
        return frozenset(range(self.domain_size)) - ext


def structure(domain_size: int,
              unary: Mapping[str, Iterable[int]] | None = None,
              binary: Mapping[str, Iterable[tuple[int, int]]] | None = None,
              ) -> FiniteStructure:
    """Convenience constructor accepting any iterables."""
    return FiniteStructure(domain_size,
                           {p: frozenset(v) for p, v in (unary or {}).items()},
                           {r: frozenset(v) for r, v in (binary or {}).items()})


@dataclass(frozen=True)
class CellStructure:
    """A finite interpretation of unary predicates, given by its 1-type cells.

    Each cell is a (mask, count) pair over `preds` (bit i of the mask is the
    truth of preds[i]): `count` elements that satisfy exactly the predicates
    of the mask.  Masks are distinct; zero-count cells are dropped and the
    order of the rest is kept, since `expand` numbers the elements cell by
    cell in that order.  No binary predicate is interpreted.
    """

    preds: tuple[str, ...]
    cells: tuple[tuple[int, int], ...]

    def __post_init__(self):
        preds = tuple(map(_check_ident, self.preds))
        if len(set(preds)) != len(preds):
            raise InputError("duplicate predicates in a cell structure")
        cells = tuple(self.cells)
        if cells:
            masks, counts = zip(*cells)
            if min(masks) < 0 or max(masks) >= 1 << len(preds):
                raise InputError("cell mask out of range")
            if min(counts) < 0:
                raise InputError("negative cell count")
            if len(set(masks)) != len(masks):
                raise InputError("the same cell mask given twice")
        object.__setattr__(self, "preds", preds)
        object.__setattr__(self, "cells", tuple(c for c in cells if c[1]))

    @property
    def domain_size(self) -> int:
        return sum(count for _, count in self.cells)

    @cached_property
    def index(self) -> dict[str, int]:
        """The bit of each predicate."""
        return {p: i for i, p in enumerate(self.preds)}

    def expand(self) -> FiniteStructure:
        """The explicit structure with these cells: each cell takes the next
        `count` consecutive elements, which satisfy exactly the predicates
        of its mask."""
        unary: dict[str, set[int]] = {p: set() for p in self.preds}
        lo = 0
        for mask, count in self.cells:
            for p in true_preds(mask, self.preds):
                unary[p].update(range(lo, lo + count))
            lo += count
        return structure(lo, unary)


def _compare(count: int, direction: str, bound: int) -> bool:
    if direction == AT_LEAST:
        return count >= bound
    if direction == AT_MOST:
        return count <= bound
    return count == bound


def _holds_at(s: FiniteStructure, f: C1Formula, element: int | None) -> bool:
    if isinstance(f, Pred):
        if element is None:
            raise InputError("free variable in a closed evaluation context")
        return element in s.unary_ext(f.name)
    if isinstance(f, Not):
        return not _holds_at(s, f.body, element)
    if isinstance(f, And):
        return all(_holds_at(s, p, element) for p in f.parts)
    if isinstance(f, Or):
        return any(_holds_at(s, p, element) for p in f.parts)
    if isinstance(f, Count):
        n = sum(1 for e in range(s.domain_size) if _holds_at(s, f.body, e))
        return _compare(n, f.direction, f.bound)
    raise InputError(f"cannot evaluate {f!r}")


def _relational_hits(s: FiniteStructure, a: RelationalAtom) -> frozenset[int]:
    """The subjects of `a` whose tally of VERB-successors in the object
    meets the inner bound.  The tallies come from one pass over the edges;
    the subjects they miss have the tally 0, so they stand or fall together
    and are handled by one set operation."""
    subj = s.unary_ext(a.subject)
    obj = s.unary_ext(a.obj)
    tally = Counter(x for x, y in s.binary_ext(a.verb) if y in obj)

    def meets(n: int) -> bool:
        return _compare(n, a.inner_direction, a.inner_bound)

    if meets(0):
        return subj - {e for e, n in tally.items() if not meets(n)}
    return frozenset(e for e, n in tally.items() if e in subj and meets(n))


def satisfiers(s: FiniteStructure, a: CountingAtom) -> frozenset[int]:
    """The elements a counting atom counts: those satisfying both literals
    of a unary atom, or the subjects of a relational atom whose tally of
    VERB-successors in the object meets the inner bound.  `evaluate`
    compares the size of this set with the atom's bound."""
    if isinstance(a, UnaryAtom):
        return s.lit_ext(a.lits[0]) & s.lit_ext(a.lits[1])
    if isinstance(a, RelationalAtom):
        return _relational_hits(s, a)
    raise InputError(f"not a counting atom: {a!r}")


def _evaluate_cells(s: CellStructure, f) -> bool:
    if isinstance(f, UnaryAtom):
        pos = neg = 0
        for l in f.lits:
            if l.positive:
                pos |= 1 << _bit(l.pred, s.index)
            else:
                neg |= 1 << _bit(l.pred, s.index)
        n = sum(count for mask, count in s.cells
                if mask & pos == pos and not mask & neg)
        return _compare(n, f.direction, f.bound)
    if isinstance(f, RelationalAtom):
        raise UnknownPredicateError(f"binary predicate {f.verb!r} not interpreted")
    return compile_body(f, s.index, s.cells)(0)


def evaluate(s: FiniteStructure | CellStructure, f) -> bool:
    """Exact truth value of a counting atom or closed formula in s.

    Relational atoms count subjects whose per-object tallies meet the inner
    bound (subjects scope over objects).  On a CellStructure the work is
    linear in its cells, and a relational atom raises UnknownPredicateError
    for its verb.  Raises UnknownPredicateError when a predicate of f is not
    interpreted in s.
    """
    if isinstance(f, (Pred, Not, And, Or, Count)):
        if not is_closed(f):
            raise InputError("formula has a free variable; evaluate needs a "
                             "closed formula")
        names = s.index if isinstance(s, CellStructure) else s.unary
        missing = formula_predicates(f).difference(names)
        if missing:
            raise UnknownPredicateError(
                f"unary predicate {min(missing)!r} not interpreted")
    if isinstance(s, CellStructure):
        return _evaluate_cells(s, f)
    if isinstance(f, (UnaryAtom, RelationalAtom)):
        return _compare(len(satisfiers(s, f)), f.direction, f.bound)
    if isinstance(f, (Pred, Not, And, Or, Count)):
        return _holds_at(s, f, None)
    raise InputError(f"cannot evaluate {f!r}")


# ---------------------------------------------------------------------------
# 1-types
# ---------------------------------------------------------------------------

FRONTIER = 1024  # (mask, sig) siblings `live_signatures` expands at once


def _bit(pred: str, index: Mapping[str, int]) -> int:
    try:
        return index[pred]
    except KeyError:
        raise UnknownPredicateError(f"unknown predicate {pred!r}") from None


def mask_of(true: Iterable[str], index: Mapping[str, int]) -> int:
    """The 1-type mask in which exactly the predicates `true` hold."""
    mask = 0
    for p in true:
        mask |= 1 << _bit(p, index)
    return mask


def true_preds(mask: int, preds: Sequence[str]) -> list[str]:
    """The predicates of `preds` that hold in a 1-type mask, in order."""
    return [p for i, p in enumerate(preds) if mask >> i & 1]


def _literal_bits(f: C1Formula, connective: type, index: Mapping[str, int]
                  ) -> tuple[int, int] | None:
    """(pos_mask, neg_mask) of f when f is a literal or a flat `connective`
    (And or Or) of literals, else None."""
    if isinstance(f, Pred):
        return 1 << _bit(f.name, index), 0
    if isinstance(f, Not) and isinstance(f.body, Pred):
        return 0, 1 << _bit(f.body.name, index)
    if isinstance(f, connective):
        pos = neg = 0
        for part in f.parts:
            bits = _literal_bits(part, connective, index)
            if bits is None:
                return None
            pos, neg = pos | bits[0], neg | bits[1]
        return pos, neg
    return None


def compile_body(f: C1Formula, index: Mapping[str, int],
                 cells: Sequence[tuple[int, int]] | None = None
                 ) -> Callable[[int], bool]:
    """A test on 1-type masks (bit index[p] = truth of p) equivalent to the
    formula f, quantifier-free unless `cells` are given.

    A literal conjunction becomes one bit test that all its positive bits
    are set and all its negative bits clear; a clause, one test that some
    positive bit is set or some negative bit clear.  Other bodies combine
    the tests of their parts.  With `cells`, the (mask, count) cells of a
    structure, a Count is the constant truth of its count there: the sum
    of the cells whose mask satisfies its body.  Raises
    UnknownPredicateError for a predicate outside `index` and InputError
    for a quantifier when no cells are given.
    """
    conj = _literal_bits(f, And, index)
    if conj is not None:
        pos, neg = conj
        return lambda mask: mask & pos == pos and not mask & neg
    clause = _literal_bits(f, Or, index)
    if clause is not None:
        pos, neg = clause
        return lambda mask: bool(mask & pos or neg & ~mask)
    if isinstance(f, Not):
        inner = compile_body(f.body, index, cells)
        return lambda mask: not inner(mask)
    if isinstance(f, (And, Or)):
        tests = [compile_body(p, index, cells) for p in f.parts]
        combine = all if isinstance(f, And) else any
        return lambda mask: combine(t(mask) for t in tests)
    if cells is None or not isinstance(f, Count):
        raise InputError("formula is not quantifier-free")
    body = compile_body(f.body, index, cells)
    holds = _compare(sum(n for m, n in cells if body(m)), f.direction, f.bound)
    return lambda mask: holds


class _Side:
    """What `live_signatures` decides on one child side of one bit.

    A literal conjunction with at most one literal besides its highest
    predicate's is folded into masks: as a kill, one bit of `pos` or `neg`
    (the child dies when it has a `pos` bit or lacks a `neg` bit; with no
    other literal, the highest one's bit, which kills every child here); as
    a body, `sig` (no other literal: set on every child) or `lits[b] = [on,
    off]`, the sig bits set when mask bit b is on or off.  `kills` holds
    the other kill bodies as `compile_body` tests, and `bodies` the other
    row bodies as (test, sig bit)."""

    def __init__(self):
        self.pos = self.neg = self.sig = 0
        self.lits: dict[int, list[int]] = {}
        self.kills: list[Callable[[int], bool]] = []
        self.bodies: list[tuple[Callable[[int], bool], int]] = []

    def children(self, frontier: list, c: int) -> list:
        """Child c of every frontier pair as (mask, sig), or None if dead."""
        pos, neg, const, kills, bodies = (self.pos, self.neg, self.sig,
                                          self.kills, self.bodies)
        if not (self.lits or kills or bodies):
            return [None if (child := mask | c) & pos or ~child & neg
                    else (child, sig | const) for mask, sig in frontier]
        lits = self.lits.items()
        side = []
        for mask, sig in frontier:
            child = mask | c
            if child & pos or ~child & neg:
                side.append(None)
                continue
            for t in kills:
                if t(child):
                    side.append(None)
                    break
            else:
                sig |= const
                for b, (on, off) in lits:
                    sig |= on if child & b else off
                for t, b in bodies:
                    if t(child):
                        sig |= b
                side.append((child, sig))
        return side


def live_signatures(preds: Sequence[str], kills: Iterable[C1Formula],
                    bodies: Sequence[C1Formula], max_nodes: int | None = None,
                    collapse: bool = False) -> Iterator[tuple[int, int]]:
    """(mask, sig) for every mask over `preds` on which no quantifier-free
    kill body holds, where bit i of sig is the truth of bodies[i].

    The order is depth-first over predicate bits, bit 0 first and the 0
    child before the 1 child, so over [a, b] it is 0, 2, 1, 3.  The walk
    expands up to FRONTIER sibling pairs a level at a time and pushes a
    longer child list in parts, last first, which keeps that order and at
    most one frontier a level waiting.  Every kill and body is decided once
    per parent, on the children of the bit of its highest predicate, so a
    dead child is never pushed.  A literal conjunction is decided on the
    one child whose bit agrees with that predicate's literal; one holding
    p and !p never holds and is dropped.  With at most one literal besides
    that predicate's (every two-literal atom), it is folded into masks (see
    `_Side`): all such kills of a child are one test, and all such bodies
    one lookup per remaining literal; a wider conjunction is one
    `compile_body` test, a mask test on its bits, on that one child.  Any
    other body is decided by `compile_body`, on both children; a body
    without predicates once, at the root; a child with nothing to decide is
    copied untested.  A kill decided only at a high bit leaves dead partial
    masks that no yield counts, so the walk raises BudgetExhaustedError on
    popping (a frontier at a time) more than `max_nodes` nodes, if given.
    A body predicate outside `preds` raises UnknownPredicateError.

    With `collapse`, a subtree whose leaves all share one sig yields only
    its first live leaf, so the order and the first mask of every sig are
    unchanged: a caller that keeps the first mask per sig gets the same
    masks.  A node at level L with mask M is closed when every `_Side` of
    a bit >= L has no general body test and a zero constant sig, its
    `lits` lie on bits below L, and M gives each of them a zero
    contribution (for `x & p`: M lacks p).  That is one test of M against
    the masks it must avoid and cover, made only on the levels where a
    child of an open node can close.  Each closed child is walked on its
    own until its first leaf, in parts that double in width, up to
    FRONTIER, at each dead end.  These nodes count towards `max_nodes`
    too, and are a subset of the ones the full walk pops.
    """
    index = {p: i for i, p in enumerate(preds)}
    kills = list(kills)
    at = [[None, None] for _ in preds]  # at[b][c]: _Side of child c of bit b

    def side_at(b: int, c: int) -> _Side:
        if at[b][c] is None:
            at[b][c] = _Side()
        return at[b][c]

    dead, sig = False, 0
    for i, body in enumerate(kills + list(bodies)):
        bit = 0 if i < len(kills) else 1 << (i - len(kills))
        conj = _literal_bits(body, And, index)
        if conj is None:
            test = compile_body(body, index)
            top = max((_bit(p, index) for p in formula_predicates(body)),
                      default=-1)
        else:
            test, top = None, (conj[0] | conj[1]).bit_length() - 1
        if top < 0:
            if test is None or test(0):  # an empty conjunction holds
                dead |= not bit
                sig |= bit
            continue
        if test is None:
            pos, neg = conj
            if pos & neg:
                continue
            side = side_at(top, pos >> top & 1)
            rest = (pos | neg) ^ 1 << top
            if rest & (rest - 1):
                test, sides = compile_body(body, index), (side,)
            else:
                if not bit:
                    rest = rest or 1 << top
                    side.pos |= pos & rest
                    side.neg |= neg & rest
                elif rest:
                    side.lits.setdefault(rest, [0, 0])[not pos & rest] |= bit
                else:
                    side.sig |= bit
                continue
        else:
            sides = (side_at(top, 0), side_at(top, 1))
        for side in sides:
            if bit:
                side.bodies.append((test, bit))
            else:
                side.kills.append(test)
    n = len(preds)
    # closes[L]: (avoid, cover) when a node at level L whose mask has no
    # avoid bit and every cover bit is closed, kept only at the levels
    # where it differs from the level below (a child of an open node can
    # only close there); never at the leaves
    closes: list[tuple[int, int] | None] = [None] * (n + 1)
    avoid = cover = 0
    for level in reversed(range(n) if collapse else ()):
        for side in at[level]:
            if side is None:
                continue
            if side.bodies or side.sig:
                break
            for rest, (on, off) in side.lits.items():
                avoid |= rest if on else 0
                cover |= rest if off else 0
        else:
            if not avoid & cover and not (avoid | cover) >> level:
                closes[level] = avoid, cover
                continue
        break
    for level in reversed(range(1, n)):
        if closes[level] == closes[level - 1]:
            closes[level] = None
    # an entry is (level, frontier, closed).  A closed entry popped outside
    # a run roots one; the entries from `mark` up walk it, `width` nodes
    # ahead of the rest, until its first leaf
    stack = [] if dead else [(0, [(0, sig)], closes[0] is not None)]
    nodes, mark = 0, -1
    while stack:
        if len(stack) == mark:  # the run's subtree has no live leaf
            mark = -1
        level, frontier, closed = stack.pop()
        if closed and mark < 0:
            mark, width = len(stack), 1
        nodes += len(frontier)
        if max_nodes is not None and nodes > max_nodes:
            raise BudgetExhaustedError("1-type walk node cap exceeded")
        if level == n:
            if closed:
                yield frontier[0]
                del stack[mark:]
            else:
                yield from frontier
            continue
        bit = 1 << level
        if at[level] == [None, None]:
            children = [(m | c, s) for m, s in frontier for c in (0, bit)]
        else:
            sides = [[(m | c, s) for m, s in frontier] if side is None
                     else side.children(frontier, c)
                     for c, side in zip((0, bit), at[level])]
            children = [x for pair in zip(*sides) for x in pair if x]
        if closed:  # the parts double in width at each dead end
            if not children:
                width = min(2 * width, FRONTIER)
            parts = [(True, children[:width]), (True, children[width:])]
        elif (rule := closes[level + 1]) is None:
            parts = [(False, children)]
        else:  # each closed child roots a run of its own
            avoid, cover = rule
            parts = []
            for shut, kin in groupby(children, lambda x: not (
                    x[0] & avoid or ~x[0] & cover)):
                parts += ([(True, [x]) for x in kin] if shut
                          else [(False, list(kin))])
        stack.extend(reversed([(level + 1, part[j:j + FRONTIER], shut)
                               for shut, part in parts
                               for j in range(0, len(part), FRONTIER)]))


# ---------------------------------------------------------------------------
# Structure file format
# ---------------------------------------------------------------------------
# Explicit form:            Cell form:
# domain N                  domain N
# unary p: 0, 1, 2          predicates: p, q
# binary r: (0,1), (2,0)    cell {p, q}: N

_CELL_LINE = re.compile(r"cell\s*\{([^}]*)\}\s*:\s*(\S*)")


def _names(text: str) -> list[str]:
    names = [_check_ident(t.strip()) for t in text.split(",") if t.strip()]
    if len(set(names)) != len(names):
        raise InputError(f"repeated predicate in {text.strip()!r}")
    return names


def parse_structure(text: str) -> FiniteStructure | CellStructure:
    """Read a structure file in either form.

    The explicit form gives a FiniteStructure, the cell form a
    CellStructure: a `predicates:` line fixes the bit order, and each
    `cell` line lists the predicates true in its cell and the cell's
    decimal count.  Exactly one `domain N` line gives the decimal size N,
    and `unary` elements and `binary` pairs are decimal too.
    The forms cannot be mixed, a mask may appear on one `cell` line only,
    and `domain` must equal the sum of the counts.
    Errors are InputErrors that name the offending line.
    """
    domain = domain_ln = None
    form = None
    unary: dict[str, set[int]] = {}
    binary: dict[str, set[tuple[int, int]]] = {}
    elements: list[tuple[int, set[int]]] = []  # each explicit line's elements
    index: dict[str, int] | None = None
    cells: list[tuple[int, int]] = []
    cell_ln: dict[int, int] = {}
    for ln, line in numbered_lines(text):
        with at_line(ln):
            if line.startswith("domain"):
                if domain_ln is not None:
                    raise InputError(f"domain line repeats line {domain_ln}")
                if (m := re.fullmatch(r"domain\s+([0-9]+)", line)) is None:
                    raise InputError("expected 'domain N' with N a "
                                     f"nonnegative integer: {line!r}")
                domain, domain_ln = int(m[1]), ln
                continue
            keyword = re.match(r"(unary|binary)\s", line)
            if keyword is not None:
                kind = "explicit"
            elif line.startswith(("predicates", "cell")):
                kind = "cells"
            else:
                raise InputError(f"unrecognized line: {line!r}")
            if form not in (None, kind):
                raise InputError("cell lines cannot be mixed with unary or "
                                 "binary lines")
            form = kind
            if keyword is not None:
                head, _, rest = line[keyword.end():].partition(":")
                pred = head.strip()
                if keyword[1] == "unary":
                    elems = {decimal(t) for t in rest.replace(",", " ").split()}
                    unary.setdefault(_check_ident(pred), set()).update(elems)
                    elements.append((ln, elems))
                    continue
                pairs = re.findall(r"\(\s*([0-9]+)\s*,\s*([0-9]+)\s*\)", rest)
                stripped = re.sub(r"[\s,]*\(\s*[0-9]+\s*,\s*[0-9]+\s*\)[\s,]*",
                                  "", rest)
                if stripped.strip():
                    raise InputError(f"bad pair syntax: {rest.strip()!r}")
                pairs = {(int(a), int(b)) for a, b in pairs}
                binary.setdefault(_check_ident(pred), set()).update(pairs)
                elements.append((ln, {e for pair in pairs for e in pair}))
            elif line.startswith("predicates:"):
                if index is not None:
                    raise InputError("second predicates line")
                index = {p: i for i, p in
                         enumerate(_names(line[len("predicates:"):]))}
            elif (m := _CELL_LINE.fullmatch(line)) is not None:
                if index is None:
                    raise InputError("cell line before the predicates line")
                if not re.fullmatch(r"[0-9]+", m[2]):
                    raise InputError("cell count is not a nonnegative "
                                     f"integer: {m[2]!r}")
                names = _names(m[1])
                for p in names:
                    if p not in index:
                        raise InputError(f"predicate {p!r} is not on the "
                                         "predicates line")
                mask = mask_of(names, index)
                if mask in cell_ln:
                    raise InputError(f"cell {{{m[1].strip()}}} repeats line "
                                     f"{cell_ln[mask]}")
                cell_ln[mask] = ln
                cells.append((mask, int(m[2])))
            else:
                raise InputError(f"unrecognized line: {line!r}")
    if domain is None:
        raise InputError("missing 'domain N' line")
    if form == "cells":
        total = sum(count for _, count in cells)
        if domain != total:
            with at_line(domain_ln):
                raise InputError(f"domain {domain} differs from the sum of "
                                 f"the cell counts, {total}")
        return CellStructure(tuple(index), tuple(cells))
    for ln, elems in elements:
        if elems and not 0 <= min(elems) <= max(elems) < domain:
            with at_line(ln):
                raise InputError(f"element out of range for domain {domain}")
    return structure(domain, unary, binary)


def render_structure(s: FiniteStructure | CellStructure) -> str:
    """The structure file of s, in the cell form for a CellStructure."""
    lines = [f"domain {s.domain_size}"]
    if isinstance(s, CellStructure):
        lines.append("predicates: " + ", ".join(s.preds))
        for mask, count in s.cells:
            lines.append(f"cell {{{', '.join(true_preds(mask, s.preds))}}}: "
                         f"{count}")
        return "\n".join(lines) + "\n"
    for p in sorted(s.unary):
        lines.append(f"unary {p}: " + ", ".join(map(str, sorted(s.unary[p]))))
    for r in sorted(s.binary):
        pairs = ", ".join(f"({a},{b})" for a, b in sorted(s.binary[r]))
        lines.append(f"binary {r}: " + pairs)
    return "\n".join(lines) + "\n"
