"""Satisfiability (= finite satisfiability) and entailment for the unary
counting fragments and quantifier-normal one-variable formula sets.

The pipeline: normalize a formula set into branches whose conjuncts are
counting quantifiers over quantifier-free bodies; translate each branch into
a linear system over 1-type cardinalities (one column per live 1-type, one
row per conjunct, plus a row making the domain nonempty); search for a
natural solution with every cell capped at the largest bound.  A 1-type is
dead under a `<=0` conjunct's body and under the kills a branch's exact
counts derive: when `=c R` holds disjoint bodies inside it whose lower
bounds sum to exactly c, `R & !B_1 & ... & !B_k` holds on no element, so
those cells are never built (a sum past c is left to the exact LP, which
refutes it).  A Sat verdict
carries one piece of evidence, its witness as 1-type cells, model-checked
against the original input before being returned and expanded to explicit
elements only on request; an Unsat verdict carries each refuted branch
with the column count of its merged system, which `render_certificate`
writes as the branch's conjuncts under its cap, column count and
predicates: the columns are a function of those, so a checker rebuilds the
system with `build_system` and refutes it again.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from functools import cached_property
from itertools import compress
from typing import Iterable, Sequence

from .errors import BudgetExhaustedError, InputError
from .linsys import GE, LinearSystem, ilp_solve
from .linsys import sparsify_natural  # noqa: F401  (bench/spans.py rebinds it)
from .logic import (AT_LEAST, AT_MOST, EXACTLY, And, C1Formula,
                    CellStructure, Count, CountingAtom, FALSE,
                    FiniteStructure, Not, Or, Pred, RelationalAtom, TRUE,
                    UnaryAtom, _compare, atom_formula, evaluate,
                    formula_predicates, is_closed, is_quantifier_free,
                    lit_formula, live_signatures)

SAT = "sat"
UNSAT = "unsat"
UNKNOWN = "unknown"

# The one size cap of a 1-type system: masks its walk yields per
# `cell_system`, PSAT's too (a collapsed subtree of one signature counts
# once); the walk pops at most 10 * MAX_LIVE nodes, dead partial masks too.
MAX_LIVE = 300_000
# Nesting depth cap of normalization (one level per eliminated quantifier).
MAX_DEPTH = 64


@dataclass(frozen=True)
class NormalC1:
    """A conjunction of counting quantifiers over quantifier-free bodies."""

    conjuncts: tuple[tuple[str, int, C1Formula], ...]

    @property
    def cap(self) -> int:
        """The per-cell cap of its search: the largest bound, at least 1."""
        return max([1] + [b for _, b, _ in self.conjuncts])

    @cached_property
    def count_kills(self) -> tuple[tuple[C1Formula, tuple[str, ...]], ...]:
        """`_count_kills` of the conjuncts, derived once per branch."""
        return _count_kills(self.conjuncts)


@dataclass(frozen=True)
class SatResult:
    """A verdict and its evidence.  On Sat, `cells` is the model-checked
    witness as its nonzero (1-type, count) cells, in column order, and
    `witness` the same model with explicit elements, expanded on first
    access; on Unsat, `refuted` pairs each branch with the column count of
    its merged system over `preds` (0: infeasible before any search).
    Unknown carries nothing."""

    status: str
    cells: CellStructure | None = None
    refuted: tuple[tuple[NormalC1, int], ...] = ()
    preds: tuple[str, ...] = ()

    @cached_property
    def witness(self) -> FiniteStructure | None:
        return None if self.cells is None else self.cells.expand()


# ---------------------------------------------------------------------------
# Normalization
# ---------------------------------------------------------------------------

def _simplify(f: C1Formula) -> C1Formula:
    """Constant-fold TRUE/FALSE, flatten nested And/Or, and rewrite every
    =C quantifier as the <=C and >=C pair.  A count over a FALSE body, and
    a <=C count with C < 0, fold to the constant its count 0 gives."""
    if isinstance(f, Pred):
        return f
    if isinstance(f, Not):
        b = _simplify(f.body)
        if b == TRUE:
            return FALSE
        if b == FALSE:
            return TRUE
        return Not(b)
    if isinstance(f, And):
        parts = []
        for p in f.parts:
            p = _simplify(p)
            if p == FALSE:
                return FALSE
            if p == TRUE:
                continue
            if isinstance(p, And):
                parts.extend(p.parts)
            else:
                parts.append(p)
        return And(tuple(parts)) if len(parts) != 1 else parts[0]
    if isinstance(f, Or):
        parts = []
        for p in f.parts:
            p = _simplify(p)
            if p == TRUE:
                return TRUE
            if p == FALSE:
                continue
            if isinstance(p, Or):
                parts.extend(p.parts)
            else:
                parts.append(p)
        return Or(tuple(parts)) if len(parts) != 1 else parts[0]
    if f.direction == EXACTLY:
        return _simplify(And((Count(AT_MOST, f.bound, f.body),
                              Count(AT_LEAST, f.bound, f.body))))
    body = _simplify(f.body)
    if body == FALSE or (f.direction == AT_MOST and f.bound < 0):
        # no element satisfies the body, or no count is small enough
        return TRUE if _compare(0, f.direction, f.bound) else FALSE
    return Count(f.direction, f.bound, body)


def _innermost_count(f: C1Formula) -> Count | None:
    """Leftmost innermost quantified subformula with a quantifier-free body."""
    if isinstance(f, Pred):
        return None
    if isinstance(f, Not):
        return _innermost_count(f.body)
    if isinstance(f, (And, Or)):
        for p in f.parts:
            got = _innermost_count(p)
            if got is not None:
                return got
        return None
    got = _innermost_count(f.body)
    if got is not None:
        return got
    return f if is_quantifier_free(f.body) else None


def _substitute(f: C1Formula, target: C1Formula, value: C1Formula) -> C1Formula:
    if f == target:
        return value
    if isinstance(f, Pred):
        return f
    if isinstance(f, Not):
        return Not(_substitute(f.body, target, value))
    if isinstance(f, And):
        return And(tuple(_substitute(p, target, value) for p in f.parts))
    if isinstance(f, Or):
        return Or(tuple(_substitute(p, target, value) for p in f.parts))
    return Count(f.direction, f.bound, _substitute(f.body, target, value))


def _dual_count(c: Count) -> Count:
    if c.direction == AT_LEAST:
        return Count(AT_MOST, c.bound - 1, c.body)
    return Count(AT_LEAST, c.bound + 1, c.body)


def normalize(formulas) -> list[NormalC1]:
    """Deterministic expansion into equisatisfiable normal-form branches.

    The innermost quantified subformula is replaced by true (that conjunct
    asserted) or false (its dual asserted), true-branch first, until every
    conjunct is a counting quantifier over a quantifier-free body.  The union
    of branches is equisatisfiable with the input over every domain.  No
    branch holds an =C conjunct, since `_simplify` splits each one.

    Unary atoms alone are one branch of their own conjuncts as they stand,
    each literal one shared formula object, or none when some `<=C` has
    C < 0; that is what the general path gives them.
    """
    formulas = list(formulas)
    if all(isinstance(f, UnaryAtom) for f in formulas):
        if any(a.is_trivially_false for a in formulas):
            return []
        lit = {l: lit_formula(l) for l in {l for a in formulas for l in a.lits}}
        return [NormalC1(tuple((a.direction, a.bound,
                                And((lit[a.lits[0]], lit[a.lits[1]])))
                               for a in formulas))]
    conjuncts: list[C1Formula] = []
    for f in formulas:
        if isinstance(f, RelationalAtom):
            raise InputError("relational sentences are outside this solver; "
                             "use the two-variable tooling in numlog.n2")
        if isinstance(f, UnaryAtom):
            f = atom_formula(f)
        if not is_closed(f):
            raise InputError(f"formula has a free variable: {f}")
        conjuncts.append(f)

    branches: list[NormalC1] = []

    def walk(items: list[C1Formula], depth: int):
        flat: list[C1Formula] = []
        for c in items:
            c = _simplify(c)
            if c == TRUE:
                continue
            if c == FALSE:
                return  # dead branch
            if isinstance(c, And):
                flat.extend(c.parts)
            else:
                flat.append(c)
        target = None
        for c in flat:
            if isinstance(c, Count) and is_quantifier_free(c.body):
                continue
            target = _innermost_count(c)
            break
        if target is None:
            branches.append(NormalC1(tuple(
                (c.direction, c.bound, c.body) for c in flat)))
            return
        if depth >= MAX_DEPTH:
            raise BudgetExhaustedError("normalization nesting depth cap exceeded")
        top = [_substitute(c, target, TRUE) for c in flat] + [target]
        walk(top, depth + 1)
        bot = [_substitute(c, target, FALSE) for c in flat] + [_dual_count(target)]
        walk(bot, depth + 1)

    walk(conjuncts, 0)
    return branches


# ---------------------------------------------------------------------------
# System construction
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BuiltSystem:
    system: LinearSystem | None
    live_types: tuple[int, ...]
    preds: tuple[str, ...]
    infeasible: bool = False


def _count_kills(conjuncts: Sequence[tuple[str, int, C1Formula]]
                 ) -> tuple[tuple[C1Formula, tuple[str, ...]], ...]:
    """The kills that a branch's exact counts derive, each with the
    predicates of its contents, then of its container, in literal order.

    A container is a literal-conjunction body R with both `<=c` and `>=c`
    (c > 0).  Its contents are the literal-conjunction bodies B != R with
    a lower bound lo > 0 (the largest `>=` on B), picked greedily, smallest
    lo first and ties in conjunct order, when B lies inside R and misses
    every B' picked before.  Both facts are read off the two-literal kills
    (`<=0` conjuncts): B lies inside R when each literal r of R is in B or
    some b in B has the kill `b & !r`; B misses B' when some x in B and y
    in B' have the kill `x & y` or are complementary.  When the picked
    lower bounds sum to exactly c, no element of a model of the branch is
    in R and in none of the B, so `R & !B_1 & ... & !B_k` is a kill (a
    one-literal B negates to the opposite literal, a wider one to a
    negated conjunction).  A sum past c adds nothing: the exact LP refutes
    that system.  Unless some `>=` bound equals a positive `<=` bound, no
    body is read.

    A literal is a key: 2i for p and 2i + 1 for !p, i being p's place in
    first-seen order.  `apart[x]` holds the keys y of the kills `x & y`,
    and `holding[x]` the contents with literal x as bits of their place in
    pick order, so the contents inside R, and those that miss B, are each
    one OR of `holding` entries.
    """
    tight = {b for d, b, _ in conjuncts if d == AT_MOST and b > 0}
    if not any(d == AT_LEAST and b in tight for d, b, _ in conjuncts):
        return ()
    place: dict[str, int] = {}

    def literals(f: C1Formula) -> dict[int, C1Formula] | None:
        """Each literal key of f with its first formula in f, in body
        order, when f is a literal or a flat conjunction of them."""
        out: dict[int, C1Formula] = {}
        for part in f.parts if isinstance(f, And) else (f,):
            neg = isinstance(part, Not)
            atom = part.body if neg else part
            if not isinstance(atom, Pred):
                return None
            out.setdefault(2 * place.setdefault(atom.name, len(place)) + neg,
                           part)
        return out

    apart: dict[int, list[int]] = defaultdict(list)
    upper: dict[int, int] = {}  # literal set (as bits of keys) -> least <=
    lower: dict[int, list] = {}  # literal set -> [largest >=, its literals]
    for d, b, body in conjuncts:
        lits = literals(body)
        if lits is None or b < 0:
            continue
        if b == 0:
            if d == AT_MOST and len(lits) == 2:
                x, y = lits
                apart[x].append(y)
                apart[y].append(x)
            continue
        bits = 0
        for x in lits:
            bits |= 1 << x
        if d == AT_MOST:
            upper[bits] = min(b, upper.get(bits, b))
        elif bits in lower:
            lower[bits][0] = max(b, lower[bits][0])
        else:
            lower[bits] = [b, lits]
    contents = sorted((lo, n, bits, lits)
                      for n, (bits, (lo, lits)) in enumerate(lower.items()))
    holding: dict[int, int] = defaultdict(int)
    for k, (_, _, _, lits) in enumerate(contents):
        for x in lits:
            holding[x] |= 1 << k
    shun: dict[int, int] = {}  # content k -> the contents that miss it

    def reach(xs: Iterable[int]) -> int:
        out = 0
        for x in xs:
            out |= holding.get(x, 0)
        return out

    names = list(place)
    kills = []
    for outer_bits, c in upper.items():
        if outer_bits not in lower or lower[outer_bits][0] != c:
            continue
        outer = lower[outer_bits][1]
        inside = (1 << len(contents)) - 1
        for r in outer:
            inside &= holding.get(r, 0) | reach(apart.get(r ^ 1, ()))
        picked, total = [], 0
        while inside:
            k = (inside & -inside).bit_length() - 1
            inside ^= 1 << k
            lo, _, bits, lits = contents[k]
            if bits == outer_bits:
                continue
            picked.append(lits)
            total += lo
            if k not in shun:
                shun[k] = reach(y for x in lits for y in [x ^ 1, *apart.get(x, ())])
            inside &= shun[k]
        if total != c:
            continue
        parts = list(outer.values())
        for lits in picked:
            [(x, f), *more] = lits.items()
            parts.append(Not(And(tuple(lits.values()))) if more
                         else f.body if x & 1 else Not(f))
        used = [names[x >> 1] for lits in picked for x in lits]
        kills.append((And(tuple(parts)), tuple(dict.fromkeys(
            used + [names[x >> 1] for x in outer]))))
    return tuple(kills)


def build_system(normal: NormalC1, preds: list[str]) -> BuiltSystem:
    """The 1-type cardinality system of a normal-form branch over `preds`.

    One column per live 1-type: a 1-type is dead when some <=0 conjunct's
    body, or some kill that the branch's exact counts derive
    (`_count_kills`), holds under it.  The <=0 conjuncts are consumed by
    the pruning and dropped as rows, as are >=0 conjuncts.  The other
    conjuncts, then an all-ones >=1 row that keeps the domain nonempty, go
    to `cell_system`, which merges identical columns.  Its walk raises
    UnknownPredicateError for a body predicate outside `preds`.
    """
    rows_in = normal.conjuncts
    preds = tuple(preds)
    kills = [body for d, b, body in rows_in if d == AT_MOST and b == 0]
    kills += [kill for kill, _ in normal.count_kills]
    kept = [(d, b, body) for d, b, body in rows_in
            if not (d == AT_MOST and b == 0) and not (d == AT_LEAST and b <= 0)]
    live, system = cell_system(preds, kills, kept + [(GE, 1, TRUE)])
    if not live:
        return BuiltSystem(None, (), preds, infeasible=True)
    return BuiltSystem(system, live, preds)


def cell_system(preds: Sequence[str], kills: Iterable[C1Formula],
                rows: Sequence[tuple[str, int, C1Formula]]
                ) -> tuple[tuple[int, ...], LinearSystem]:
    """The merged cell system of `rows` over the masks of `preds` that no
    kill body holds on.

    Each row `(relation, int rhs, quantifier-free body)` reads: the total
    count of the cells whose mask satisfies the body stands in that
    relation to rhs.  One `live_signatures` walk gives each live mask
    with its row signature (bit i: the mask satisfies row i's body), in its
    depth-first order; columns with equal signatures collapse into the
    first of them in that order (feasibility-preserving), and the masks of
    the kept columns are returned with the system, whose columns and rows
    one pass over the kept signatures' bits writes.  The walk collapses
    each subtree in which no row body can tell the leaves apart (below
    `p = 0` when every row is `x & p`) to its first live leaf, which is
    the column the merge keeps, so the columns, their order and their
    masks are those of the full walk.  No live mask gives no columns.
    Past MAX_LIVE yielded masks or 10x as many nodes: BudgetExhaustedError.
    """
    first: dict[int, int] = {}  # signature -> first mask, in walk order
    walk = live_signatures(preds, kills, [b for _, _, b in rows], 10 * MAX_LIVE,
                           collapse=True)
    for n, (mask, sig) in enumerate(walk):
        if n == MAX_LIVE:
            raise BudgetExhaustedError("live 1-type cap exceeded")
        first.setdefault(sig, mask)
    entries: list[list[tuple[int, int]]] = [[] for _ in rows]
    units = [(i, 1) for i in range(len(rows))]
    columns = []
    for k, sig in enumerate(first):
        entry, column = (k, 1), []
        while sig:  # one step per set bit, lowest first
            low = sig & -sig
            i = low.bit_length() - 1
            entries[i].append(entry)
            column.append(units[i])
            sig ^= low
        columns.append(tuple(column))
    return tuple(first.values()), LinearSystem(
        tuple(map(tuple, entries)), tuple(d for d, _, _ in rows),
        tuple(b for _, b, _ in rows), len(first), tuple(columns))


def decide_sat(formulas, *, max_nodes: int = 2_000_000) -> SatResult:
    """Decide satisfiability of unary counting atoms / closed one-variable
    formulas, producing a model-checked witness on Sat.

    Branches are solved in order; the first Sat wins.  A solution over the
    live 1-types is searched with every cell capped at max(1, largest
    bound), which is complete by the finite-model-property cap argument.
    Every branch's system is over all input predicates, in one order: for
    each kill the branches' exact counts derive (`NormalC1.count_kills`),
    branch by branch, its contents' predicates, then its container's, each
    at its first place; then every other predicate by name.  So the walk
    settles the contents and the container before the rest, and an input
    with no derived kill keeps the sorted order.  Unsat carries, in
    `refuted`, every branch in normalization order with the column count
    of the system its search refuted, 0 for a branch infeasible before any
    search, and the predicates in `preds`.
    Sat carries only the solution's nonzero cells, which `evaluate`
    model-checks without expanding them; `SatResult.witness` expands them
    on request.
    Returns Unknown only when some branch exhausted its search budget.
    """
    formulas = list(formulas)
    branches = normalize(formulas)
    all_preds: set[str] = set()
    for f in formulas:
        all_preds |= (f.predicates() if isinstance(f, UnaryAtom)
                      else formula_predicates(f))
    first: dict[str, None] = {}
    for branch in branches:
        for _, names in branch.count_kills:
            first.update(dict.fromkeys(names))
    preds = list(first) + sorted(all_preds - first.keys())

    saw_budget = False
    refuted: list[tuple[NormalC1, int]] = []
    for branch in branches:
        built = build_system(branch, preds)
        if built.infeasible:
            refuted.append((branch, 0))
            continue
        try:
            sol = ilp_solve(built.system, [branch.cap] * len(built.live_types),
                            max_nodes=max_nodes)
        except BudgetExhaustedError:
            saw_budget = True
            continue
        if sol is None:
            refuted.append((branch, len(built.live_types)))
            continue
        # only the nonzero cells: most of up to MAX_LIVE live types get 0
        cells = CellStructure(built.preds,
                              tuple(compress(zip(built.live_types, sol), sol)))
        for f in formulas:
            if not evaluate(cells, f):
                raise AssertionError(f"witness failed model check on {f}")
        return SatResult(SAT, cells)
    if saw_budget:
        return SatResult(UNKNOWN)
    return SatResult(UNSAT, refuted=tuple(refuted), preds=tuple(preds))


def render_certificate(res: SatResult) -> str:
    """The certificate file of an Unsat result: per branch, in
    normalization order, a header line and then the branch's conjuncts, one
    per line in the symbolic syntax (`>=13 (artist & beekeeper)`).

    The header reads `branch i: cap C, K columns, over p, q, ...`: the
    per-cell cap of the branch's search, the column count of its merged
    system and the predicates its 1-types range over, in bit order; or
    `branch i: trivially infeasible` when the branch was refuted before any
    search.  The refuted system is `build_system` of the conjuncts over
    those predicates: its rows are the conjuncts other than the <=0 ones
    (which kill the 1-types they hold on) and the >=0 ones, plus an
    implicit all-ones >=1 row that keeps the domain nonempty.  K counts
    the columns left after the kills the exact counts derive too: they are
    a function of the conjuncts alone, so a checker that reruns
    `build_system` derives the same kills and gets the same K.  When
    normalization leaves no branch (a constant-false conjunct such as
    `<=-1`, the dual of a `>=0` conclusion, folds each one away) the
    certificate is the line `no branches`.  A Sat result's evidence is its
    witness, so any other status raises ValueError.
    """
    if res.status != UNSAT:
        raise ValueError(f"a {res.status} result has no certificate")
    chunks = []
    for i, (branch, columns) in enumerate(res.refuted):
        chunks.append(f"branch {i}: cap {branch.cap}, {columns} columns, over "
                      f"{', '.join(res.preds)}\n" if columns
                      else f"branch {i}: trivially infeasible\n")
        chunks.extend(f"{d}{b} {body}\n" for d, b, body in branch.conjuncts)
    return "".join(chunks) or "no branches\n"


def entails(premises, conclusion: CountingAtom, **kwargs) -> bool:
    """True iff the premises entail the conclusion (all unary atoms).

    Decided as unsatisfiability of premises plus the dual of the conclusion.
    Budget exhaustion propagates as BudgetExhaustedError, never as a verdict.
    """
    from .logic import negate_atom
    atoms = list(premises) + [negate_atom(conclusion)]
    for a in atoms:
        if not isinstance(a, UnaryAtom):
            raise InputError("entails works on unary counting atoms")
    res = decide_sat(atoms, **kwargs)
    if res.status == UNKNOWN:
        raise BudgetExhaustedError("entailment undecided within budget")
    return res.status == UNSAT
