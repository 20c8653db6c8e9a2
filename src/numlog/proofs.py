"""The numerical syllogism calculus: two axiom schemas, three inference
rules, ex falso quodlibet, and a saturation-based derivability check.

Axioms: "at least 0 (L1 and L2)" for every literal pair, and "at most C
(L and not-L)" for every C >= 0.  Rules (subscript arithmetic over the
integers; negative bounds mean constant-true / constant-false sentences):

    R1:  <=C (L1 & L2),  <=D (~L2 & L3)   gives   <=C+D (L1 & L3)
    R2:  >=C (L1 & L2),  <=D (L2 & L3)    gives   >=C-D (L1 & ~L3)
    R3:  <=C (L1 & L1),  >=D (L1 & L2)    gives   <=C-D (L1 & ~L2)

Derivability is decided by saturating a table of best bounds per literal
pair: each rule's output improves monotonically with its inputs' best
bounds, so applying rules to table optima is exhaustive.  Saturation is
semi-naive, as in Datalog evaluation: a worklist holds the pairs whose
bound just improved, and only those are fired against the rest of the
table.  The fixpoint does not depend on the firing order; the shape of a
derivation may, because provenance keeps the first justification found for
each value.  A goal weaker than a table bound is still derivable - one extra
rule step against an axiom instance with a positive subscript weakens any
bound - and the derivation trees returned include that step so they replay
exactly.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import cached_property

from .errors import InputError
from .linsys import many_nonzeros_instance
from .logic import AT_LEAST, AT_MOST, CountingAtom, Lit, UnaryAtom, at_least, at_most

R1 = "R1"
R2 = "R2"
R3 = "R3"

PairKey = tuple[Lit, Lit]


def _pair(l1: Lit, l2: Lit) -> PairKey:
    return tuple(sorted((l1, l2), key=lambda l: l.sort_key))  # type: ignore


def _other(pair: PairKey, member: Lit) -> Lit:
    if pair[0] == member:
        return pair[1]
    if pair[1] == member:
        return pair[0]
    raise ValueError(f"{member} not in {pair}")


def rule_conclusions(rule: str, a: UnaryAtom, b: UnaryAtom) -> list[UnaryAtom]:
    """Every conclusion the rule schema licenses from (a, b), in a fixed
    order; empty when the shapes do not unify."""
    out: list[UnaryAtom] = []

    def add(atom: UnaryAtom):
        if atom not in out:
            out.append(atom)

    if rule == R1 and a.direction == AT_MOST and b.direction == AT_MOST:
        for x in a.lits:
            if x.opposite() in b.lits:
                l1 = _other(a.lits, x)
                l3 = _other(b.lits, x.opposite())
                add(at_most(a.bound + b.bound, l1, l3))
    elif rule == R2 and a.direction == AT_LEAST and b.direction == AT_MOST:
        for x in a.lits:
            if x in b.lits:
                l1 = _other(a.lits, x)
                l3 = _other(b.lits, x)
                add(at_least(a.bound - b.bound, l1, l3.opposite()))
    elif rule == R3 and a.direction == AT_MOST and b.direction == AT_LEAST:
        if a.lits[0] == a.lits[1] and a.lits[0] in b.lits:
            l1 = a.lits[0]
            l2 = _other(b.lits, l1)
            add(at_most(a.bound - b.bound, l1, l2.opposite()))
    return out


def is_axiom(a: UnaryAtom) -> bool:
    if a.direction == AT_LEAST and a.bound == 0:
        return True
    return (a.direction == AT_MOST and a.bound >= 0
            and a.lits[0] == a.lits[1].opposite())


# ---------------------------------------------------------------------------
# Derivations
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Derivation:
    conclusion: UnaryAtom
    rule: str  # premise | axiom | R1 | R2 | R3 | exfalso
    children: tuple["Derivation", ...] = ()


def check_derivation(d: Derivation, premises) -> bool:
    """Replay a derivation: every node must be a premise, an axiom instance,
    or an exact rule application to its children's conclusions."""
    premise_set = set(premises)

    def ok(node: Derivation) -> bool:
        if node.rule == "premise":
            return node.conclusion in premise_set and not node.children
        if node.rule == "axiom":
            return is_axiom(node.conclusion) and not node.children
        if not all(ok(c) for c in node.children):
            return False
        if node.rule in (R1, R2, R3):
            if len(node.children) != 2:
                return False
            c1, c2 = (c.conclusion for c in node.children)
            return node.conclusion in rule_conclusions(node.rule, c1, c2)
        if node.rule == "exfalso":
            if len(node.children) != 2:
                return False
            up, low = (c.conclusion for c in node.children)
            return (up.direction == AT_MOST and low.direction == AT_LEAST
                    and up.lits == low.lits and low.bound > up.bound)
        return False

    return ok(d)


def render_derivation(d: Derivation, indent: int = 0) -> str:
    lines = [("  " * indent) + f"[{d.rule}] {d.conclusion}"]
    for c in d.children:
        lines.append(render_derivation(c, indent + 1))
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Saturation
# ---------------------------------------------------------------------------

class BoundTable:
    """Best derivable bounds per canonical literal pair, as `saturate`
    leaves them: flat lists indexed by pair id, over `literals`.

    lower[pair] is the largest C with ">=C" derivable (axioms give 0);
    upper[pair] the smallest C with "<=C" derivable (None when no upper is
    known; complementary pairs start at 0).  prov_lower and prov_upper list
    each pair's (value, justification) improvements in order.  These four
    dict views are built on first access; `lower_of`, `upper_of` and
    `justification` read one pair without them.  `contradiction` carries
    the offending pair once some lower exceeds an upper, after which every
    sentence is derivable by ex falso.  `complete` is False when saturation
    stopped on budget rather than at the fixpoint: the table is still sound,
    but "not in the table" then means "not shown derivable".  `updates`
    counts the bound improvements made, premises included.
    """

    def __init__(self, literals: tuple[Lit, ...], pid: list[list[int]],
                 ends: list[tuple[int, int]], bounds: tuple[list, list],
                 prov: tuple[list, list], contradiction: int | None,
                 complete: bool, updates: int):
        self.literals, self._pid, self._ends = literals, pid, ends
        self._bounds, self._prov = bounds, prov
        self._index = {l: i for i, l in enumerate(literals)}
        self.contradiction = (None if contradiction is None
                              else self._keys[contradiction])
        self.complete, self.updates = complete, updates

    @cached_property
    def _keys(self) -> list[PairKey]:
        literals = self.literals
        return [(literals[a], literals[b]) for a, b in self._ends]

    def _id(self, pair: PairKey) -> int | None:
        a, b = (self._index.get(l) for l in pair)
        return None if a is None or b is None else self._pid[a][b]

    def _keyed(self, just: tuple) -> tuple:
        if just[0] not in (R1, R2, R3):
            return just
        rule, (pa, sa, va), (pb, sb, vb) = just
        return rule, (self._keys[pa], sa, va), (self._keys[pb], sb, vb)

    def _view(self, upper: bool, prov: bool) -> dict:
        """Each pair with a bound on that side, to the bound or to its
        provenance."""
        bounds, entries = self._bounds[upper], self._prov[upper]
        return {key: ([(v, self._keyed(j)) for v, j in entries[t]]
                      if prov else bound)
                for t, (key, bound) in enumerate(zip(self._keys, bounds))
                if bound is not None}

    @cached_property
    def lower(self) -> dict[PairKey, int]:
        return self._view(False, False)

    @cached_property
    def upper(self) -> dict[PairKey, int]:
        return self._view(True, False)

    @cached_property
    def prov_lower(self) -> dict[PairKey, list]:
        return self._view(False, True)

    @cached_property
    def prov_upper(self) -> dict[PairKey, list]:
        return self._view(True, True)

    def lower_of(self, pair: PairKey) -> int:
        t = self._id(pair)
        return 0 if t is None else self._bounds[0][t]

    def upper_of(self, pair: PairKey) -> int | None:
        t = self._id(pair)
        got = None if t is None else self._bounds[1][t]
        if got is None and pair[0] == pair[1].opposite():
            return 0
        return got

    def justification(self, pair: PairKey, side: str, value: int):
        """The first justification recorded for `value` as the pair's lower
        (side "lower") or upper bound, or None."""
        t = self._id(pair)
        entries = () if t is None else self._prov[side == "upper"][t]
        just = next((j for v, j in entries if v == value), None)
        return None if just is None else self._keyed(just)


def _check_unary(phi) -> list[UnaryAtom]:
    atoms = list(phi)
    for a in atoms:
        if not isinstance(a, UnaryAtom):
            raise InputError("the proof engine handles unary sentences only")
    return atoms


class _Halt(Exception):
    """Raised inside `saturate` on a contradiction or a spent budget."""


def saturate(phi, *, max_updates: int = 500_000) -> BoundTable:
    """Fixpoint of rule application over best-known bounds.

    Uppers only decrease and lowers only increase, both within finite
    ranges, so the fixpoint exists; rules applied to the optima dominate all
    other applications.  The kernel is semi-naive: literals are integers in
    `sort_key` order (2k for a predicate, 2k+1 for its negation, so the
    opposite of i is i ^ 1), bounds sit in flat lists indexed by pair id, and
    a FIFO worklist holds the pairs whose lower or upper just improved.  A
    popped pair is fired, with its current bounds, in every premise role of
    R1, R2 and R3 against the pairs it can meet in one rule instance.  A
    rule instance whose premises are all axioms improves nothing, so each
    instance that can is fired after its last premise improved.  The fixpoint
    does not depend on the firing order, but a derivation's shape may:
    provenance keeps the first justification found for each value.

    Saturation halts early when a contradiction surfaces (everything is then
    derivable).  Each improvement, premises included, counts as one update;
    once the count exceeds `max_updates` after the premises are in, the
    table is returned with complete=False.  The table keeps the flat lists
    as they are.
    """
    atoms = _check_unary(phi)
    preds = sorted({l.pred for a in atoms for l in a.lits})
    literals = tuple(Lit(p, pos) for p in preds for pos in (True, False))
    index = {l: i for i, l in enumerate(literals)}
    n = len(literals)
    pid = [[0] * n for _ in range(n)]
    ends: list[tuple[int, int]] = []
    for a in range(n):
        for b in range(a, n):
            pid[a][b] = pid[b][a] = len(ends)
            ends.append((a, b))
    partners = [[(pid[l][o], o) for o in range(n)] for l in range(n)]
    axiom = (0, ("axiom",))
    lower = [0] * len(ends)
    upper: list[int | None] = [None] * len(ends)
    prov_lower = [[axiom] for _ in ends]
    prov_upper: list[list] = [[] for _ in ends]
    for k in range(0, n, 2):
        upper[pid[k][k + 1]] = 0
        prov_upper[pid[k][k + 1]].append(axiom)
    queue: deque[int] = deque()
    queued = [False] * len(ends)
    updates = 0
    limit = None  # no budget while the premises go in
    contradiction = None
    complete = True

    def improved(t: int) -> None:
        nonlocal updates, contradiction, complete
        updates += 1
        up = upper[t]
        if up is not None and lower[t] > up:
            contradiction = t
            raise _Halt
        if not queued[t]:
            queued[t] = True
            queue.append(t)
        if limit is not None and updates > limit:
            complete = False
            raise _Halt

    def raise_lower(t: int, val: int, just) -> None:
        lower[t] = val
        prov_lower[t].append((val, just))
        improved(t)

    def cut_upper(t: int, val: int, just) -> None:
        upper[t] = val
        prov_upper[t].append((val, just))
        improved(t)

    try:
        for atom in atoms:
            t = pid[index[atom.lits[0]]][index[atom.lits[1]]]
            if atom.direction == AT_LEAST:
                if atom.bound > lower[t]:
                    raise_lower(t, atom.bound, ("premise", atom))
            elif upper[t] is None or atom.bound < upper[t]:
                cut_upper(t, atom.bound, ("premise", atom))
        limit = max_updates
        if updates > limit:
            complete = False
            raise _Halt
        while queue:
            p = queue.popleft()
            queued[p] = False
            a, b = ends[p]
            lo, up = lower[p], upper[p]
            # x is the literal p shares with the other premise, y its partner
            for x, y in ((a, b), (b, a)) if a != b else ((a, a),):
                if up is not None:
                    # R1: p and an upper through ~x, in either premise order
                    for q, o in partners[x ^ 1]:
                        uq = upper[q]
                        if uq is not None:
                            t, v = pid[y][o], up + uq
                            if upper[t] is None or v < upper[t]:
                                cut_upper(t, v, (R1, (p, "upper", up),
                                                 (q, "upper", uq)))
                    # R2 with p as the upper premise
                    for q, o in partners[x]:
                        lq = lower[q]
                        if lq > 0:
                            t, v = pid[o][y ^ 1], lq - up
                            if v > lower[t]:
                                raise_lower(t, v, (R2, (q, "lower", lq),
                                                   (p, "upper", up)))
                if lo > 0:
                    # R2 with p as the lower premise
                    for q, o in partners[x]:
                        uq = upper[q]
                        if uq is not None:
                            t, v = pid[y][o ^ 1], lo - uq
                            if v > lower[t]:
                                raise_lower(t, v, (R2, (p, "lower", lo),
                                                   (q, "upper", uq)))
                    # R3 with p as the lower premise through x
                    xx = pid[x][x]
                    ux = upper[xx]
                    if ux is not None:
                        t, v = pid[x][y ^ 1], ux - lo
                        if upper[t] is None or v < upper[t]:
                            cut_upper(t, v, (R3, (xx, "upper", ux),
                                             (p, "lower", lo)))
            if a == b and up is not None:
                # R3 with p as the same-literal upper; axiom lowers count too
                for q, o in partners[a]:
                    lq = lower[q]
                    t, v = pid[a][o ^ 1], up - lq
                    if upper[t] is None or v < upper[t]:
                        cut_upper(t, v, (R3, (p, "upper", up),
                                         (q, "lower", lq)))
    except _Halt:
        pass

    return BoundTable(literals, pid, ends, (lower, upper),
                      (prov_lower, prov_upper), contradiction, complete,
                      updates)


# ---------------------------------------------------------------------------
# Derivability
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DeriveResult:
    derivable: bool
    derivation: Derivation | None
    complete: bool  # False: saturation hit its budget, verdict is "not shown"


def _rebuild(table: BoundTable, pr: PairKey, side: str, value: int,
             memo: dict) -> Derivation:
    key = (pr, side, value)
    if key in memo:
        return memo[key]
    just = table.justification(pr, side, value)
    if just is None or just[0] == "axiom":
        atom = (at_least(value, *pr) if side == "lower" else at_most(value, *pr))
        node = Derivation(atom, "axiom")
    elif just[0] == "premise":
        node = Derivation(just[1], "premise")
    else:
        rule, (pa, sa, va), (pb, sb, vb) = just
        ca = _rebuild(table, pa, sa, va, memo)
        cb = _rebuild(table, pb, sb, vb, memo)
        atom = (at_least(value, *pr) if side == "lower" else at_most(value, *pr))
        node = Derivation(atom, rule, (ca, cb))
    memo[key] = node
    return node


def _weaken_lower(base: Derivation, goal: UnaryAtom) -> Derivation:
    """>=C from >=C' with C' > C: one R2 step against an axiom instance."""
    have = base.conclusion.bound
    l2 = base.conclusion.lits[1]
    ax = Derivation(at_most(have - goal.bound, l2, l2.opposite()), "axiom")
    return Derivation(goal, R2, (base, ax))


def _weaken_upper(base: Derivation, goal: UnaryAtom) -> Derivation:
    """<=C from <=C' with C' < C: one R1 step against an axiom instance."""
    have = base.conclusion.bound
    l2 = base.conclusion.lits[1]
    ax = Derivation(at_most(goal.bound - have, l2.opposite(), l2), "axiom")
    return Derivation(goal, R1, (base, ax))


def derives(phi, goal: CountingAtom, *, max_updates: int = 500_000
            ) -> DeriveResult:
    """Whether the calculus derives the goal from phi, with a replayable
    derivation tree on success.

    A False verdict with complete=True is fixpoint-certified
    non-derivability; with complete=False it only means "not shown within
    budget".
    """
    atoms = _check_unary(phi)
    if not isinstance(goal, UnaryAtom):
        raise InputError("goals must be unary sentences")
    table = saturate(atoms, max_updates=max_updates)
    memo: dict = {}
    if table.contradiction is not None:
        pr = table.contradiction
        up = table.upper_of(pr)
        low = table.lower_of(pr)
        node = Derivation(goal, "exfalso",
                          (_rebuild(table, pr, "upper", up, memo),
                           _rebuild(table, pr, "lower", low, memo)))
        return DeriveResult(True, node, table.complete)
    pr = _pair(*goal.lits)
    if goal.direction == AT_LEAST:
        best = table.lower_of(pr)
        if best >= goal.bound:
            base = _rebuild(table, pr, "lower", best, memo)
            node = base if best == goal.bound else _weaken_lower(base, goal)
            return DeriveResult(True, node, table.complete)
        return DeriveResult(False, None, table.complete)
    best = table.upper_of(pr)
    if best is not None and best <= goal.bound:
        base = _rebuild(table, pr, "upper", best, memo)
        node = base if best == goal.bound else _weaken_upper(base, goal)
        return DeriveResult(True, node, table.complete)
    return DeriveResult(False, None, table.complete)


# ---------------------------------------------------------------------------
# Numerically explicit premise sets and the incompleteness instance
# ---------------------------------------------------------------------------

def is_numerically_explicit(phi) -> tuple[int, dict[str, int]] | None:
    """The witnessing total C > 0 and per-predicate counts, when phi fixes
    for every predicate how many elements satisfy it and how many do not
    (all four bounding sentences present, against one common total)."""
    atoms = _check_unary(phi)
    preds = sorted({l.pred for a in atoms for l in a.lits})
    if not preds:
        return None
    cands: dict[str, tuple[list[int], list[int]]] = {}
    for p in preds:
        pos = _pair(Lit(p), Lit(p))
        neg = _pair(Lit(p, False), Lit(p, False))

        def both(pairkey):
            ups = {a.bound for a in atoms
                   if a.direction == AT_MOST and a.lits == pairkey}
            downs = {a.bound for a in atoms
                     if a.direction == AT_LEAST and a.lits == pairkey}
            return sorted(ups & downs)

        cp, cn = both(pos), both(neg)
        if not cp or not cn:
            return None
        cands[p] = (cp, cn)
    first = preds[0]
    totals = sorted({c + d for c in cands[first][0] for d in cands[first][1]})
    for total in totals:
        if total <= 0:
            continue
        counts: dict[str, int] = {}
        for p in preds:
            cp, cn = cands[p]
            pick = next((c for c in cp if total - c in cn), None)
            if pick is None:
                break
            counts[p] = pick
        else:
            return total, counts
    return None


def incompleteness_instance(m: int) -> tuple[list[UnaryAtom], list[UnaryAtom]]:
    """The numerically explicit premise set whose per-cell intersection
    counts are forced through the unique-solution Boolean system, together
    with the goal family "at least 1 (t_j and r)".

    Every goal is semantically entailed, yet at least one is underivable in
    the calculus (the probabilistic semantics certifies this).  Exact-count
    premises are emitted as their <= / >= pairs.
    """
    if m < 6:
        raise InputError("incompleteness_instance needs m >= 6")
    system = many_nonzeros_instance(m)
    t = Lit("t")
    tj = [Lit(f"t{j}") for j in range(1, m + 2)]
    si = [Lit(f"s{i}") for i in range(1, m + 1)]
    r = Lit("r")

    def exact(bound: int, lit: Lit) -> list[UnaryAtom]:
        return [at_most(bound, lit, lit), at_least(bound, lit, lit)]

    phi: list[UnaryAtom] = []
    phi.append(at_most(3 * (m + 1), t, t))
    phi += [at_least(3, x, x) for x in tj]
    phi += [at_most(0, x, t.opposite()) for x in tj]
    phi += [at_most(0, tj[j], tj[k])
            for j in range(m + 1) for k in range(j + 1, m + 1)]
    phi += [at_most(0, x, t.opposite()) for x in si]
    for i in range(m):
        ones = {j for j, _ in system.rows[i]}
        for j in range(m + 1):
            if j in ones:
                phi.append(at_most(0, tj[j], si[i].opposite()))
            else:
                phi.append(at_most(0, tj[j], si[i]))
    for i in range(m - 1):
        phi += [at_most(3, si[i], r), at_least(3, si[i], r)]
    phi += [at_most(4, si[m - 1], r), at_least(4, si[m - 1], r)]
    # exact cardinalities for every predicate and its complement
    phi += exact(3 * (m + 1), t) + exact(3 * (m + 1), t.opposite())
    for x in tj:
        phi += exact(3, x) + exact(6 * m + 3, x.opposite())
    for x in si[:-1]:
        phi += exact(9, x) + exact(6 * m - 3, x.opposite())
    phi += exact(12, si[-1]) + exact(6 * m - 6, si[-1].opposite())
    phi += exact(3 * (m + 1), r) + exact(3 * (m + 1), r.opposite())
    goals = [at_least(1, x, r) for x in tj]
    return phi, goals
