"""Shared generators for randomized test suites (all seeded by the caller),
and earlier forms of five kernels that the current ones must match: the
dense simplex loop of `linsys._Tableau.solve`, the branch and bound that
shared its box rows across nodes, the presolve that found no implicit
zeros, the 1-type walk that tested every kill and body one by one (with
the cell system built over all its masks), and `derives` over a bound
table converted to dicts as soon as saturation ends."""

import math
from fractions import Fraction
from itertools import chain, repeat

from numlog import logic
from numlog.errors import BudgetExhaustedError, InputError
from numlog.linsys import (_FLIP, EQ, GE, LE, MAX_PIVOTS, LinearSystem,
                           Row, SparseVector, _greedy_seed, _holds, _Tableau)
from numlog.logic import (AT_LEAST, AT_MOST, And, Lit, UnaryAtom, _bit,
                          _literal_bits, at_least, at_most, compile_body,
                          formula_predicates, structure)
from numlog.proofs import (Derivation, R1, R2, R3, _pair, _weaken_lower,
                           _weaken_upper, saturate)
from numlog.psat import ProbabilityAssignment


def random_lit(rng, preds):
    return Lit(rng.choice(preds), rng.random() < 0.5)


def random_unary_atom(rng, preds, max_bound=5):
    direction = AT_LEAST if rng.random() < 0.5 else AT_MOST
    return UnaryAtom(direction, rng.randint(0, max_bound),
                     (random_lit(rng, preds), random_lit(rng, preds)))


def random_structure(rng, preds, max_domain=8, verbs=()):
    n = rng.randint(1, max_domain)
    unary = {p: {e for e in range(n) if rng.random() < 0.5} for p in preds}
    binary = {r: {(a, b) for a in range(n) for b in range(n)
                  if rng.random() < 0.3} for r in verbs}
    return structure(n, unary, binary)


def random_assignment(rng, letters, max_worlds=6, scale=None):
    worlds = []
    weights = []
    for _ in range(rng.randint(1, max_worlds)):
        world = frozenset(p for p in letters if rng.random() < 0.5)
        worlds.append(world)
        weights.append(rng.randint(1, 9))
    total = sum(weights)
    pairs = tuple((w, Fraction(wt, total)) for w, wt in zip(worlds, weights))
    return ProbabilityAssignment(tuple(letters), pairs, scale)


def dense_solve(self, log=None):
    """`linsys._Tableau.solve` as it was before its pivot touched only the
    entries that change: every pivot recomputes all m entries of each row
    of `binv` with a nonzero factor, so it is the reference that the sparse
    update must match integer for integer.  `log`, if given, gets
    `(piv, d)` for each pivot, appended before its update."""
    m = len(self.basis)
    cols, basis, art, binv, xb = (self.cols, self.basis, self.art,
                                  self.binv, self.xb)
    pivots = degenerate = 0
    while True:
        art_rows = [i for i in range(m) if art[i]]
        if not any(xb[i] for i in art_rows):
            return True
        # y = (basis cost vector) . Binv; cost 1 on artificial basics.
        y = [0] * m
        for i in art_rows:
            row = binv[i]
            for k in range(m):
                y[k] += row[k]
        # Bland's scan from 0 once m degenerate pivots run in a row
        price = self.price
        s = 0 if degenerate >= m else self.pos
        enter = -1
        for p in chain(range(s, len(price)), range(s)):
            # reduced cost numerator of a zero-cost column is -(y . A_j)
            acc = 0
            for r, a in cols[price[p]]:
                acc += y[r] * a
            if acc > 0:
                enter = price[p]
                break
        if enter < 0:
            return False
        self.pos = p + 1
        u = [0] * m
        for r, a in cols[enter]:
            for i in range(m):
                u[i] += binv[i][r] * a
        leave = -1
        for i in range(m):
            if u[i] > 0:
                if leave < 0:
                    leave = i
                    continue
                lhs = xb[i] * u[leave]
                rhs_ = xb[leave] * u[i]
                if lhs < rhs_ or (lhs == rhs_ and basis[i] < basis[leave]):
                    leave = i
        if leave < 0:
            raise AssertionError("phase-1 objective unbounded below")
        d = self.d
        piv = u[leave]
        if log is not None:
            log.append((piv, d))
        lrow = binv[leave]
        lxb = xb[leave]
        for i in range(m):
            if i == leave:
                continue
            f = u[i]
            row = binv[i]
            if f == 0:
                if piv != d:
                    for k in range(m):
                        v = row[k]
                        if v:
                            q, rr = divmod(v * piv, d)
                            if rr:
                                raise ArithmeticError("non-exact pivot division")
                            row[k] = q
                    q, rr = divmod(xb[i] * piv, d)
                    if rr:
                        raise ArithmeticError("non-exact pivot division")
                    xb[i] = q
            else:
                for k in range(m):
                    q, rr = divmod(row[k] * piv - f * lrow[k], d)
                    if rr:
                        raise ArithmeticError("non-exact pivot division")
                    row[k] = q
                q, rr = divmod(xb[i] * piv - f * lxb, d)
                if rr:
                    raise ArithmeticError("non-exact pivot division")
                xb[i] = q
        basis[leave] = enter
        art[leave] = False
        self.d = piv
        degenerate = 0 if lxb else degenerate + 1
        pivots += 1
        if pivots > MAX_PIVOTS:
            raise BudgetExhaustedError("simplex pivot budget exhausted")


def reference_ilp_solve(system, upper_bounds, *, max_nodes=200_000, log=None):
    """`linsys.ilp_solve` as it was while one `boxed` list, shared by every
    node, held the box rows x_j <= upper_bounds[j] that some LP point broke,
    and each node appended those it had not seen yet; every node read its
    point as dense `Fraction`s over all n columns.  `log`, if given, gets
    `(nodes, waiting)` each time a point breaks a box: the node count so far
    and the number of open nodes on the stack."""
    n = system.num_vars
    ubs = [int(b) for b in upper_bounds]
    if len(ubs) != n or any(b < 0 for b in ubs):
        raise InputError("need one nonnegative upper bound per variable")
    seed = _greedy_seed(system, ubs)
    if seed is not None:
        return seed
    root = _Tableau(n)
    presolved = root.start(system)
    if presolved is None:
        return None
    for row, rel, c in presolved:
        if rel == EQ and c % math.gcd(*(a for _, a in row)):
            return None
    boxed = []  # box rows in the order they joined the LP
    # Depth first over a stack of open nodes (lo, hi, tableau, box rows in
    # it, rows still to append); the low child is searched first.  `lo` and
    # `hi` are the node's branch and box bounds, read only to pick the
    # branch variable: every one of them is a row of the node's LP.
    stack = [([0] * n, list(ubs), root, 0, [])]
    nodes = 0
    while stack:
        lo, hi, tab, have, new_rows = stack.pop()
        nodes += 1
        if nodes > max_nodes:
            raise BudgetExhaustedError("ilp_solve node budget exhausted")
        while True:
            tab.add_rows(new_rows + [(((j, 1),), LE, ubs[j])
                                     for j in boxed[have:]])
            have = len(boxed)
            sol = tab.solution() if tab.solve() else None
            violated = [] if sol is None else [
                j for j in range(n) if sol[j] > ubs[j]]
            if not violated:
                break
            if log is not None:
                log.append((nodes, len(stack)))
            boxed.extend(violated)
            new_rows = []
        if sol is None:
            continue
        frac = [(hi[j] - lo[j], j) for j in range(n)
                if sol[j].denominator != 1]
        if not frac:
            cand = tuple(int(v) for v in sol)
            assert system.is_solution(cand)
            return cand
        _, j = min(frac)
        split = math.floor(sol[j])
        assert lo[j] <= split < hi[j]
        var = ((j, 1),)
        hi_child_lo = lo[:]
        hi_child_lo[j] = split + 1
        stack.append((hi_child_lo, hi, tab, have, [(var, GE, split + 1)]))
        lo_child_hi = hi[:]
        lo_child_hi[j] = split
        stack.append((lo, lo_child_hi, tab.copy(), have, [(var, LE, split)]))
    return None


def reference_presolve(system: LinearSystem, origin: list | None = None
              ) -> list[Row] | None:
    """`linsys._presolve` before it found implicit zeros, as it was then:
    the system's rows in canonical form, merged and folded, or None when
    a row alone, or a fold, is infeasible.

    Each row is divided by the gcd of its coefficients and rhs, and negated
    (its relation flipped) when its first coefficient is negative, so rows
    that are positive multiples of each other become equal.  Rows with equal
    coefficients share one interval [lo, hi]: it gives one `=` row when
    lo == hi, otherwise a `<=` and/or a `>=` row, at the place of the first
    such row; lo > hi is infeasible.  Empty rows are checked and dropped.
    A row that is already canonical is used as it is, not copied.  A list
    `origin` receives each returned row's (r, g): the first input row r
    with its coefficients, and the signed gcd g that divides r into it.

    Then, when the all-ones row ONES is present, a 0/1 row R' whose support
    is the complement of an `=` 0/1 row R = c is folded: R' = ONES - R, so
    R' in [lo', hi'] is dropped and ONES's interval is intersected with
    [lo' + c, hi' + c].  The solution set is unchanged; totals that
    disagree (|p| + |!p| != |q| + |!q|) leave ONES empty, which is
    infeasible.  When R' is an `=` row too, the pair keeps whichever row
    comes first.  A candidate R' has length n - len(R) and is confirmed by
    one disjointness test; without an `=` row nothing more is looked at.
    A folded input row feeds no returned row.  For a Farkas map back to
    the input rows: ONES's multiplier, when its folded bound is the tight
    one, goes to both R' and R, since ONES >= lo' + c is R' >= lo' plus
    R = c.
    """
    bounds: dict[SparseVector, list] = {}
    for r, (row, rel, c) in enumerate(zip(system.rows, system.relations,
                                          system.rhs)):
        if not row:
            if not _holds(0, rel, c):
                return None
            continue
        g = 0
        for _, a in row:
            g = math.gcd(g, a)
            if g == 1:
                break
        if g != 1:
            g = math.gcd(g, c)
        if row[0][1] < 0:
            g, rel = -g, _FLIP[rel]
        if g != 1:
            row = tuple((j, a // g) for j, a in row)
            c //= g
        b = bounds.setdefault(row, [None, None, r, g])
        if rel != LE and (b[0] is None or c > b[0]):
            b[0] = c
        if rel != GE and (b[1] is None or c < b[1]):
            b[1] = c
    # fold each 0/1 row R' complementing an `=` 0/1 row R = c into ONES
    n = system.num_vars
    eqs = [row for row, (lo, hi, _, _) in bounds.items()
           if lo is not None and lo == hi]
    ones = bounds.get(tuple(zip(range(n), repeat(1)))) if eqs else None
    if ones is not None:
        by_len: dict[int, list[SparseVector]] = {}
        for row in bounds:
            by_len.setdefault(len(row), []).append(row)
        for row in eqs:
            if row not in bounds or any(a != 1 for _, a in row):
                continue
            support = {j for j, _ in row}
            for other in by_len.get(n - len(row), ()):
                if (other in bounds and all(a == 1 for _, a in other)
                        and support.isdisjoint(j for j, _ in other)):
                    c, (lo, hi, _, _) = bounds[row][0], bounds.pop(other)
                    if lo is not None and (ones[0] is None or lo + c > ones[0]):
                        ones[0] = lo + c
                    if hi is not None and (ones[1] is None or hi + c < ones[1]):
                        ones[1] = hi + c
                    break
    out = []
    for row, (lo, hi, r, g) in bounds.items():
        if lo is not None and hi is not None and lo >= hi:
            if lo > hi:
                return None
            kept = [(EQ, lo)]
        else:
            kept = [(rel, c) for rel, c in ((LE, hi), (GE, lo)) if c is not None]
        out += [(row, rel, c) for rel, c in kept]
        if origin is not None:
            origin += [(r, g)] * len(kept)
    return out


def reference_live_signatures(preds, kills, bodies, max_nodes=None):
    """`logic.live_signatures` as it was before it folded literal kills and
    bodies into masks: each kill and body is tested on its own, for every
    child it is decided on.  It reads `logic.FRONTIER` when called."""
    index = {p: i for i, p in enumerate(preds)}
    kills = list(kills)
    # at[b][c]: (kills, bodies) decided on child c of bit b, as (pos, neg,
    # test, sig bit): a literal conjunction's bits, or 0, 0 and a test
    at = [[([], []), ([], [])] for _ in preds]
    dead, sig = False, 0
    for i, body in enumerate(kills + list(bodies)):
        conj = _literal_bits(body, And, index)
        test = compile_body(body, index) if conj is None else None
        top = max((_bit(p, index) for p in formula_predicates(body)), default=-1)
        bit = 0 if i < len(kills) else 1 << (i - len(kills))
        if top < 0:
            if compile_body(body, index)(0):
                dead |= not bit
                sig |= bit
            continue
        for c in (0, 1) if conj is None else (conj[0] >> top & 1,):
            at[top][c][bool(bit)].append((*(conj or (0, 0)), test, bit))
    n = len(preds)
    stack = [] if dead else [(0, [(0, sig)])]
    nodes = 0
    while stack:
        level, frontier = stack.pop()
        nodes += len(frontier)
        if max_nodes is not None and nodes > max_nodes:
            raise BudgetExhaustedError("1-type walk node cap exceeded")
        if level == n:
            yield from frontier
            continue
        bit = 1 << level
        if not any(map(any, at[level])):
            children = [(m | c, s) for m, s in frontier for c in (0, bit)]
        else:
            sides = []
            for c, (kill_tests, body_tests) in zip((0, bit), at[level]):
                if not kill_tests and not body_tests:
                    sides.append([(m | c, s) for m, s in frontier])
                    continue
                side = []
                for mask, sig in frontier:
                    child = mask | c
                    for pos, neg, test, _ in kill_tests:
                        if (child & pos == pos and not child & neg
                                and (test is None or test(child))):
                            side.append(None)
                            break
                    else:
                        for pos, neg, test, b in body_tests:
                            if (child & pos == pos and not child & neg
                                    and (test is None or test(child))):
                                sig |= b
                        side.append((child, sig))
                sides.append(side)
            children = [x for pair in zip(*sides) for x in pair if x]
        for k in reversed(range(0, len(children), logic.FRONTIER)):
            stack.append((level + 1, children[k:k + logic.FRONTIER]))


def reference_cell_system(preds, kills, rows, max_live):
    """`c1.cell_system` as it was before the walk collapsed the subtrees
    whose leaves share a signature: the first mask of each signature over
    every mask `reference_live_signatures` yields, each yield counted
    against `max_live` and its nodes against 10 * `max_live`."""
    first = {}
    walk = reference_live_signatures(preds, kills, [b for _, _, b in rows],
                                     10 * max_live)
    for n, (mask, sig) in enumerate(walk):
        if n == max_live:
            raise BudgetExhaustedError("live 1-type cap exceeded")
        first.setdefault(sig, mask)
    sigs = list(first)
    return tuple(first.values()), LinearSystem(
        tuple(tuple((k, 1) for k, sig in enumerate(sigs) if sig >> i & 1)
              for i in range(len(rows))),
        tuple(d for d, _, _ in rows), tuple(b for _, b, _ in rows), len(sigs))


class EagerTable:
    """A saturated `proofs.BoundTable` converted to dicts at once, as
    `saturate` returned it before the table kept its flat lists: every
    pair's lower bound and provenance, and the upper bound and provenance
    of the pairs that have one, keyed by literal pairs."""

    def __init__(self, table):
        literals, ends = table.literals, table._ends
        (lower, upper), (prov_lower, prov_upper) = table._bounds, table._prov

        def key(t):
            return literals[ends[t][0]], literals[ends[t][1]]

        def keyed(entries):
            out = []
            for val, just in entries:
                if just[0] in (R1, R2, R3):
                    rule, (pa, sa, va), (pb, sb, vb) = just
                    just = (rule, (key(pa), sa, va), (key(pb), sb, vb))
                out.append((val, just))
            return out

        self.contradiction = table.contradiction
        self.complete = table.complete
        self.lower, self.upper, self.prov_lower, self.prov_upper = {}, {}, {}, {}
        for t in range(len(ends)):
            pr = key(t)
            self.lower[pr] = lower[t]
            self.prov_lower[pr] = keyed(prov_lower[t])
            if upper[t] is not None:
                self.upper[pr] = upper[t]
                self.prov_upper[pr] = keyed(prov_upper[t])

    def lower_of(self, pair):
        return self.lower.get(pair, 0)

    def upper_of(self, pair):
        got = self.upper.get(pair)
        if got is None and pair[0] == pair[1].opposite():
            return 0
        return got


def _eager_rebuild(table, pr, side, value, memo):
    key = (pr, side, value)
    if key in memo:
        return memo[key]
    entries = (table.prov_lower if side == "lower" else
               table.prov_upper).get(pr, [])
    just = next((j for v, j in entries if v == value), None)
    if just is None or just[0] == "axiom":
        atom = (at_least(value, *pr) if side == "lower" else at_most(value, *pr))
        node = Derivation(atom, "axiom")
    elif just[0] == "premise":
        node = Derivation(just[1], "premise")
    else:
        rule, (pa, sa, va), (pb, sb, vb) = just
        ca = _eager_rebuild(table, pa, sa, va, memo)
        cb = _eager_rebuild(table, pb, sb, vb, memo)
        atom = (at_least(value, *pr) if side == "lower" else at_most(value, *pr))
        node = Derivation(atom, rule, (ca, cb))
    memo[key] = node
    return node


def eager_derives(phi, goal, **kwargs):
    """`proofs.derives` over an `EagerTable`: (derivable, derivation,
    complete)."""
    table = EagerTable(saturate(phi, **kwargs))
    memo = {}
    if table.contradiction is not None:
        pr = table.contradiction
        node = Derivation(goal, "exfalso", (
            _eager_rebuild(table, pr, "upper", table.upper_of(pr), memo),
            _eager_rebuild(table, pr, "lower", table.lower_of(pr), memo)))
        return True, node, table.complete
    pr = _pair(*goal.lits)
    if goal.direction == AT_LEAST:
        best = table.lower_of(pr)
        if best >= goal.bound:
            base = _eager_rebuild(table, pr, "lower", best, memo)
            node = base if best == goal.bound else _weaken_lower(base, goal)
            return True, node, table.complete
        return False, None, table.complete
    best = table.upper_of(pr)
    if best is not None and best <= goal.bound:
        base = _eager_rebuild(table, pr, "upper", best, memo)
        node = base if best == goal.bound else _weaken_upper(base, goal)
        return True, node, table.complete
    return False, None, table.complete
