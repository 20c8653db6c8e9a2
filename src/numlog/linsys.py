"""Exact rational/integer linear feasibility and sparse-solution kernels.

A system is stored as sparse integer rows and the same coefficients as
sparse columns.  Each row is scaled once, when the system is built, by the
least common multiple of its denominators (no gcd is divided out), so
every kernel below reads the same integer data.

Every operation here is exact: integers are Python ints, rational results
are `fractions.Fraction`, and no float is ever produced.  The feasibility
core is a phase-1 simplex on an integer tableau carrying one shared
positive denominator (fraction-free pivoting); every division it performs
is checked to be exact.  Its pricing resumes after the last entering
column and falls back to Bland's rule during a run of degenerate pivots,
so it terminates.  Before it runs, every system goes through one
presolve (`_presolve`): rows are divided by their gcd, given a positive
first coefficient and merged when their coefficients agree, and a 0/1 row
whose support complements an `=` 0/1 row's is folded into the all-ones
row, so exact counts |p| and |!p| cost one tableau row.  Stored rows are
never gcd-divided.
`ilp_solve` is one LP-based branch and bound: it presolves once at the
root, every child re-solves from its parent's tableau with one more row (a
warm start) and keeps only its own bounds, and an infeasible LP is the only
way a node below the root is pruned; the root also refutes an `=` row whose
coefficient gcd does not divide its rhs.

Two sparsifiers shrink a solution's support and never create new nonzero
coordinates: over the rationals, a phase-1 vertex of the system restricted
to the support; over the naturals, on a "Boolean" system (all coefficients
in {0, 1} and natural right-hand sides), support-reduction exchanges that
keep the solution exact at every step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import chain, combinations, repeat
from numbers import Rational
from operator import itemgetter
from typing import Iterable, Sequence

from .errors import BudgetExhaustedError, InputError, NotASolutionError

LE = "<="
GE = ">="
EQ = "="

_RELATIONS = (LE, GE, EQ)


def _holds(v: int, rel: str, c: int) -> bool:  # v rel c
    return v <= c if rel == LE else v >= c if rel == GE else v == c

# Pivot cap of every phase-1 LP (its pricing terminates; this bounds time).
MAX_PIVOTS = 500_000
# Subsets `_colliding_subsets` tries before it gives up.
MAX_SUBSETS = 2_000_000
# Box volume above which `enumerate_solutions` refuses to enumerate.
VOLUME_CAP = 10_000_000

SparseVector = tuple[tuple[int, int], ...]


@dataclass(frozen=True)
class LinearSystem:
    """m sparse integer rows over num_vars columns, one relation and rhs
    per row.

    Row i is the tuple of its nonzero `(j, a)` entries in increasing j; it
    reads sum(a * x_j) rel_i rhs_i; column j, its `(i, a)` entries in
    increasing i, is gathered from them unless a builder passes it.  Build
    systems from rational data with `system_from_rows` or `scaled_system`,
    which scale each row to integers; the constructor takes rows already
    in this form.
    """

    rows: tuple[SparseVector, ...]
    relations: tuple[str, ...]
    rhs: tuple[int, ...]
    num_vars: int
    columns: tuple | None = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        if len(self.rows) != len(self.relations) or len(self.rows) != len(self.rhs):
            raise InputError("row count mismatch between rows, relations, rhs")
        if any(rel not in _RELATIONS for rel in self.relations):
            raise InputError("relations must be <=, >= or =")
        if self.columns is None:
            cols: list[list[tuple[int, int]]] = [[] for _ in range(self.num_vars)]
            for i, row in enumerate(self.rows):
                for j, a in row:
                    cols[j].append((i, a))
            object.__setattr__(self, "columns", tuple(map(tuple, cols)))

    @property
    def m(self) -> int:
        return len(self.rows)

    @property
    def is_boolean(self) -> bool:
        """True when every coefficient is 0/1 and every rhs is a natural."""
        return (all(c >= 0 for c in self.rhs)
                and all(a == 1 for row in self.rows for _, a in row))

    def is_solution(self, x: Sequence) -> bool:
        if len(x) != self.num_vars:
            return False
        lhs = [0] * self.m
        for j, xj in enumerate(x):
            if xj:
                for i, a in self.columns[j]:
                    lhs[i] += a * xj
        return all(map(_holds, lhs, self.relations, self.rhs))


def scaled_system(rows: Iterable[Iterable[tuple[int, Rational]]],
                  relations: Iterable[str], rhs: Iterable[Rational],
                  num_vars: int) -> LinearSystem:
    """The system of sparse rational rows `(j, a)`, each row multiplied by
    the lcm of its denominators and of its rhs's denominator.  Entries come
    in increasing j; zero entries are dropped."""
    rows, rhs = list(rows), list(rhs)
    if len(rows) != len(rhs):
        raise InputError("row count mismatch between rows, relations, rhs")
    out_rows, out_rhs = [], []
    for row, c in zip(rows, rhs):
        row = [(j, a) for j, a in row if a]
        if not all(isinstance(v, Rational) for v in (c, *(a for _, a in row))):
            raise InputError("coefficients must be int or Fraction")
        den = math.lcm(c.denominator, *(a.denominator for _, a in row))
        out_rows.append(tuple((j, int(a * den)) for j, a in row))
        out_rhs.append(int(c * den))
    return LinearSystem(tuple(out_rows), tuple(relations), tuple(out_rhs),
                        num_vars)


def system_from_rows(rows: Iterable[Sequence], relations: Iterable[str],
                     rhs: Iterable) -> LinearSystem:
    """The system of dense rational rows, scaled as in `scaled_system`."""
    rows = [list(row) for row in rows]
    if len({len(row) for row in rows}) > 1:
        raise InputError("ragged coefficient rows")
    return scaled_system((enumerate(row) for row in rows), relations, rhs,
                         len(rows[0]) if rows else 0)


# ---------------------------------------------------------------------------
# Exact LP feasibility (presolve, then phase-1 simplex on an integer tableau)
# ---------------------------------------------------------------------------

_FLIP = {LE: GE, GE: LE, EQ: EQ}

Row = tuple[SparseVector, str, int]


def _interval_rows(row: SparseVector, lo: int | None, hi: int | None
                   ) -> list[Row] | None:
    """The rows of `row` in [lo, hi]: one `=` row when lo == hi, otherwise
    a `<=` and/or a `>=` row; None when lo > hi."""
    if lo is not None and hi is not None and lo >= hi:
        return None if lo > hi else [(row, EQ, lo)]
    return [(row, rel, c) for rel, c in ((LE, hi), (GE, lo)) if c is not None]


def _is_01(row: SparseVector) -> bool:
    return set(map(itemgetter(1), row)) == {1}


def _presolve(system: LinearSystem) -> list[Row] | None:
    """The system's rows in canonical form, merged and folded, or None when
    a row alone, or a fold, is infeasible.

    Each row is divided by the gcd of its coefficients and rhs, and negated
    (its relation flipped) when its first coefficient is negative, so rows
    that are positive multiples of each other become equal.  Rows with equal
    coefficients share one interval [lo, hi]: it gives one `=` row when
    lo == hi, otherwise a `<=` and/or a `>=` row, at the place of the first
    such row; lo > hi is infeasible.  Empty rows are checked and dropped.
    A row that is already canonical is used as it is, not copied.

    Then, when the all-ones row ONES is present, a 0/1 row R' whose support
    is the complement of an `=` 0/1 row R = c is folded: R' = ONES - R, so
    R' in [lo', hi'] is dropped and ONES's interval is intersected with
    [lo' + c, hi' + c].  The solution set is unchanged; totals that
    disagree (|p| + |!p| != |q| + |!q|) leave ONES empty, which is
    infeasible.  When R' is an `=` row too, the pair keeps whichever row
    comes first.  A candidate R' has length n - len(R) and is confirmed by
    one disjointness test; without an `=` row nothing more is looked at.
    """
    bounds: dict[SparseVector, list] = {}
    for row, rel, c in zip(system.rows, system.relations, system.rhs):
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
        b = bounds.setdefault(row, [None, None])
        if rel != LE and (b[0] is None or c > b[0]):
            b[0] = c
        if rel != GE and (b[1] is None or c < b[1]):
            b[1] = c
    # fold each 0/1 row R' complementing an `=` 0/1 row R = c into ONES
    n = system.num_vars
    eqs = [row for row, (lo, hi) in bounds.items()
           if lo is not None and lo == hi and _is_01(row)]
    ones = bounds.get(tuple(zip(range(n), repeat(1)))) if eqs else None
    if ones is not None:
        by_len: dict[int, list[SparseVector]] = {}
        for row in bounds:
            by_len.setdefault(len(row), []).append(row)
        for row in eqs:
            if row not in bounds:
                continue
            support = set(map(itemgetter(0), row))
            for other in by_len.get(n - len(row), ()):
                if (other in bounds and _is_01(other)
                        and support.isdisjoint(map(itemgetter(0), other))):
                    c, (lo, hi) = bounds[row][0], bounds.pop(other)
                    if lo is not None and (ones[0] is None or lo + c > ones[0]):
                        ones[0] = lo + c
                    if hi is not None and (ones[1] is None or hi + c < ones[1]):
                        ones[1] = hi + c
                    break
    out = []
    for row, (lo, hi) in bounds.items():
        rows = _interval_rows(row, lo, hi)
        if rows is None:
            return None
        out += rows
    return out


class _Tableau:
    """A revised phase-1 simplex over integer data that can grow by rows.

    `cols` holds sparse columns of `(i, a)` entries: the n structural
    columns first, then each added batch's slack columns and artificial
    columns, in that order.  `price` lists every column except the
    artificials, which never re-enter.  The basis inverse is kept
    fraction-free: `binv` is an integer matrix whose shared positive
    denominator `d` is det B, so every division in a pivot is exact by the
    subdeterminant argument (and checked), and `xb` holds d times the basic
    values.  A pivot keeps the leaving row `lrow`, as the new d is the pivot
    element piv = u[leave] (u = binv . A_enter), and maps every other entry
    to (binv[i][k] * piv - u[i] * lrow[k]) / d.  An entry with binv[i][k]
    and lrow[k] both zero stays zero, and when piv == d an entry with
    lrow[k] == 0 stays as it is, so the pivot rewrites only the entries
    that change: the leaving row's nonzeros in each row with u[i] != 0
    when piv == d, else every position where binv[i][k] or lrow[k] is
    nonzero.  The entering column is the first one with a positive reduced
    cost in `price` order, starting at `pos`, just after the last entering
    column, and wrapping around; after m degenerate pivots in a row (m rows,
    zero step) the scan starts at position 0 (Bland's rule) until a pivot
    moves the point.  Ties in the ratio test go to the smallest basic
    column.  This terminates: a nondegenerate pivot strictly lowers the
    phase-1 objective, so no earlier basis comes back, and every run of
    degenerate pivots ends under Bland's rule alone, which cannot cycle.
    `copy` carries `pos`, so a warm-started copy resumes where it was, and
    shares the column tuples, which are never changed.

    Warm start: `add_rows` appends rows to a solved tableau and keeps its
    basis.  Each new row is negated (its relation flipped) when its
    residual c - r_B . x_B is negative, or zero on a `>=` row; its basic
    variable is then its slack when the row is a `<=` row, whose slack
    comes out nonnegative, and a fresh artificial otherwise.  With B'
    = [[B, 0], [r_B, 1]], the new row of `binv` is -(r_B . binv) with d on
    the diagonal, and d = det B' is unchanged.  `solve` then continues
    phase 1 from that basis.  The cold start `start` is `add_rows` of the
    presolved rows on an empty tableau, where every residual is the rhs; it
    takes the system's own column tuples when the presolve returned the
    input rows untouched.  An input row that was merged or folded away
    feeds no tableau row.
    """

    def __init__(self, n: int):
        self.n = n
        self.cols: list[SparseVector] = [()] * n
        self.price: list[int] = list(range(n))
        self.pos = 0  # where the next pricing pass starts in `price`
        self.basis: list[int] = []
        self.art: list[bool] = []  # row's basic variable is artificial
        self.binv: list[list[int]] = []
        self.xb: list[int] = []
        self.d = 1

    def copy(self) -> _Tableau:
        t = _Tableau.__new__(_Tableau)
        t.n, t.d, t.price, t.pos = self.n, self.d, self.price[:], self.pos
        t.basis, t.art, t.xb = self.basis[:], self.art[:], self.xb[:]
        t.cols = self.cols[:]
        t.binv = [row[:] for row in self.binv]
        return t

    def start(self, system: LinearSystem) -> list[Row] | None:
        """The cold start of `system`: its presolved rows, or None.  When
        they are the input rows untouched (each the input row's own tuple
        at the same index, none negated), the columns are the system's."""
        rows = _presolve(system)
        if rows is None:
            return None
        if len(rows) == system.m and not any(
                row is not r or c < 0 or (c == 0 and rel == GE)
                for (row, rel, c), r in zip(rows, system.rows)):
            self.cols[:self.n] = system.columns
            self.add_rows([((), rel, c) for _, rel, c in rows])
        else:
            self.add_rows(rows)
        return rows

    def add_rows(self, rows: Sequence[Row]) -> None:
        """Append rows `(sparse row, relation, rhs)`, each with a basic
        variable of its own; the current basis is kept."""
        m0, n, d = len(self.basis), self.n, self.d
        m = m0 + len(rows)
        cols, binv, xb = self.cols, self.binv, self.xb
        where = {b: i for i, b in enumerate(self.basis) if b < n}
        for row in binv:
            row.extend([0] * (m - m0))
        entries: dict[int, list[tuple[int, int]]] = {}
        slacks, arts = [], []
        for i, (sparse, rel, c) in enumerate(rows, m0):
            res = d * c
            r_binv = [0] * m  # r_B . binv
            if where:
                for j, a in sparse:
                    p = where.get(j)
                    if p is not None:
                        res -= a * xb[p]
                        for k, v in enumerate(binv[p]):
                            if v:
                                r_binv[k] += a * v
            sign = 1
            if res < 0 or (res == 0 and rel == GE):
                sign, res, rel = -1, -res, _FLIP[rel]
            for j, a in sparse:
                entries.setdefault(j, []).append((i, sign * a))
            new = [-sign * v for v in r_binv]
            new[i] = d
            binv.append(new)
            xb.append(res)
            if rel != EQ:
                slacks.append((i, 1 if rel == LE else -1))
            if rel != LE:
                arts.append(i)
        for j, col in entries.items():
            cols[j] += tuple(col)
        basis = self.basis
        basis.extend([-1] * (m - m0))
        for i, a in slacks:
            self.price.append(len(cols))
            if a == 1:
                basis[i] = len(cols)
            cols.append(((i, a),))
        self.art.extend([False] * (m - m0))
        for i in arts:
            basis[i] = len(cols)
            self.art[i] = True
            cols.append(((i, 1),))

    def solve(self) -> bool:
        """Phase 1 from the current basis; True iff the rows are feasible.

        Stops as soon as every artificial is zero: further pivots would be
        degenerate and leave the point unchanged.  Raises
        BudgetExhaustedError after MAX_PIVOTS pivots in this call.
        """
        m = len(self.basis)
        cols, basis, art, binv, xb = (self.cols, self.basis, self.art,
                                      self.binv, self.xb)
        pivots = degenerate = 0
        while True:
            art_rows = [i for i in range(m) if art[i]]
            if not any(xb[i] for i in art_rows):
                return True
            # y = (basis cost vector) . Binv; cost 1 on artificial basics.
            y = [sum(c) for c in zip(*[binv[i] for i in art_rows])]
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
                u = [v + row[r] * a for v, row in zip(u, binv)]
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
            d, piv = self.d, u[leave]
            lrow, lxb = binv[leave], xb[leave]
            lnz = [k for k in range(m) if lrow[k]]
            for i in range(m):
                f = u[i]
                if i == leave or (f == 0 and piv == d):
                    continue
                row = binv[i]
                for k in lnz if piv == d else [
                        k for k in range(m) if row[k] or lrow[k]]:
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

    def solution(self) -> tuple[Fraction, ...]:
        """The current basic point over the n structural columns."""
        x = [Fraction(0)] * self.n
        for b, v in zip(self.basis, self.xb):
            if b < self.n:
                x[b] = Fraction(v, self.d)
        return tuple(x)


def lp_feasible(system: LinearSystem) -> tuple[Fraction, ...] | None:
    """Some nonnegative rational solution of the system, or None.

    Presolve, then one cold phase-1 solve.  Exact and deterministic; raises
    BudgetExhaustedError only if MAX_PIVOTS is hit (the pricing terminates:
    it resumes after the last entering column, and a run of degenerate
    pivots falls back to Bland's rule).
    """
    tab = _Tableau(system.num_vars)
    if tab.start(system) is None:
        return None
    return tab.solution() if tab.solve() else None


# ---------------------------------------------------------------------------
# Sparse solutions
# ---------------------------------------------------------------------------

def _support(x: Sequence) -> list[int]:
    return [j for j, v in enumerate(x) if v != 0]


def sparsify_rational(system: LinearSystem, solution: Sequence
                      ) -> tuple[Fraction, ...]:
    """Reduce a nonnegative rational solution of an all-equality system to at
    most m nonzero entries.

    A solution with at most m nonzeros is returned as it is.  Otherwise the
    answer is the phase-1 vertex (`lp_feasible`) of the system restricted to
    the solution's support: the restriction is feasible, since the solution
    solves it, and a basic solution has at most one nonzero per row.  Zero
    coordinates stay zero.
    """
    if any(rel != EQ for rel in system.relations):
        raise InputError("sparsify_rational needs an all-equality system")
    sol = [Fraction(v) for v in solution]
    if any(v < 0 for v in sol) or not system.is_solution(sol):
        raise NotASolutionError("input does not solve the system over Q+")
    support = _support(sol)
    if len(support) <= system.m:
        return tuple(sol)
    col = {j: k for k, j in enumerate(support)}
    restricted = LinearSystem(
        tuple(tuple((col[j], a) for j, a in row if j in col)
              for row in system.rows),
        system.relations, system.rhs, len(support))
    vertex = lp_feasible(restricted)
    out = [Fraction(0)] * system.num_vars
    for j, v in zip(support, vertex):
        out[j] = v
    return tuple(out)


def natural_sparsity_bound(m: int, num_vars: int) -> int:
    """ceil(m * log2(L + 1)) computed exactly: the least b with 2^b >= (L+1)^m."""
    if m == 0:
        return 0
    target = (num_vars + 1) ** m
    return (target - 1).bit_length()


def _colliding_subsets(system: LinearSystem, support: list[int]
                       ) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Two distinct subsets of the support whose column sums agree,
    enumerated by increasing size then lexicographically."""
    m, columns = system.m, system.columns
    seen: dict[tuple[int, ...], tuple[int, ...]] = {}
    count = 0
    for size in range(1, len(support) + 1):
        for subset in combinations(support, size):
            sums = [0] * m
            for j in subset:
                for i, a in columns[j]:
                    sums[i] += a
            vec = tuple(sums)
            prev = seen.get(vec)
            if prev is not None:
                return prev, subset
            seen[vec] = subset
            count += 1
            if count > MAX_SUBSETS:
                raise BudgetExhaustedError("subset-collision search budget exhausted")
    raise AssertionError("no colliding subsets below the proven bound")


def sparsify_natural(system: LinearSystem, solution: Sequence[int]
                     ) -> tuple[int, ...]:
    """Reduce a natural solution of a Boolean all-equality system to at most
    ceil(m * log2(L+1)) nonzero entries.

    The exchange step finds distinct support subsets with equal column sums,
    then shifts value from one to the other until a coordinate reaches zero;
    the solution re-solves the system exactly after every exchange.  Subsets
    are tried by increasing size, so two equal columns are spent before any
    larger collision.
    """
    if not system.is_boolean:
        raise InputError("sparsify_natural needs a Boolean system")
    if any(rel != EQ for rel in system.relations):
        raise InputError("sparsify_natural needs an all-equality system")
    sol = [int(v) for v in solution]
    if any(v < 0 for v in sol) or list(solution) != sol or not system.is_solution(sol):
        raise NotASolutionError("input does not solve the system over N")
    bound = natural_sparsity_bound(system.m, system.num_vars)
    while True:
        support = _support(sol)
        if len(support) <= bound:
            break
        i_set, i_prime = _colliding_subsets(system, support)
        j_dec = tuple(sorted(set(i_set) - set(i_prime)))
        j_inc = tuple(sorted(set(i_prime) - set(i_set)))
        if not j_dec:
            j_dec, j_inc = j_inc, j_dec
        step = min(sol[j] for j in j_dec)
        for j in j_dec:
            sol[j] -= step
        for j in j_inc:
            sol[j] += step
        if not system.is_solution(sol) or len(_support(sol)) >= len(support):
            raise AssertionError("an exchange broke the solution")
    return tuple(sol)


def check_prop2_bound(system: LinearSystem, solution: Sequence[int]) -> bool:
    """True iff the solution has at most 5/2 * m * log2(m) + 1 nonzeros.

    Compared exactly: nnz <= 5/2 m log2 m + 1 iff 4^(nnz-1) <= m^(5m).
    """
    nnz = len(_support(solution))
    if nnz == 0:
        return True
    m = system.m
    if m == 0:
        return nnz == 0
    return 4 ** (nnz - 1) <= m ** (5 * m)


def many_nonzeros_instance(m: int) -> LinearSystem:
    """The m x (m+1) Boolean system whose unique natural solution is all-ones.

    The first m-1 rows slide a block of three 1s one step right per row; the
    last row is (1,1,0,1,0,0,1,0,...,0).  The right-hand side is (3,...,3,4).
    """
    if m < 6:
        raise InputError("many_nonzeros_instance needs m >= 6")
    rows = [((i, 1), (i + 1, 1), (i + 2, 1)) for i in range(m - 1)]
    rows.append(tuple((j, 1) for j in (0, 1, 3, 6)))
    return LinearSystem(tuple(rows), (EQ,) * m, (3,) * (m - 1) + (4,), m + 1)


# ---------------------------------------------------------------------------
# Bounded integer feasibility
# ---------------------------------------------------------------------------

def _greedy_seed(system: LinearSystem, ubs: list[int]
                 ) -> tuple[int, ...] | None:
    """Cheap covering heuristic, sound as its result is verified exactly,
    None on a dead end.  The first unmet >=-row raises the variable that
    serves the most unmet rows without breaking a <=/=-row, as far as its
    box, that row's need and its <=/= rows' slack allow.  Nonnegative rows
    make each raise meet its row or block its variable: m + n + 1 passes."""
    m, n = system.m, system.num_vars
    cols, rhs = system.columns, system.rhs
    vals = [0] * n
    sums = [0] * m
    ge_rows = [i for i in range(m)
               if system.relations[i] in (GE, EQ) and rhs[i] > 0]
    row_pos_cols = {i: [j for j, a in system.rows[i] if a > 0] for i in ge_rows}
    for _ in range(m + n + 1):
        unmet = [i for i in ge_rows if sums[i] < rhs[i]]
        if not unmet:
            return tuple(vals) if system.is_solution(vals) else None
        unmet_set = set(unmet)
        target = unmet[0]
        best, best_score = -1, 0
        for j in row_pos_cols[target]:
            if vals[j] >= ubs[j]:
                continue
            score = 0
            ok = True
            helps_target = False
            for i, a in cols[j]:
                rel = system.relations[i]
                if rel != GE and sums[i] + a > rhs[i]:
                    ok = False
                    break
                if a > 0 and i in unmet_set:
                    score += 1
                    if i == target:
                        helps_target = True
            if ok and helps_target and score > best_score:
                best, best_score = j, score
        if best < 0:
            return None
        step = ubs[best] - vals[best]
        for i, a in cols[best]:
            if i == target:  # ceil(need / a)
                step = min(step, -((sums[i] - rhs[i]) // a))
            if a > 0 and system.relations[i] != GE:
                step = min(step, (rhs[i] - sums[i]) // a)
        vals[best] += step
        for i, a in cols[best]:
            sums[i] += a * step
    return None


def ilp_solve(system: LinearSystem, upper_bounds: Sequence[int], *,
              max_nodes: int = 200_000) -> tuple[int, ...] | None:
    """A natural solution with x_j <= upper_bounds[j], or None.

    After `_greedy_seed`, the system is presolved once and searched by
    depth-first LP-based branch and bound.  A node whose LP relaxation is
    infeasible is a leaf, an integral LP point is the answer, and otherwise
    the LP-fractional variable with the smallest remaining interval is split
    at the floor of its value.  The root LP is one cold solve; each child
    copies its parent's solved tableau, appends its branch row and continues
    phase 1 from the parent's basis (the last child takes the parent's
    tableau itself).  A node reads its point off the basis: d * x_j for each
    basic column j < n, every other column 0, so x_j is fractional when d
    does not divide it.  Box rows x_j <= upper_bounds[j] join a node's LP,
    in increasing j, only once its point breaks them, and are appended to
    its tableau the same way; its children inherit them with the tableau.
    The search has a second, integer-only leaf, at the root: a presolved
    `=` row whose coefficient gcd does not divide its rhs has no integer
    solution.  That test is wrong over the rationals, so it stays out of
    `_presolve` and `lp_feasible`.  No other rule prunes.  Deterministic.
    Raises BudgetExhaustedError when the node budget runs out; that is
    reported distinctly from infeasibility.
    """
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
    # Depth first over a stack of open nodes (lo, hi, tableau, rows to
    # append); the low child is searched first.  `lo` and `hi` hold only
    # the bounds the node's own branches set (0 and the box otherwise) and
    # are read only to pick the branch variable: every one of them is a
    # row of the node's LP.
    stack = [({}, {}, root, [])]
    nodes = 0
    while stack:
        lo, hi, tab, rows = stack.pop()
        nodes += 1
        if nodes > max_nodes:
            raise BudgetExhaustedError("ilp_solve node budget exhausted")
        tab.add_rows(rows)
        while tab.solve():
            d = tab.d
            point = [(j, x) for j, x in zip(tab.basis, tab.xb) if j < n]
            broken = sorted(j for j, x in point if x > ubs[j] * d)
            if not broken:
                break
            tab.add_rows([(((j, 1),), LE, ubs[j]) for j in broken])
        else:  # infeasible
            continue
        frac = [(hi.get(j, ubs[j]) - lo.get(j, 0), j, x)
                for j, x in point if x % d]
        if not frac:
            cand = [0] * n
            for j, x in point:
                cand[j] = x // d
            if not system.is_solution(cand):
                raise AssertionError("branch and bound point fails the system")
            return tuple(cand)
        _, j, x = min(frac)
        split = x // d
        assert lo.get(j, 0) <= split < hi.get(j, ubs[j])
        var = ((j, 1),)
        stack.append(({**lo, j: split + 1}, hi, tab, [(var, GE, split + 1)]))
        stack.append((lo, {**hi, j: split}, tab.copy(), [(var, LE, split)]))
    return None


def enumerate_solutions(system: LinearSystem, box: Sequence[int]
                        ) -> list[tuple[int, ...]]:
    """All natural solutions with x_j <= box[j], lexicographic order.

    Brute-force oracle: depth-first over the box with sound partial-sum
    pruning (a prefix is cut only when no suffix completion can satisfy a
    row), exact arithmetic at the leaves.
    """
    n = system.num_vars
    box = [int(b) for b in box]
    if len(box) != n or any(b < 0 for b in box):
        raise InputError("need one nonnegative box bound per variable")
    volume = 1
    for b in box:
        volume *= b + 1
        if volume > VOLUME_CAP:
            raise BudgetExhaustedError("box volume exceeds the enumeration cap")
    m, columns = system.m, system.columns
    # suffix_min[i][j], suffix_max[i][j]: extreme contribution of vars j..n-1
    suffix_min = [[0] * (n + 1) for _ in range(m)]
    suffix_max = [[0] * (n + 1) for _ in range(m)]
    for i, row in enumerate(system.rows):
        coeff = dict(row)
        for j in range(n - 1, -1, -1):
            a = coeff.get(j, 0)
            lo_c = a * 0 if a > 0 else a * box[j]
            hi_c = a * box[j] if a > 0 else a * 0
            suffix_min[i][j] = suffix_min[i][j + 1] + lo_c
            suffix_max[i][j] = suffix_max[i][j + 1] + hi_c
    out: list[tuple[int, ...]] = []
    partial = [0] * m
    x = [0] * n

    def viable(depth: int) -> bool:
        for i in range(m):
            rel = system.relations[i]
            c = system.rhs[i]
            if rel in (LE, EQ) and partial[i] + suffix_min[i][depth] > c:
                return False
            if rel in (GE, EQ) and partial[i] + suffix_max[i][depth] < c:
                return False
        return True

    def walk(depth: int):
        if depth == n:
            out.append(tuple(x))
            return
        for v in range(box[depth] + 1):
            x[depth] = v
            for i, a in columns[depth]:
                partial[i] += a * v
            if viable(depth + 1):
                walk(depth + 1)
            for i, a in columns[depth]:
                partial[i] -= a * v
        x[depth] = 0

    if viable(0):
        walk(0)
    return out

