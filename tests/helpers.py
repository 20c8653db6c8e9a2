"""Shared generators for randomized test suites (all seeded by the caller),
and the dense simplex loop that `linsys._Tableau.solve` must match."""

from fractions import Fraction
from itertools import chain

from numlog.errors import BudgetExhaustedError
from numlog.linsys import MAX_PIVOTS
from numlog.logic import AT_LEAST, AT_MOST, Lit, UnaryAtom, structure
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
