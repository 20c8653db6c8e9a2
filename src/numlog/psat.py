"""Probability assignments over finite world sets, the threshold semantics
for counting sentences, a small-scale probabilistic-satisfiability decider,
and the counterexample construction that certifies the proof calculus
incomplete.

The threshold semantics reads "at least C (p and q)" as P(p and q) >= C/N
for a fixed scale N carried by the assignment.  Every axiom and rule of the
calculus is sound for it, so exhibiting an assignment that satisfies a
premise set while giving some goal probability 0 certifies that the goal is
underivable - even though it is semantically entailed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm

from .c1 import cell_system
from .errors import (BudgetExhaustedError, InputError, at_line, decimal,
                     numbered_lines)
from .linsys import EQ, lp_feasible, many_nonzeros_instance
from .linsys import sparsify_rational  # noqa: F401  (bench/spans.py rebinds it)
from .logic import (AT_LEAST, And, CountingAtom, Lit, Not, Or, Pred, TRUE,
                    UnaryAtom, compile_body, lit_formula, mask_of, true_preds)

World = frozenset[str]  # the letters true at that world

# Letter cap of psat_decide: more than ENUMERATE_CAP letters only when some
# 0/1 row prunes the truth assignments; c1.cell_system then bounds the
# pruning walk and the assignments that survive it by c1.MAX_LIVE.
ENUMERATE_CAP = 12


@dataclass(frozen=True)
class ProbabilityAssignment:
    """Finitely many worlds with exact rational weights summing to 1.

    Worlds are deduplicated (equal assignments merge their weights).  `scale`
    is the fixed denominator N used by the threshold semantics; None when
    the assignment is not meant for threshold evaluation.  `masks` holds
    each world's truth assignment as a mask over `letters`.
    """

    letters: tuple[str, ...]
    worlds: tuple[tuple[World, Fraction], ...]
    scale: int | None = None
    masks: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        merged: dict[World, Fraction] = {}
        for w, weight in self.worlds:
            w = frozenset(w)
            if not w <= set(self.letters):
                raise InputError("world mentions a letter outside the signature")
            weight = Fraction(weight)
            if weight < 0:
                raise InputError("negative world weight")
            merged[w] = merged.get(w, Fraction(0)) + weight
        worlds = tuple(sorted(((w, wt) for w, wt in merged.items() if wt > 0),
                              key=lambda item: sorted(item[0])))
        if sum((wt for _, wt in worlds), Fraction(0)) != 1:
            raise InputError("world weights must sum to exactly 1")
        object.__setattr__(self, "worlds", worlds)
        object.__setattr__(self, "letters", tuple(self.letters))
        index = {p: i for i, p in enumerate(self.letters)}
        object.__setattr__(self, "masks",
                           tuple(mask_of(w, index) for w, _ in worlds))


def _clause_formula(cl) -> Or:
    return Or(tuple(lit_formula(lit) for lit in cl))


def prob(assignment: ProbabilityAssignment, formula) -> Fraction:
    """Exact probability of a propositional formula: the total weight of the
    worlds satisfying it.

    Accepts a clause (tuple of literals) or a formula tree over
    Pred/Not/And/Or.  Letters outside the signature are an error.
    """
    if isinstance(formula, tuple):
        formula = _clause_formula(formula)
    elif not isinstance(formula, (Pred, Not, And, Or)):
        raise InputError(f"not a propositional formula: {formula!r}")
    test = compile_body(formula, {p: i for i, p in enumerate(assignment.letters)})
    return sum((wt for (_, wt), mask in zip(assignment.worlds, assignment.masks)
                if test(mask)), Fraction(0))


def approx_models(assignment: ProbabilityAssignment, atom: CountingAtom) -> bool:
    """Threshold truth of a unary counting sentence: at least C means
    probability >= C/N, at most C means <= C/N, for the assignment's scale N."""
    if not isinstance(atom, UnaryAtom):
        raise InputError("threshold semantics covers unary sentences only")
    if assignment.scale is None:
        raise InputError("assignment has no scale N attached")
    p = prob(assignment, And(tuple(map(lit_formula, atom.lits))))
    threshold = Fraction(atom.bound, assignment.scale)
    return p >= threshold if atom.direction == AT_LEAST else p <= threshold


# ---------------------------------------------------------------------------
# PSAT
# ---------------------------------------------------------------------------

def psat_decide(instance) -> ProbabilityAssignment | None:
    """Decide whether clause probabilities are jointly realizable.

    `instance` is a list of (clause, q) pairs, clause a tuple of literals
    and q an exact rational in [0,1]; each pair demands P(clause) = q.  As
    an extension, (clause, rel, q) triples with rel in {"=", "<=", ">="}
    demand the corresponding inequality.  Feasibility is the LP relaxation
    of the C1 cell system (`c1.cell_system`) over the letters: each q
    becomes a count out of D, the lcm of the denominators, and a total row
    demands D.  A row forcing P(clause) = 0 kills the truth assignments
    satisfying the clause, one forcing P(clause) = 1 those falsifying it
    (the conjunction of the opposite literals, which the walk folds like
    any literal kill); such rows add no row of their own, and the pruning
    admits a few more letters than brute enumeration would.  The assignment
    is the simplex vertex divided by D: a basic solution, so it has at most
    one world per row, total row included, for any mix of relations.
    """
    norm: list[tuple[tuple, str, Fraction]] = []
    for item in instance:
        if len(item) == 2:
            cl, q = item
            rel = EQ
        else:
            cl, rel, q = item
            if rel not in (EQ, "<=", ">="):
                raise InputError(f"bad probability relation {rel!r}")
        q = Fraction(q)
        if not 0 <= q <= 1:
            raise InputError(f"probability {q} outside [0,1]")
        norm.append((tuple(cl), rel, q))
    letters = sorted({lit.pred for cl, _, _ in norm for lit in cl})

    kills, kept = [], []
    for cl, rel, q in norm:
        body = _clause_formula(cl)
        if q == 0 and rel != ">=":
            kills.append(body)
        elif q == 1 and rel != "<=":
            kills.append(And(tuple(lit_formula(lit.opposite()) for lit in cl)))
        else:
            kept.append((rel, q, body))
    if len(letters) > ENUMERATE_CAP and not kills:
        raise BudgetExhaustedError(
            f"{len(letters)} letters need 0/1 rows to prune; cap is {ENUMERATE_CAP}")
    scale = lcm(*(q.denominator for _, q, _ in kept))
    live, system = cell_system(
        letters, kills,
        [(rel, int(q * scale), body) for rel, q, body in kept]
        + [(EQ, scale, TRUE)])
    sol = lp_feasible(system)
    if sol is None:
        return None
    worlds = tuple((frozenset(true_preds(mask, letters)), weight / scale)
                   for mask, weight in zip(live, sol) if weight)
    out = ProbabilityAssignment(tuple(letters), worlds)
    for cl, rel, q in norm:
        got = prob(out, cl)
        ok = got == q if rel == EQ else (got <= q if rel == "<=" else got >= q)
        if not ok:
            raise AssertionError(
                "assignment fails to reproduce a demanded probability")
    return out


# PSAT instance file: one "p | !q | r ; 3/5" line per constraint; as an
# extension the probability may carry a relation, e.g. "p | q ; >= 1/2".

def _probability(text: str) -> Fraction:
    """A probability written `a` or `a/b` with decimal numerals a and b."""
    num, slash, den = text.partition("/")
    den = decimal(den.strip()) if slash else 1
    if den == 0:
        raise InputError(f"zero denominator in {text!r}")
    return Fraction(decimal(num.strip()), den)


def parse_psat_instance(text: str):
    """Read a PSAT file; an InputError names its line."""
    out = []
    for ln, line in numbered_lines(text):
        with at_line(ln):
            clause_text, sep, q_text = line.rpartition(";")
            if not sep:
                raise InputError("missing '; probability'")
            lits = []
            for tok in clause_text.split("|"):
                tok = tok.strip()
                if not tok:
                    raise InputError("empty literal")
                lits.append(Lit(tok[1:].strip(), False)
                            if tok.startswith("!") else Lit(tok))
            q_text = q_text.strip()
            rel = q_text[:2] if q_text[:2] in ("<=", ">=") else EQ
            q = _probability(q_text if rel == EQ else q_text[2:].strip())
            if not 0 <= q <= 1:
                raise InputError(f"probability {q} outside [0,1]")
        out.append((tuple(lits), q) if rel == EQ else (tuple(lits), rel, q))
    return out


def render_psat_instance(instance) -> str:
    lines = []
    for item in instance:
        cl, rel, q = item if len(item) == 3 else (item[0], EQ, item[1])
        clause = " | ".join(str(lit) for lit in cl)
        lines.append(f"{clause} ; {q}" if rel == EQ
                     else f"{clause} ; {rel} {q}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# The incompleteness counterexample
# ---------------------------------------------------------------------------

def counterexample_assignment(m: int) -> tuple[ProbabilityAssignment, int]:
    """A probability assignment that threshold-satisfies the whole
    incompleteness premise set while giving some goal "at least 1 (t_j and
    r)" probability exactly 0; returns it with that j (1-based).

    Construction: take the LP vertex u of the unique-solution system, a
    basic solution with at most m nonzero entries (so some entry is zero,
    and every entry is at most 3).  With scale N = 6(m+1) the worlds come
    in 2(m+1) + 2 kinds: per column j, a t_j cell of weight 3/N (t, t_j and
    the s_i of the rows using column j), u_j/N of it with r; r alone,
    padding P(r) to 1/2; and the empty world.  This reproduces every
    premise threshold exactly.
    """
    from .proofs import incompleteness_instance

    if m < 6:
        raise InputError("counterexample_assignment needs m >= 6")
    system = many_nonzeros_instance(m)
    u_vec = lp_feasible(system)
    assert any(v == 0 for v in u_vec)
    assert all(v <= 3 for v in u_vec)
    scale = 6 * (m + 1)

    letters = tuple(["t"] + [f"t{j}" for j in range(1, m + 2)]
                    + [f"s{i}" for i in range(1, m + 1)] + ["r"])
    # per column j, the t_j cell: t, t_j and the s_i of the rows using j
    worlds = []
    for j, (u_j, column) in enumerate(zip(u_vec, system.columns)):
        cell = {"t", f"t{j + 1}"} | {f"s{i + 1}" for i, _ in column}
        worlds.append((cell | {"r"}, u_j / scale))
        worlds.append((cell, (3 - u_j) / scale))
    # r alone pads P(r) to 1/2; the empty world takes the rest
    worlds.append(({"r"}, (3 * (m + 1) - sum(u_vec)) / scale))
    worlds.append((set(), sum(u_vec) / scale))
    assignment = ProbabilityAssignment(letters, tuple(worlds), scale)

    phi, goals = incompleteness_instance(m)
    for atom in phi:
        assert approx_models(assignment, atom), f"assignment misses {atom}"
    zero_j = next(j for j in range(m + 1) if u_vec[j] == 0) + 1
    conj = And((Pred(f"t{zero_j}"), Pred("r")))
    assert prob(assignment, conj) == 0
    assert not approx_models(assignment, goals[zero_j - 1])
    return assignment, zero_j
