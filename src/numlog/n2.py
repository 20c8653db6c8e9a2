"""Tooling for the relational fragment: the shrink construction that turns
any model into a small one, its size bound, and a bounded exhaustive model
finder for tiny instances.

The shrink keeps, within each 1-type cell, every designated witness of an
outer "at least" sentence plus padding up to min(cell size, C*|Phi|+1), then
reinterprets each verb so every kept element sees min(original successor
count, C*|Phi|+1) successors per cell.  The output always model-checks the
input sentences and is at most L*(C*|Phi|+1) elements for L = 2^l.

The finder's cells are the live 1-types under the `<=0` unary sentences,
from the one walk `logic.live_signatures`; `refutation` decides the sets
that need no candidate.  Each candidate is decided on counts alone: a unary
sentence sums its cell sizes, and a verb sentence counts the subjects whose
successor tally into the object's cells meets its inner bound.  Explicit
elements and edges are built only for the model it returns.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import accumulate, product

from .errors import BudgetExhaustedError, InputError
from .logic import (AT_LEAST, AT_MOST, CellStructure, CountingAtom,
                    FiniteStructure, RelationalAtom, UnaryAtom, _compare,
                    atom_formula, evaluate, live_signatures, satisfiers,
                    structure)


def _check_atoms(phi) -> list[CountingAtom]:
    atoms = list(phi)
    for a in atoms:
        if not isinstance(a, (UnaryAtom, RelationalAtom)):
            raise InputError(f"not a counting atom: {a!r}")
    return atoms


def _unary_preds(atoms) -> list[str]:
    preds: set[str] = set()
    for a in atoms:
        preds |= a.predicates()
    return sorted(preds)


def _binary_preds(atoms) -> list[str]:
    return sorted({a.verb for a in atoms if isinstance(a, RelationalAtom)})


def _max_bound(atoms) -> int:
    bounds = [0]
    for a in atoms:
        bounds.append(a.bound)
        if isinstance(a, RelationalAtom):
            bounds.append(a.inner_bound)
    return max(bounds)


def size_bound(phi) -> int:
    """L * (C*|Phi| + 1): a satisfiable set has a model no larger than this."""
    atoms = _check_atoms(phi)
    l = len(_unary_preds(atoms))
    return (1 << l) * (_max_bound(atoms) * len(atoms) + 1)


@dataclass(frozen=True)
class ShrinkReport:
    input_size: int
    structure: FiniteStructure | CellStructure
    kept_per_cell: dict[int, int]
    cell_cap: int
    witnesses: frozenset[int] = frozenset()      # original indices
    kept_elements: tuple[int, ...] = ()          # original indices, ascending


def shrink_model(s: FiniteStructure | CellStructure, phi) -> ShrinkReport:
    """Shrink a model of phi to at most L*(C*|Phi|+1) elements, preserving
    truth of every sentence in phi.

    Kept elements per cell and kept successors are chosen by ascending index
    (any choice works; this one makes outputs canonical).  A CellStructure
    shrinks to a CellStructure without listing any element (see
    `_shrink_cells`).  Raises InputError when s is not a model of phi, and
    UnknownPredicateError for a verb sentence on a CellStructure.
    """
    atoms = _check_atoms(phi)
    for a in atoms:
        if not evaluate(s, a):
            raise InputError(f"input structure is not a model of {a}")
    preds = _unary_preds(atoms)
    verbs = _binary_preds(atoms)
    cap = _max_bound(atoms) * len(atoms) + 1
    if isinstance(s, CellStructure):
        return _shrink_cells(s, atoms, preds, cap)

    # Designated witnesses of outer "at least" sentences.
    a_phi: set[int] = set()
    for a in atoms:
        if a.direction == AT_LEAST and a.bound > 0:
            a_phi.update(sorted(satisfiers(s, a))[:a.bound])

    cell_of = [0] * s.domain_size  # 1-types, one pass per extension
    for i, p in enumerate(preds):
        for e in s.unary_ext(p):
            cell_of[e] |= 1 << i
    cells: dict[int, list[int]] = {}
    for e, mask in enumerate(cell_of):
        cells.setdefault(mask, []).append(e)

    kept: list[int] = []
    kept_per_cell: dict[int, int] = {}
    for mask in sorted(cells):
        members = cells[mask]
        want = min(len(members), cap)
        chosen = sorted(m for m in members if m in a_phi)
        for e in members:
            if len(chosen) >= want:
                break
            if e not in a_phi:
                chosen.append(e)
        chosen = sorted(chosen)
        assert len(chosen) == want
        kept.extend(chosen)
        kept_per_cell[mask] = want
    kept = sorted(kept)
    new_index = {e: i for i, e in enumerate(kept)}
    kept_cells = {mask: [e for e in cells[mask] if e in new_index]
                  for mask in cells}

    unary = {p: {new_index[e] for e in sorted(s.unary_ext(p)) if e in new_index}
             for p in s.unary}
    binary: dict[str, set[tuple[int, int]]] = {}
    for r in verbs:
        # each kept element's successor tally per cell, from one edge pass
        tally = Counter((a, cell_of[b]) for a, b in s.binary_ext(r)
                        if a in new_index)
        binary[r] = {(new_index[e], new_index[b])
                     for (e, mask), orig in tally.items()
                     for b in kept_cells[mask][:min(orig, cap)]}
    for r in s.binary:
        binary.setdefault(r, {(new_index[a], new_index[b])
                              for a, b in s.binary_ext(r)
                              if a in new_index and b in new_index})

    out = structure(len(kept), unary, binary)
    for a in atoms:
        assert evaluate(out, a), f"shrunk structure lost {a}"
    assert out.domain_size <= size_bound(atoms)
    assert a_phi <= set(kept), "a designated witness was dropped"
    return ShrinkReport(s.domain_size, out, kept_per_cell, cap,
                        frozenset(a_phi), tuple(kept))


def _shrink_cells(s: CellStructure, atoms, preds, cap) -> ShrinkReport:
    """The shrink of a cell model, as cells.  The cells are grouped by their
    mask over `preds`, and each group keeps its first min(size, cap)
    elements in cell order.  The explicit shrink keeps the same elements:
    a sentence's designated witnesses in a group are a prefix of it, fewer
    than cap.  So the result expands to the explicit shrink of
    `s.expand()`.  Its witnesses and kept elements are not listed."""
    bits = [s.index[p] for p in preds]
    left: dict[int, int] = {}  # elements each group may still keep
    cells = []
    for mask, count in s.cells:
        group = sum(1 << i for i, b in enumerate(bits) if mask >> b & 1)
        keep = min(count, left.setdefault(group, cap))
        left[group] -= keep
        cells.append((mask, keep))
    out = CellStructure(s.preds, tuple(cells))
    for a in atoms:
        assert evaluate(out, a), f"shrunk structure lost {a}"
    assert out.domain_size <= size_bound(atoms)
    return ShrinkReport(s.domain_size, out,
                        {g: cap - r for g, r in sorted(left.items())}, cap)


# ---------------------------------------------------------------------------
# Bounded exhaustive search
# ---------------------------------------------------------------------------

def _compositions(total: int, parts: int):
    """All tuples of `parts` naturals summing to `total`, lexicographic.

    Iterative, so any number of parts works: each step takes the last
    nonzero entry v, zeroes it, adds 1 to the entry before it and puts
    v - 1 in the last entry.
    """
    comp = [0] * (parts - 1) + [total]
    last = parts - 1 if total else 0  # index of the last nonzero entry
    while True:
        yield tuple(comp)
        if last == 0:
            return
        v = comp[last]
        comp[last] = 0
        comp[last - 1] += 1
        comp[-1] = v - 1
        last = parts - 1 if v > 1 else last - 1


def refutation(atoms) -> tuple[str | None, tuple[str, ...], list, list]:
    """Why `atoms` have no model, as one line decided before any candidate
    of `bounded_search`, or None; with its predicates, live 1-types (masks
    on which no `<=0` unary atom holds, ascending, with their signatures
    over the rows, the other unary atoms) and rows.  No model exists when
    an atom is constant false, when no 1-type is live, or when an atom's
    count is 0 on every candidate and 0 fails its bound: no live 1-type
    satisfies its body or has its subject, or none has its object and its
    inner bound fails at 0.  Raises BudgetExhaustedError past 16 predicates
    unless an atom is constant false."""
    preds = tuple(_unary_preds(atoms))
    for a in atoms:
        if a.is_trivially_false:
            return f"false in every structure: {a}", preds, [], []
    if len(preds) > 16:
        raise BudgetExhaustedError(
            "too many unary predicates for exhaustive search")
    unary = [a for a in atoms if isinstance(a, UnaryAtom)]
    kills = [a for a in unary if a.direction == AT_MOST and a.bound == 0]
    rows = [a for a in unary if a not in kills]
    live = sorted(live_signatures(preds, [atom_formula(a).body for a in kills],
                                  [atom_formula(a).body for a in rows]))
    if not live:
        return "every 1-type is excluded by a <=0 sentence", preds, live, rows
    met = seen = 0  # bits of the rows and predicates some live 1-type has
    for mask, sig in live:
        met, seen = met | sig, seen | mask
    for a in atoms:  # is its count 0 on every candidate, and 0 too few?
        if not _compare(0, a.direction, a.bound) and (
                not met >> rows.index(a) & 1 if isinstance(a, UnaryAtom)
                else not seen >> preds.index(a.subject) & 1
                or not seen >> preds.index(a.obj) & 1
                and not _compare(0, a.inner_direction, a.inner_bound)):
            return (f"false in every model of the <=0 sentences: {a}",
                    preds, live, rows)
    return None, preds, live, rows


def bounded_search(phi, domain_cap: int, *, budget: int = 200_000
                   ) -> FiniteStructure | None:
    """Exhaustive model search up to domain_cap; None when no model exists
    within the cap.

    Complete for this fragment when domain_cap >= size_bound(phi), since the
    fragment has the finite model property with that bound.  `refutation`
    may decide None first; else candidates range over its live 1-types,
    canonical under cell-respecting permutations: a cardinality vector,
    then a multiset of per-element successor-count profiles per 1-type,
    tracking only counts into 1-types some object predicate can see.  A
    candidate is decided on counts: a row sums the vector over the 1-types
    its signature bit marks, and `_search_binary` tallies profiles.  Only
    the model returned is expanded, on ascending indices, and model-checked
    on every atom.  Raises BudgetExhaustedError when the budget runs out or
    past 16 predicates, which is distinct from "no model up to the cap".
    """
    atoms = _check_atoms(phi)
    why, preds, live, rows = refutation(atoms)
    if why is not None:
        return None
    masks = [mask for mask, _ in live]
    relational = [a for a in atoms if isinstance(a, RelationalAtom)]
    # each row with the positions of the live 1-types that satisfy it
    unary = [([k for k, (_, sig) in enumerate(live) if sig >> i & 1], a)
             for i, a in enumerate(rows)]
    # positions some object predicate of each verb can see
    relevant = {r: [k for k, m in enumerate(masks)
                    if any(m >> preds.index(a.obj) & 1
                           for a in relational if a.verb == r)]
                for r in _binary_preds(atoms)}
    spent = 0
    for n in range(1, domain_cap + 1):
        for alpha in _compositions(n, len(masks)):
            spent += 1
            if spent > budget:
                raise BudgetExhaustedError("bounded_search budget exhausted")
            if not all(_compare(sum(alpha[k] for k in ks), a.direction, a.bound)
                       for ks, a in unary):
                continue
            if relational:
                found, spent = _search_binary(relational, preds, masks,
                                              relevant, alpha, budget, spent)
            else:
                found = CellStructure(preds, tuple(zip(masks, alpha))).expand()
            if found is not None:
                for a in atoms:
                    if not evaluate(found, a):
                        raise AssertionError(f"search model fails {a}")
                return found
    return None


def _search_binary(relational, preds, masks, relevant, alpha, budget, spent):
    """Assign each of the `alpha[k]` elements of each live 1-type `masks[k]`
    a successor-count profile per verb, up to permutations inside the
    1-type.  The rows already hold on `alpha`, so a candidate is checked on
    counts, on the relational atoms alone: each counts the elements of its
    subject 1-types whose profile's tally into its object's 1-types meets
    the inner bound.  Only the candidate that passes is materialized."""
    starts = list(accumulate(alpha, initial=0))
    # combined profile: one count per (verb, relevant position)
    axes = [(r, k) for r in relevant for k in relevant[r]]
    profiles = list(product(*(range(alpha[k] + 1) for _, k in axes)))
    # per atom: its subject positions and the profiles that meet its inner bound
    checks = []
    for a in relational:
        into = [j for j, (r, k) in enumerate(axes)
                if r == a.verb and masks[k] >> preds.index(a.obj) & 1]
        hits = [i for i, prof in enumerate(profiles)
                if _compare(sum(prof[j] for j in into), a.inner_direction,
                            a.inner_bound)]
        subject = preds.index(a.subject)
        checks.append(({k for k, m in enumerate(masks) if m >> subject & 1},
                       hits, a))

    def passes(per_cell):
        return all(_compare(sum(split[i] for k, split in per_cell.items()
                                if k in subjects for i in hits),
                            a.direction, a.bound)
                   for subjects, hits, a in checks)

    def materialize(per_cell):
        binary = {r: set() for r in relevant}
        for cell, profile_counts in per_cell.items():
            next_elem = starts[cell]
            for profile, times in zip(profiles, profile_counts):
                for _ in range(times):
                    e = next_elem
                    next_elem += 1
                    for (r, k), cnt in zip(axes, profile):
                        for b in range(starts[k], starts[k] + cnt):
                            binary[r].add((e, b))
        base = CellStructure(preds, tuple(zip(masks, alpha))).expand()
        return structure(base.domain_size, dict(base.unary), binary)

    occupied = [k for k, n in enumerate(alpha) if n > 0]

    def assign(idx: int, per_cell: dict):
        nonlocal spent
        if idx == len(occupied):
            spent += 1
            if spent > budget:
                raise BudgetExhaustedError("bounded_search budget exhausted")
            return materialize(per_cell) if passes(per_cell) else None
        cell = occupied[idx]
        for split in _compositions(alpha[cell], len(profiles)):
            per_cell[cell] = split
            got = assign(idx + 1, per_cell)
            if got is not None:
                return got
        per_cell.pop(cell, None)
        return None

    return assign(0, {}), spent
