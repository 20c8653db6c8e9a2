"""Tooling for the relational fragment: the shrink construction that turns
any model into a small one, its size bound, and a bounded exhaustive model
finder for tiny instances.

The shrink keeps, within each 1-type cell, every designated witness of an
outer "at least" sentence plus padding up to min(cell size, C*|Phi|+1), then
reinterprets each verb so every kept element sees min(original successor
count, C*|Phi|+1) successors per cell.  The output always model-checks the
input sentences and is at most L*(C*|Phi|+1) elements for L = 2^l.

The finder decides every candidate on counts alone: a unary sentence sums
the candidate's cell sizes, and a verb sentence counts the subjects whose
successor tally into the object's cells meets its inner bound.  Explicit
elements and edges are built only for the model it returns.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import accumulate, product

from .errors import BudgetExhaustedError, CapExceededError, InputError
from .logic import (AT_LEAST, CellStructure, CountingAtom, FiniteStructure,
                    RelationalAtom, UnaryAtom, _compare, evaluate,
                    satisfiers, structure)


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


def bounded_search(phi, domain_cap: int, *, budget: int = 200_000
                   ) -> FiniteStructure | None:
    """Exhaustive model search up to domain_cap; None when no model exists
    within the cap.

    Complete for this fragment when domain_cap >= size_bound(phi), since the
    fragment has the finite model property with that bound.  Candidates are
    canonical under cell-respecting permutations: a cell cardinality vector
    first, then a multiset of per-element successor-count profiles per cell.
    Profiles only track counts into cells some object predicate can see -
    the semantics inspects nothing else - and are materialized on ascending
    indices.  Both layers decide a candidate by arithmetic on counts: a
    unary atom sums the vector over the cells where its two literals hold,
    and `_search_binary` tallies profiles.  Only the model returned is
    expanded into elements and edges, and it is model-checked on every
    atom.  Raises BudgetExhaustedError when the budget runs out, which is
    distinct from "no model up to the cap".  A constant-false atom (such
    as `<=-1`, the dual of a `>=0` conclusion) gives None before any search.
    """
    atoms = _check_atoms(phi)
    if any(a.is_trivially_false for a in atoms):
        return None
    preds = tuple(_unary_preds(atoms))
    verbs = _binary_preds(atoms)
    relational = [a for a in atoms if isinstance(a, RelationalAtom)]
    l = len(preds)
    if l > 16:
        raise CapExceededError("too many unary predicates for exhaustive search")
    cells = 1 << l
    bits = {p: 1 << i for i, p in enumerate(preds)}
    # each unary atom with the cells where both its literals hold
    unary = [([k for k in range(cells)
               if all(bool(k & bits[x.pred]) == x.positive for x in a.lits)], a)
             for a in atoms if isinstance(a, UnaryAtom)]
    # cells some object predicate of each verb can see
    relevant = {r: [k for k in range(cells)
                    if any(k & bits[a.obj] for a in relational if a.verb == r)]
                for r in verbs}
    spent = 0
    for n in range(1, domain_cap + 1):
        for alpha in _compositions(n, cells):
            spent += 1
            if spent > budget:
                raise BudgetExhaustedError("bounded_search budget exhausted")
            if not all(_compare(sum(alpha[k] for k in ks), a.direction, a.bound)
                       for ks, a in unary):
                continue
            if verbs:
                found, spent = _search_binary(relational, preds, bits,
                                              relevant, alpha, budget, spent)
            else:
                found = CellStructure(preds, tuple(enumerate(alpha))).expand()
            if found is not None:
                for a in atoms:
                    if not evaluate(found, a):
                        raise AssertionError(f"search model fails {a}")
                return found
    return None


def _search_binary(relational, preds, bits, relevant, alpha, budget, spent):
    """Assign each element a successor-count profile per verb, up to
    permutations inside each unary cell.  The unary atoms already hold on
    the cell vector `alpha` over `preds`, so a candidate is checked on the
    relational atoms alone, on counts: a profile fixes its element's tally
    on an atom's verb into the object's cells, so the atom counts the
    elements of its subject cells whose profile meets the inner bound.  Only
    the candidate that passes is materialized, elements and edges both."""
    cells = len(alpha)
    starts = list(accumulate(alpha, initial=0))
    # combined profile: one count per (verb, relevant cell)
    axes = [(r, k) for r in relevant for k in relevant[r]]
    profiles = list(product(*(range(alpha[k] + 1) for _, k in axes)))
    # per atom: its subject cells and the profiles that meet its inner bound
    checks = []
    for a in relational:
        into = [j for j, (r, k) in enumerate(axes)
                if r == a.verb and k & bits[a.obj]]
        hits = [i for i, prof in enumerate(profiles)
                if _compare(sum(prof[j] for j in into), a.inner_direction,
                            a.inner_bound)]
        checks.append(({k for k in range(cells) if k & bits[a.subject]},
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
        base = CellStructure(preds, tuple(enumerate(alpha))).expand()
        return structure(base.domain_size, dict(base.unary), binary)

    occupied = [k for k in range(cells) if alpha[k] > 0]

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
