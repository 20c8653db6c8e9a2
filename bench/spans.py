"""Span recorder for the benchmark's traced run.

Spans are recorded from the benchmark's own files: `instrument` rebinds the
module attribute through which each caller looks a public numlog function up
(for example `c1.build_system`, which `c1.decide_sat` resolves at call time)
to a wrapper that opens a span, calls the original and closes the span.  No
file under src/numlog is touched, and `instrument` restores every attribute
on exit.  Counts are derived from the wrapped calls' arguments and return
values, so they repeat exactly from run to run.
"""

from __future__ import annotations

import functools
import json
import time
from collections import Counter
from contextlib import contextmanager


class Tracer:
    """In-memory spans: [name, start_ns, end_ns, parent index, query id]."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.query: str | None = None
        self.paused = False
        self._stack: list[int] = []

    def begin(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter_ns(), 0, parent, self.query])
        self._stack.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def end(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter_ns()
        if self._stack.pop() != idx:
            raise RuntimeError("spans closed out of order")

    def self_times_ns(self) -> list[int]:
        """Per span: its duration minus the union of its children's
        intervals (children that overlap or leave the parent are not
        trusted to be disjoint, so the union is taken explicitly)."""
        children: dict[int, list[tuple[int, int]]] = {}
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                children.setdefault(parent, []).append((start, end))
        out = []
        for idx, (_, start, end, _, _) in enumerate(self.spans):
            covered, reach = 0, start
            for c_start, c_end in sorted(children.get(idx, ())):
                c_start, c_end = max(c_start, reach), min(c_end, end)
                if c_end > c_start:
                    covered += c_end - c_start
                    reach = c_end
            out.append(end - start - covered)
        return out

    def self_time_mismatches(self) -> list[str]:
        """Queries whose spans' self times do not add up to the duration of
        the query's root span."""
        self_ns = self.self_times_ns()
        total: Counter = Counter()
        root: dict[str, int] = {}
        for idx, (_, start, end, parent, query) in enumerate(self.spans):
            total[query] += self_ns[idx]
            if parent < 0:
                root[query] = root.get(query, 0) + end - start
        return [f"{q}: spans sum to {total[q]} ns, query took {root.get(q)} ns"
                for q in total if total[q] != root.get(q)]

    def layer_totals(self) -> tuple[Counter, Counter]:
        """Calls and self seconds per span name."""
        calls: Counter = Counter()
        self_s: Counter = Counter()
        for (name, *_), ns in zip(self.spans, self.self_times_ns()):
            calls[name] += 1
            self_s[name] += ns / 1e9
        return calls, self_s

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, query in self.spans:
                fh.write(json.dumps({"name": name, "start_ns": start,
                                     "end_ns": end, "parent": parent,
                                     "query": query}) + "\n")


# ---------------------------------------------------------------------------
# Counts taken from arguments and return values
# ---------------------------------------------------------------------------

def _count_ilp(counts, args, kwargs, result, exc):
    system = args[0]
    counts["linsys.ilp.rows"] += system.m
    counts["linsys.ilp.columns"] += system.num_vars
    counts["linsys.ilp.sat"] += result is not None


def _count_build(counts, args, kwargs, result, exc):
    if result is not None:
        counts["c1.build.live_columns"] += len(result.live_types)
        counts["c1.build.rows"] += result.system.m if result.system else 0


def _count_normalize(counts, args, kwargs, result, exc):
    if result is not None:
        counts["c1.normalize.branches"] += len(result)


def _count_decide(counts, args, kwargs, result, exc):
    if result is not None and result.witness is not None:
        counts["c1.witness_elements"] += result.witness.domain_size


def _count_saturate(counts, args, kwargs, result, exc):
    # every bound improvement leaves one provenance entry; axioms seed them
    if result is not None:
        counts["proofs.saturate.updates"] += sum(
            1 for prov in (result.prov_lower, result.prov_upper)
            for entries in prov.values() for _, just in entries
            if just[0] != "axiom")


def _derivation_nodes(d) -> int:
    return 1 + sum(_derivation_nodes(c) for c in d.children)


def _count_derive(counts, args, kwargs, result, exc):
    if result is not None and result.derivation is not None:
        counts["proofs.derivation_nodes"] += _derivation_nodes(result.derivation)


def _count_psat(counts, args, kwargs, result, exc):
    if result is not None:
        counts["psat.support_worlds"] += len(result.worlds)


def _count_search(counts, args, kwargs, result, exc):
    counts["n2.search.budget_out"] += type(exc).__name__ == "BudgetExhaustedError"


def targets(mods) -> list[tuple]:
    """(module, attribute, span name, counter) for every rebound call site.

    The attribute is the name the caller resolves at call time: `cli` calls
    `c1.decide_sat` and `proofs.derives` through those modules, `decide_sat`
    finds `build_system`, `ilp_solve` and `evaluate` among c1's globals,
    and `cmd_check` imports `logic.evaluate` when it runs.
    """
    c1, cli, logic, n2, proofs, psat, reductions = (
        mods.c1, mods.cli, mods.logic, mods.n2, mods.proofs, mods.psat,
        mods.reductions)
    return [
        (cli, "main", "cli", None),
        (cli, "parse_argument", "parsing", None),
        (cli, "parse_lexicon", "parsing", None),
        (cli, "render_symbolic", "parsing", None),
        (cli, "render_argument_symbolic", "parsing", None),
        (cli, "parse_structure", "logic.structure_io", None),
        (cli, "render_structure", "logic.structure_io", None),
        (c1, "entails", "c1.entails", None),
        (c1, "decide_sat", "c1.decide", _count_decide),
        (c1, "normalize", "c1.normalize", _count_normalize),
        (c1, "build_system", "c1.build", _count_build),
        (c1, "ilp_solve", "linsys.ilp", _count_ilp),
        (c1, "sparsify_natural", "linsys.sparsify", None),
        (c1, "evaluate", "logic.evaluate", None),
        (n2, "evaluate", "logic.evaluate", None),
        (logic, "evaluate", "logic.evaluate", None),
        (n2, "bounded_search", "n2.search", _count_search),
        (proofs, "incompleteness_instance", "proofs.instance", None),
        (proofs, "saturate", "proofs.saturate", _count_saturate),
        (proofs, "derives", "proofs.derive", _count_derive),
        (proofs, "check_derivation", "proofs.check", None),
        (psat, "psat_decide", "psat.decide", _count_psat),
        (psat, "counterexample_assignment", "psat.certificate", None),
        (psat, "lp_feasible", "linsys.lp", None),
        (psat, "sparsify_rational", "linsys.sparsify", None),
        (reductions, "encode_3col", "reductions.encode", None),
        (reductions, "encode_tiling", "reductions.encode", None),
    ]


def _wrap(tracer: Tracer, fn, name: str, counter):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        if tracer.paused:
            return fn(*args, **kwargs)
        idx = tracer.begin(name)
        result = exc = None
        try:
            result = fn(*args, **kwargs)
            return result
        except Exception as err:
            exc = err
            raise
        finally:
            tracer.end(idx)
            if counter is not None:
                counter(tracer.counts, args, kwargs, result, exc)
    return traced


@contextmanager
def instrument(tracer: Tracer, mods):
    """Rebind every target to a traced wrapper; restore them on exit."""
    saved = []
    try:
        for module, attr, name, counter in targets(mods):
            original = getattr(module, attr)
            saved.append((module, attr, original))
            setattr(module, attr, _wrap(tracer, original, name, counter))
        yield tracer
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)
