"""numlog benchmark: one seeded, single-process, closed-loop workload per run.

    python3 bench/run.py --workload incompleteness|colouring|cli_mix \
        --seed N --seconds S --trace 0|1 [--budget B]

Run from the repository root; the package is imported from ./src.  One
client sends one query at a time.  A run executes whole rounds of the
workload's queries and stops at the round boundary nearest to S seconds of
summed query time (at least one round), so every run sees the same mix of
queries.

Every time is reported at the speed of a reference host: each query's
wall-clock time is divided by how much slower than that host a fixed piece
of pure-Python work ran just before and just after it (see host_factor),
because the cores this runs on are shared and their speed drifts.  The
wall-clock figures are printed too, on the line before the metrics.

--trace 0 prints the end-to-end metrics; --trace 1 runs a fixed number of
rounds twice, untraced and then with every layer call recorded as a span,
and prints the per-layer metrics (counts repeat exactly).  Every verdict is
checked against an independent reference; a wrong verdict, a witness that
fails its re-check or a traced query whose span self times do not add up
makes the run exit 1.  The last stdout line is a JSON object with the keys
correct, attempted, failed and metrics.  See bench/METRICS.md.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import resource
import shutil
import signal
import statistics
import sys
import time
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

sys.path.insert(0, str(Path(__file__).resolve().parent))

from spans import Tracer, instrument  # noqa: E402
from workloads import (OK, WRONG, CliMix, Colouring, Incompleteness,  # noqa: E402
                       Raised)

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RUN_DIR = ROOT / ".bench_run"
MODULES = ("c1", "cli", "errors", "linsys", "logic", "n2", "parsing",
           "proofs", "psat", "reductions")
SETUP_REPEATS = 9
TAIL_BEYOND = 10
# Time of one `reference_work()` on the reference host (2.1 GHz Xeon VM,
# Python 3.11.7) when it runs at full speed; see measure().
REFERENCE_NS = 880_000
# The host factor is measured for 3 ms before and after each timed call,
# and sampled every 50 ms while it runs.
WINDOW_NS = 3_000_000
PROBE_S = 0.05
# A run on a very slow host stops at the first round boundary after this
# many times --seconds of wall-clock time, calibration and checks included.
WALL_CAP = 2

END_TO_END = [("setup_s", "s"), ("queries_per_s", "1/s"),
              ("latency_p50_ms", "ms"), ("latency_tail_ms", "ms"),
              ("answered_ratio", "ratio"), ("peak_rss_mb", "MB"),
              ("evidence_bytes", "bytes")]

PER_LAYER = [
    ("linsys.ilp.calls", "count"), ("linsys.ilp.self_s", "s"),
    ("linsys.ilp.sat", "count"), ("linsys.ilp.rows", "count"),
    ("linsys.ilp.columns", "count"),
    ("c1.build.calls", "count"), ("c1.build.self_s", "s"),
    ("c1.build.live_columns", "count"), ("c1.build.rows", "count"),
    ("c1.normalize.self_s", "s"), ("c1.normalize.branches", "count"),
    ("proofs.saturate.calls", "count"), ("proofs.saturate.self_s", "s"),
    ("proofs.saturate.updates", "count"), ("proofs.derive.self_s", "s"),
    ("proofs.check.self_s", "s"), ("proofs.derivation_nodes", "count"),
    ("c1.decide.self_s", "s"), ("c1.witness_elements", "count"),
    ("logic.evaluate.calls", "count"), ("logic.evaluate.self_s", "s"),
    ("logic.structure_io.self_s", "s"),
    ("psat.decide.calls", "count"), ("psat.decide.self_s", "s"),
    ("psat.support_worlds", "count"), ("linsys.lp.calls", "count"),
    ("linsys.lp.self_s", "s"), ("linsys.sparsify.self_s", "s"),
    ("psat.certificate.self_s", "s"),
    ("n2.search.calls", "count"), ("n2.search.self_s", "s"),
    ("n2.search.budget_out", "count"),
    ("parsing.calls", "count"), ("parsing.self_s", "s"),
    ("cli.calls", "count"), ("cli.self_s", "s"),
    ("reductions.encode.self_s", "s"),
    ("trace.overhead_s", "s"),
]


def make_workload(name: str, tiny: bool, budget: int):
    if name == "incompleteness":
        return Incompleteness(tiny)
    if name == "colouring":
        return Colouring(tiny)
    if name == "cli_mix":
        return CliMix(tiny, budget)
    raise ValueError(f"unknown workload {name!r}")


def import_numlog() -> SimpleNamespace:
    """A fresh import of the package from ./src (earlier imports dropped)."""
    if sys.path[0] != str(SRC):
        sys.path.insert(0, str(SRC))
    for name in [n for n in sys.modules if n == "numlog" or n.startswith("numlog.")]:
        del sys.modules[name]
    pkg = importlib.import_module("numlog")
    if Path(pkg.__file__).resolve().parent != (SRC / "numlog").resolve():
        raise RuntimeError(f"numlog was imported from {pkg.__file__}, not {SRC}")
    return SimpleNamespace(**{m: importlib.import_module(f"numlog.{m}")
                              for m in MODULES})


def reference_work() -> int:
    """A fixed piece of pure-Python work (integer arithmetic, dict updates,
    Fraction sums) that uses no numlog code."""
    table: dict[int, int] = {}
    total, frac = 0, Fraction(0)
    for i in range(4200):
        table[i % 97] = table.get(i % 97, 0) + i
        total += (i * 31) % 17
        if i % 50 == 0:
            frac += Fraction(i, 7)
    return total + frac.numerator


def host_factor(min_ns: float) -> float:
    """How much slower than the reference host this process runs right
    now: the mean time of `reference_work()`, repeated for at least
    `min_ns`, over REFERENCE_NS."""
    count, start = 0, time.perf_counter_ns()
    while True:
        reference_work()
        count += 1
        elapsed = time.perf_counter_ns() - start
        if elapsed >= min_ns:
            return elapsed / count / REFERENCE_NS


def measure(fn):
    """Call fn() and return (its result, wall-clock ns, ns at the reference
    host speed, host factor).

    The benchmark shares its cores with other machines' work, which can
    slow it to half speed, for stretches from a fraction of a second to
    minutes.  So the host factor is measured in a window just before and
    just after the call, and sampled every PROBE_S while it runs: a SIGALRM
    handler in this thread runs `reference_work()` once between two
    bytecodes of the call.  The call's time, less the time of those
    samples, divided by the mean of all factors, is its time on the
    reference host.  Samples taken inside the call follow drift that the
    windows at its ends miss."""
    before = host_factor(WINDOW_NS)
    probes = []                    # (start ns, end ns) of each sample

    def probe(signum, frame):
        start = time.perf_counter_ns()
        reference_work()
        probes.append((start, time.perf_counter_ns()))

    previous = signal.signal(signal.SIGALRM, probe)
    signal.setitimer(signal.ITIMER_REAL, PROBE_S, PROBE_S)
    t0 = time.perf_counter_ns()
    try:
        out = fn()
    finally:
        t1 = time.perf_counter_ns()
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    after = host_factor(WINDOW_NS)
    wall = t1 - t0 - sum(max(0, min(end, t1) - max(start, t0))
                         for start, end in probes)
    factors = [before, after] + [(end - start) / REFERENCE_NS
                                 for start, end in probes]
    factor = sum(factors) / len(factors)
    return out, wall, wall / factor, factor


def call(query, tracer):
    """One query; an exception it raises is returned, to be judged."""
    if tracer is not None:
        span = tracer.begin("query")
    try:
        return query.call()
    except Exception as err:
        return Raised(err)
    finally:
        if tracer is not None:
            tracer.end(span)


def run_rounds(rounds, seconds=None, count=None, tracer=None):
    """Closed loop over whole rounds, cycling through them: `count` rounds,
    or until the round boundary nearest to `seconds` of query time at the
    reference host speed (or WALL_CAP times `seconds` of wall-clock time).

    Each query starts on a collected heap, as a query in a fresh process
    would, so garbage left by earlier queries does not bill later ones.
    Each outcome is judged as soon as its query returns, outside the timed
    call, so the loop keeps no results alive; the tracer is paused while it
    judges.  Returns the samples (query id, wall-clock latency ns, latency
    ns at the reference speed, judgement) and the median host factor."""
    samples = []
    factors = []
    host_factor(100 * WINDOW_NS)   # warm-up
    done = busy = 0
    start = time.perf_counter()
    while True:
        for query in rounds[done % len(rounds)]:
            gc.collect()
            if tracer is not None:
                tracer.query = f"{done}:{query.qid}"
            out, latency, scaled, factor = measure(
                lambda: call(query, tracer))
            factors.append(factor)
            if tracer is not None:
                tracer.paused = True
            samples.append((query.qid, latency, scaled, query.judge(out)))
            if tracer is not None:
                tracer.paused = False
            busy += scaled
        done += 1
        if count is not None:
            if done >= count:
                break
        elif (busy + busy / done / 2 >= seconds * 1e9
              or time.perf_counter() - start >= WALL_CAP * seconds):
            break
    return samples, statistics.median(factors)


def tally(samples):
    """(ok count, wrong count, evidence bytes, notes on the others)."""
    ok = wrong = evidence = 0
    notes = []
    for qid, _, _, (status, size, note) in samples:
        evidence += size
        ok += status == OK
        if status == WRONG:
            wrong += 1
            notes.append(f"{qid}: {note}")
        elif status != OK:
            notes.append(f"{qid}: unanswered ({note})")
    return ok, wrong, evidence, notes


def tail(latencies_ns):
    """The highest percentile with at least TAIL_BEYOND samples beyond it:
    (value ms, percentile, sample count).  Short runs fall back to the
    maximum."""
    ordered = sorted(latencies_ns)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1] / 1e6, 100.0, n
    return ordered[n - TAIL_BEYOND - 1] / 1e6, 100.0 * (n - TAIL_BEYOND) / n, n


def busy_s(samples, scaled=True) -> float:
    """Summed query time in seconds, at the reference speed or wall-clock."""
    return sum(s[2] if scaled else s[1] for s in samples) / 1e9


def end_to_end(samples, setup_times, evidence, ok):
    latencies = [scaled for _, _, scaled, _ in samples]
    tail_ms, tail_pct, n = tail(latencies)
    print(f"latency_tail_ms is p{tail_pct:.1f} of {n} samples")
    return {
        "setup_s": statistics.median(setup_times),
        "queries_per_s": n / busy_s(samples),
        "latency_p50_ms": statistics.median(latencies) / 1e6,
        "latency_tail_ms": tail_ms,
        "answered_ratio": ok / n,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "evidence_bytes": evidence / n,
    }


def per_layer(tracer: Tracer, overhead: float):
    calls, self_s = tracer.layer_totals()
    values = {"trace.overhead_s": overhead}
    for name, _ in PER_LAYER:
        if name in values:
            continue
        if name.endswith(".calls"):
            values[name] = calls[name[:-len(".calls")]]
        elif name.endswith(".self_s"):
            values[name] = self_s[name[:-len(".self_s")]]
        else:
            values[name] = tracer.counts[name]
    return values


def set_up(workload, seed, out_dir):
    """A fresh import of numlog and the workload's inputs made through it."""
    mods = import_numlog()
    return mods, workload.generate(mods, seed, out_dir)


def run(workload, seed, seconds, trace) -> dict:
    """One benchmark run; returns the result object printed last."""
    out_dir = RUN_DIR / workload.name
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)
    setup_times, setup_wall = [], []
    for _ in range(SETUP_REPEATS):
        (mods, inputs), wall, scaled, _ = measure(lambda: set_up(workload, seed, out_dir))
        setup_wall.append(wall / 1e9)
        setup_times.append(scaled / 1e9)
    prepared = workload.prepare(mods, inputs)
    # The inputs and references live for the whole run; freezing them keeps
    # the collections a query triggers as cheap as in a fresh process.
    gc.collect()
    gc.freeze()

    if not trace:
        samples, factor = run_rounds(prepared.rounds, seconds=seconds)
        ok, wrong, evidence, notes = tally(samples)
        metrics = end_to_end(samples, setup_times, evidence, ok)
        units = dict(END_TO_END)
        wall = sorted(lat for _, lat, _, _ in samples)
        print(f"wall clock: host factor {factor:.3f} (median), setup "
              f"{statistics.median(setup_wall):.4g} s, "
              f"{len(wall) / busy_s(samples, scaled=False):.4g} queries/s, "
              f"p50 {statistics.median(wall) / 1e6:.4g} ms, "
              f"tail {tail(wall)[0]:.4g} ms")
    else:
        count = prepared.trace_rounds
        plain, _ = run_rounds(prepared.rounds, count=count)
        tracer = Tracer()
        with instrument(tracer, mods):
            tracer.query = "setup"
            span = tracer.begin("setup")
            workload.generate(mods, seed, out_dir)
            tracer.end(span)
            traced, _ = run_rounds(prepared.rounds, count=count, tracer=tracer)
        tracer.write(out_dir / "spans.jsonl")
        samples = plain + traced
        ok, wrong, evidence, notes = tally(samples)
        mismatches = tracer.self_time_mismatches()
        wrong += len(mismatches)
        notes += mismatches
        print(f"traced {len(traced)} queries; spans in {out_dir / 'spans.jsonl'}")
        metrics = per_layer(tracer, busy_s(traced) - busy_s(plain))
        units = dict(PER_LAYER)

    for note in notes:
        print(note, file=sys.stderr)
    for name, value in metrics.items():
        print(f"{workload.name} {name} {value:.6g} {units[name]}")
    return {"correct": wrong == 0, "attempted": len(samples), "failed": wrong,
            "metrics": {name: {"value": value, "unit": units[name]}
                        for name, value in metrics.items()}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["incompleteness", "colouring", "cli_mix"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], required=True)
    parser.add_argument("--budget", type=int, default=20_000,
                        help="--budget of every cli_mix request")
    args = parser.parse_args(argv)
    if not (SRC / "numlog" / "__init__.py").is_file():
        print(f"no numlog package under {SRC}", file=sys.stderr)
        return 2
    result = run(make_workload(args.workload, False, args.budget), args.seed,
                 args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
