"""Command-line front end.

Subcommands: solve, derive, generate, psat, check, shrink.  Verdicts that
assert impossibility (Valid, Unsat) cite a certificate file (each refuted
branch's conjuncts under its search cap, or a derivation); verdicts that
assert possibility (Invalid, Sat) cite a witness structure file that
`numlog check` re-validates.

Exit codes: 0 a definite verdict was reached, 2 the budget ran out or
the input passed a size cap (Unknown), 1 bad input, an option value too.
The default search budget comes from the NUMLOG_BUDGET environment
variable when set.  Numeric options and NUMLOG_BUDGET are ASCII decimal
numerals, as in every file format.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from functools import cache
from pathlib import Path
from typing import Callable

from . import c1, n2, proofs, psat, reductions
from .errors import BudgetExhaustedError, InputError, NumlogError, decimal
from .logic import (RelationalAtom, UnaryAtom, negate_atom, parse_structure,
                    render_structure)
from .parsing import (parse_argument, parse_lexicon,
                      render_argument_symbolic, render_symbolic, ArgumentFile)

VALID = "Valid"
INVALID = "Invalid"
SAT = "Sat"
UNSAT = "Unsat"
DERIVABLE = "Derivable"
NOT_DERIVABLE = "NotDerivable"
UNKNOWN = "Unknown"

_DECIDED = {VALID, INVALID, SAT, UNSAT, DERIVABLE, NOT_DERIVABLE,
            "Generated", "Shrunk"}


def _numeral(source: str) -> Callable[[str], int]:
    """The reader of the option or environment variable `source`: a numeral
    of ASCII decimal digits, as in every file format.  Its InputError names
    `source`; argparse lets it through to `main`, which exits 1."""
    def read(raw: str) -> int:
        try:
            return decimal(raw)
        except InputError as exc:
            raise InputError(f"{source}: {exc}") from None
    return read


def _out_dir(args, input_path: Path) -> Path:
    out = Path(args.out) if getattr(args, "out", None) else input_path.parent
    out.mkdir(parents=True, exist_ok=True)
    return out


def _load_argument(path: Path, args) -> ArgumentFile:
    """Parse the argument file at `path` with the lexicon of `args`, if any."""
    text = path.read_text(encoding="utf-8")
    lex = None
    if getattr(args, "lexicon", None):
        lex = parse_lexicon(Path(args.lexicon).read_text(encoding="utf-8"))
    return parse_argument(text, lex)


def _emit(args, command: str, status: str, certificates: list[str],
          detail: dict, started: float) -> int:
    runtime_ms = int((time.time() - started) * 1000)
    code = 0 if status in _DECIDED else 2
    if getattr(args, "json", False):
        print(json.dumps({"command": command, "status": status,
                          "certificates": certificates,
                          "runtime_ms": runtime_ms, "detail": detail,
                          "exit_code": code}))
    else:
        print(f"{status}")
        for c in certificates:
            print(f"certificate: {c}")
        for k, v in detail.items():
            print(f"{k}: {v}")
        print(f"runtime_ms: {runtime_ms}")
    return code


# ---------------------------------------------------------------------------
# solve
# ---------------------------------------------------------------------------

def cmd_solve(args) -> int:
    started = time.time()
    path = Path(args.argument)
    arg = _load_argument(path, args)
    out = _out_dir(args, path)
    budget = args.budget
    # premises plus the negated conclusion: Sat means Invalid, Unsat Valid
    atoms = list(arg.premises)
    if arg.conclusion is not None:
        atoms.append(negate_atom(arg.conclusion))
    detail = {"premises": len(arg.premises),
              "conclusion": render_symbolic(arg.conclusion)
              if arg.conclusion else None}
    if any(isinstance(a, RelationalAtom) for a in atoms):
        cap = n2.size_bound(atoms)
        detail["model_size_bound"] = cap
        try:
            witness = n2.bounded_search(atoms, cap, budget=budget)
        except BudgetExhaustedError as exc:
            return _emit(args, "solve", UNKNOWN, [],
                         {**detail, "note": str(exc)}, started)
        evidence = None if witness is not None else (
            n2.refutation(atoms)[0] or "no model exists up to the "
            f"finite-model bound {cap}; the search was exhaustive") + "\n"
    else:
        res = c1.decide_sat(atoms, max_nodes=budget)
        if res.status == c1.UNKNOWN:
            return _emit(args, "solve", UNKNOWN, [], detail, started)
        witness = res.cells
        evidence = None if witness is not None else c1.render_certificate(res)
    # each definite verdict cites one file: the witness or the certificate
    if witness is not None:
        status = INVALID if arg.conclusion is not None else SAT
        suffix, text = "witness.structure", render_structure(witness)
    else:
        status = VALID if arg.conclusion is not None else UNSAT
        suffix, text = "certificate.txt", evidence
    cpath = out / f"{path.stem}.{suffix}"
    cpath.write_text(text, encoding="utf-8")
    return _emit(args, "solve", status, [str(cpath)], detail, started)


# ---------------------------------------------------------------------------
# derive
# ---------------------------------------------------------------------------

def cmd_derive(args) -> int:
    started = time.time()
    path = Path(args.argument)
    arg = _load_argument(path, args)
    out = _out_dir(args, path)
    if arg.conclusion is None:
        raise NumlogError("derive needs a conclusion after 'Therefore:'")
    for a in arg.premises + (arg.conclusion,):
        if not isinstance(a, UnaryAtom):
            raise NumlogError("the proof calculus handles unary sentences only")
    res = proofs.derives(list(arg.premises), arg.conclusion,
                         max_updates=args.budget)
    detail = {"conclusion": render_symbolic(arg.conclusion)}
    if res.derivable:
        if not proofs.check_derivation(res.derivation, arg.premises):
            raise AssertionError("derivation failed its replay check")
        text = proofs.render_derivation(res.derivation)
        cpath = out / f"{path.stem}.derivation.txt"
        cpath.write_text(text + "\n", encoding="utf-8")
        if args.explain:
            print(text)
        return _emit(args, "derive", DERIVABLE, [str(cpath)], detail, started)
    if not res.complete:
        return _emit(args, "derive", UNKNOWN, [],
                     {**detail, "note": f"saturation budget of {args.budget} "
                      "updates ran out"}, started)
    return _emit(args, "derive", NOT_DERIVABLE, [],
                 {**detail, "note": "saturation reached its fixpoint"}, started)


# ---------------------------------------------------------------------------
# generate
# ---------------------------------------------------------------------------

_NAMED_GRAPHS = {
    "k3": reductions.graph(3, [(1, 2), (1, 3), (2, 3)]),
    "k4": reductions.graph(4, [(i, j) for i in range(1, 5)
                               for j in range(i + 1, 5)]),
    "c5": reductions.graph(5, [(1, 2), (2, 3), (3, 4), (4, 5), (1, 5)]),
}


def _random_graph(n: int, seed: int) -> reductions.Graph:
    import random
    rng = random.Random(seed)
    edges = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)
             if rng.random() < 0.5]
    return reductions.graph(n, edges)


def cmd_generate(args) -> int:
    started = time.time()
    out = Path(args.out or ".")
    written: list[str] = []
    detail: dict = {}

    def save(name: str, text: str) -> Path:
        if not written:  # a refused request leaves no directory behind
            out.mkdir(parents=True, exist_ok=True)
        p = out / name
        p.write_text(text, encoding="utf-8")
        written.append(str(p))
        return p

    if args.kind == "3col":
        if args.graph and args.graph.lower() in _NAMED_GRAPHS:
            g = _NAMED_GRAPHS[args.graph.lower()]
            stem = args.graph.lower()
        elif args.graph:
            g = reductions.parse_graph(Path(args.graph).read_text(encoding="utf-8"))
            stem = Path(args.graph).stem
        else:
            g = _random_graph(args.nodes, args.seed)
            stem = f"rand{args.nodes}s{args.seed}"
        save(f"{stem}.graph", reductions.render_graph(g))
        atoms = reductions.encode_3col(g)
        save(f"{stem}.3col.formulas",
             render_argument_symbolic(ArgumentFile(tuple(atoms))))
        colouring = reductions.brute_3col(g)
        expected = SAT if colouring is not None else UNSAT
        save(f"{stem}.expected.txt",
             f"{expected}\n" + (f"colouring: {colouring}\n" if colouring else ""))
        detail["expected"] = expected
    elif args.kind == "tiling":
        colours = tuple(f"c{i+1}" for i in range(args.colours))
        allpairs = frozenset((a, b) for a in colours for b in colours)
        ts = reductions.TilingSystem(colours, allpairs, allpairs)
        init = args.init.split(",") if args.init else [colours[0]]
        stem = f"tiling_k{args.k}_m{args.colours}"
        atoms = reductions.encode_tiling(ts, init, args.k)  # refuses a big k
        save(f"{stem}.formulas",
             render_argument_symbolic(ArgumentFile(tuple(atoms))))
        tiling = reductions.brute_tiling(ts, 1 << args.k, init)
        if tiling is not None:
            wit = reductions.witness_model(ts, tiling, init, args.k)
            save(f"{stem}.witness.structure", render_structure(wit))
            detail["expected"] = SAT
        else:
            detail["expected"] = UNSAT
        save(f"{stem}.expected.txt", f"{detail['expected']}\n")
    elif args.kind == "incompleteness":
        phi, goals = proofs.incompleteness_instance(args.m)
        stem = f"incompleteness_m{args.m}"
        save(f"{stem}.formulas",
             render_argument_symbolic(ArgumentFile(tuple(phi))))
        save(f"{stem}.goals",
             "\n".join(render_symbolic(g) for g in goals) + "\n")
        _, zero_j = psat.counterexample_assignment(args.m)
        save(f"{stem}.expected.txt",
             "every goal is semantically entailed\n"
             f"goal {zero_j} (t{zero_j}) is not derivable in the calculus\n")
        detail["underivable_goal"] = zero_j
    else:
        raise NumlogError(f"unknown generator kind {args.kind!r}")
    return _emit(args, "generate", "Generated", written, detail, started)


# ---------------------------------------------------------------------------
# psat / check / shrink
# ---------------------------------------------------------------------------

def cmd_psat(args) -> int:
    started = time.time()
    path = Path(args.instance)
    instance = psat.parse_psat_instance(path.read_text(encoding="utf-8"))
    assignment = psat.psat_decide(instance)
    if assignment is None:
        return _emit(args, "psat", UNSAT, [], {}, started)
    out = _out_dir(args, path)
    lines = [f"letters: {', '.join(assignment.letters)}"]
    for world, weight in assignment.worlds:
        lines.append(f"world {{{', '.join(sorted(world))}}}: {weight}")
    cpath = out / f"{path.stem}.assignment.txt"
    cpath.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return _emit(args, "psat", SAT, [str(cpath)],
                 {"worlds": len(assignment.worlds)}, started)


def _load_formulas(args) -> list:
    arg = _load_argument(Path(args.formulas), args)
    atoms = list(arg.premises)
    if arg.conclusion is not None:
        atoms.append(arg.conclusion)
    return atoms


def cmd_check(args) -> int:
    from .logic import evaluate
    s = parse_structure(Path(args.structure).read_text(encoding="utf-8"))
    atoms = _load_formulas(args)
    results = [(render_symbolic(a), evaluate(s, a)) for a in atoms]
    ok = all(v for _, v in results)
    if getattr(args, "json", False):
        print(json.dumps({"command": "check", "all_true": ok,
                          "results": [{"formula": f, "true": v}
                                      for f, v in results]}))
    else:
        for f, v in results:
            print(f"{v}\t{f}")
        print("all true" if ok else "some false")
    return 0


def cmd_shrink(args) -> int:
    started = time.time()
    s = parse_structure(Path(args.structure).read_text(encoding="utf-8"))
    atoms = _load_formulas(args)
    report = n2.shrink_model(s, atoms)
    out = _out_dir(args, Path(args.structure))
    spath = out / f"{Path(args.structure).stem}.shrunk.structure"
    spath.write_text(render_structure(report.structure), encoding="utf-8")
    detail = {"input_size": report.input_size,
              "output_size": report.structure.domain_size,
              "cell_cap": report.cell_cap}
    return _emit(args, "shrink", "Shrunk", [str(spath)], detail, started)


# ---------------------------------------------------------------------------

@cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="numlog",
        description="Exact reasoning for numerically quantified syllogistic fragments.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--json", action="store_true",
                       help="emit a machine-readable verdict envelope")
        p.add_argument("--out", help="directory for certificate files")
        p.add_argument("--budget", type=_numeral("--budget"),
                       help="search budget (nodes/updates); default from "
                            "NUMLOG_BUDGET or 200000")

    p = sub.add_parser("solve", help="decide satisfiability or validity")
    p.add_argument("argument", help="argument file (symbolic or English)")
    p.add_argument("--lexicon", help="lexicon file for English input")
    common(p)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("derive", help="run the syllogism calculus")
    p.add_argument("argument")
    p.add_argument("--lexicon")
    p.add_argument("--explain", action="store_true",
                   help="print the derivation tree")
    common(p)
    p.set_defaults(func=cmd_derive)

    p = sub.add_parser("generate", help="emit reduction instances with oracles")
    p.add_argument("kind", choices=["3col", "tiling", "incompleteness"])
    p.add_argument("--graph", help="k3|k4|c5 or a graph file (3col)")
    p.add_argument("--nodes", type=_numeral("--nodes"), default=6,
                   help="random graph size")
    p.add_argument("--seed", type=_numeral("--seed"), default=0,
                   help="random seed")
    p.add_argument("--k", type=_numeral("--k"), default=1,
                   help="grid exponent (tiling)")
    p.add_argument("--colours", type=_numeral("--colours"), default=2,
                   help="colour count (tiling)")
    p.add_argument("--init", help="comma-separated initial colours (tiling)")
    p.add_argument("--m", type=_numeral("--m"), default=6,
                   help="instance parameter (incompleteness)")
    common(p)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("psat", help="decide clause-probability feasibility")
    p.add_argument("instance", help="instance file: 'p | !q ; 3/5' per line")
    common(p)
    p.set_defaults(func=cmd_psat)

    p = sub.add_parser("check", help="evaluate formulas against a structure")
    p.add_argument("structure")
    p.add_argument("formulas")
    p.add_argument("--lexicon")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("shrink", help="shrink a model, preserving the formulas")
    p.add_argument("structure")
    p.add_argument("formulas")
    p.add_argument("--lexicon")
    common(p)
    p.set_defaults(func=cmd_shrink)
    return parser


def main(argv=None) -> int:
    started, args = time.time(), None
    try:
        args = build_parser().parse_args(argv)
        if getattr(args, "budget", 0) is None:  # read when each command runs
            args.budget = _numeral("NUMLOG_BUDGET")(
                os.environ.get("NUMLOG_BUDGET") or "200000")
        return args.func(args)
    except BudgetExhaustedError as exc:
        if getattr(args, "json", False):
            return _emit(args, args.command, UNKNOWN, [], {"note": str(exc)},
                         started)
        print(f"Unknown: {exc}", file=sys.stderr)
        return 2
    except (NumlogError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
