"""The benchmark's three workloads: seeded inputs, queries and verdict checks.

Each workload's `generate` makes its inputs through the numlog package (this
is the timed set-up); `prepare` turns them into rounds of queries, each with
an independent reference answer computed outside the set-up.  A query's
`call` is the timed work; its `judge` runs after the timed loop and returns
("ok" | "unanswered" | "wrong", evidence bytes, note).  "unanswered" is an
Unknown verdict or a refusal; "wrong" is a verdict that contradicts the
reference, a witness that fails its re-check, or an unexpected exception.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

OK, UNANSWERED, WRONG = "ok", "unanswered", "wrong"
EXPECTED_DIR = Path(__file__).resolve().parent / "expected"


@dataclass
class Raised:
    """An exception that escaped a query's call."""
    error: BaseException


@dataclass
class Query:
    qid: str
    call: Callable[[], object]
    judge: Callable[[object], tuple[str, int, str]]


@dataclass
class Prepared:
    rounds: list[list[Query]]
    trace_rounds: int          # rounds the traced run executes


def _raised(out, mods) -> tuple[str, int, str] | None:
    """Judgement of a call that raised: budget -> Unknown, package error ->
    refused, anything else -> wrong."""
    if not isinstance(out, Raised):
        return None
    err = out.error
    if isinstance(err, mods.errors.BudgetExhaustedError):
        return UNANSWERED, 0, f"Unknown: {err}"
    if isinstance(err, mods.errors.NumlogError):
        return UNANSWERED, 0, f"refused: {err}"
    return WRONG, 0, f"raised {type(err).__name__}: {err}"


# ---------------------------------------------------------------------------
# incompleteness: the paper's headline result at m=6 and m=8
# ---------------------------------------------------------------------------

class Incompleteness:
    """Entail every goal, derive every goal, then certify the underivable
    goal with the threshold counterexample.  The instance is fixed by m, so
    the seed does not change the inputs."""

    name = "incompleteness"

    def __init__(self, tiny: bool, expected: dict | None = None):
        self.ms = (6,) if tiny else (6, 8)
        self.expected = expected or json.loads(
            (EXPECTED_DIR / "incompleteness.json").read_text(encoding="utf-8"))

    def generate(self, mods, seed, out_dir):
        return {m: mods.proofs.incompleteness_instance(m) for m in self.ms}

    def prepare(self, mods, inputs):
        c1, proofs, psat = mods.c1, mods.proofs, mods.psat
        entail_q, derive_q, cex_q = [], [], []
        for m, (phi, goals) in inputs.items():
            want = self.expected[str(m)]
            if len(want["entails"]) != len(goals) or len(want["derives"]) != len(goals):
                raise ValueError(f"expected file does not cover the m={m} goals")
            for j, goal in enumerate(goals):
                entail_q.append(Query(
                    f"m{m}/entails/t{j + 1}",
                    lambda phi=phi, g=goal: c1.entails(phi, g),
                    lambda out, w=want["entails"][j]: self._judge_entails(mods, out, w)))
                derive_q.append(Query(
                    f"m{m}/derives/t{j + 1}",
                    lambda phi=phi, g=goal: proofs.derives(phi, g),
                    lambda out, phi=phi, w=want["derives"][j]:
                        self._judge_derives(mods, out, phi, w)))
            cex_q.append(Query(
                f"m{m}/counterexample",
                lambda m=m: psat.counterexample_assignment(m),
                lambda out, phi=phi, goals=goals, w=want["underivable_goal"]:
                    self._judge_cex(mods, out, phi, goals, w)))
        return Prepared([entail_q + derive_q + cex_q], trace_rounds=1)

    @staticmethod
    def _judge_entails(mods, out, want):
        got = _raised(out, mods)
        if got:
            return got
        return (OK, 0, "") if out == want else (WRONG, 0, f"entails {out}, expected {want}")

    @staticmethod
    def _judge_derives(mods, out, phi, want):
        got = _raised(out, mods)
        if got:
            return got
        if out.derivable:
            if not mods.proofs.check_derivation(out.derivation, phi):
                return WRONG, 0, "derivation fails its replay"
            verdict = "Derivable"
        elif not out.complete:
            return UNANSWERED, 0, "Unknown: saturation budget"
        else:
            verdict = "NotDerivable"
        evidence = (len(mods.proofs.render_derivation(out.derivation).encode())
                    if out.derivable else 0)
        if verdict != want:
            return WRONG, evidence, f"{verdict}, expected {want}"
        return OK, evidence, ""

    @staticmethod
    def _judge_cex(mods, out, phi, goals, want):
        got = _raised(out, mods)
        if got:
            return got
        assignment, zero_j = out
        evidence = len(render_assignment(assignment).encode())
        if zero_j != want:
            return WRONG, evidence, f"underivable goal t{zero_j}, expected t{want}"
        approx = mods.psat.approx_models
        if approx(assignment, goals[zero_j - 1]):
            return WRONG, evidence, "threshold assignment does not null the goal"
        if not all(approx(assignment, a) for a in phi):
            return WRONG, evidence, "threshold assignment misses a premise"
        return OK, evidence, ""


def render_assignment(assignment) -> str:
    """The text `numlog psat` writes for an assignment."""
    lines = [f"letters: {', '.join(assignment.letters)}"]
    lines += [f"world {{{', '.join(sorted(w))}}}: {wt}"
              for w, wt in assignment.worlds]
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# colouring: decide_sat on 3-colouring encodings
# ---------------------------------------------------------------------------

class Colouring:
    """Each round decides k3, k4, c5 and eighteen seeded random graphs with
    2 to 8 nodes.  A random graph on n nodes has exactly half of the
    n(n-1)/2 possible edges (rounded down), drawn from the seed: a fixed
    edge count keeps the cost of one size steady from seed to seed, where
    independent coin flips per edge spread it about fivefold.  Sizes with
    at most `deck_limit` such edge sets (up to 5 nodes) are dealt from a
    seeded shuffle of all of them rather than drawn independently: the cost
    of a small graph depends on its labelling as much as on its shape (a
    4-node star costs 9 ms or 13 ms by which node is its centre), and
    dealing gives every run nearly the same mix of them.  The three 8-node
    graphs of a round are planted (see `planted_graph`): two 3-colourable
    and one holding a K4.  About half of all 8-node graphs with that many
    edges are colourable, and whether each is decides the size of its
    witness, so a fixed
    pattern keeps `evidence_bytes` from following the seed; the planted
    kinds cost about as much to decide as unplanted ones.

    Decision time grows severalfold with each node, so the queries of a
    round form one cluster per size.  The sizes are chosen so that as many
    queries of a round are faster than the 4-node ones as are slower, which
    puts the median in the middle of the 4-node cluster, and so that the
    tail (the 11th slowest of a run) falls inside the 8-node cluster.
    Neither then sits on the edge between two clusters, where it would jump
    from seed to seed.
    """

    name = "colouring"
    max_rounds = 16
    deck_limit = 300
    sizes = (2, 2, 2, 3, 3) + (4,) * 7 + (5, 6, 7)
    planted = ("colourable", "colourable", "k4")    # the 8-node graphs

    def __init__(self, tiny: bool):
        self.sizes = (2, 3, 4, 5) if tiny else self.sizes
        self.planted = () if tiny else self.planted
        self.max_rounds = 1 if tiny else self.max_rounds

    def generate(self, mods, seed, out_dir):
        red = mods.reductions
        rng = random.Random(seed)
        named = [("k3", red.graph(3, [(1, 2), (1, 3), (2, 3)])),
                 ("k4", red.graph(4, [(i, j) for i in range(1, 5)
                                      for j in range(i + 1, 5)])),
                 ("c5", red.graph(5, [(1, 2), (2, 3), (3, 4), (4, 5), (1, 5)]))]
        named = [(label, g, red.encode_3col(g)) for label, g in named]
        decks: dict[int, list] = {}

        def edges(n):
            pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
            half = len(pairs) // 2
            if math.comb(len(pairs), half) > self.deck_limit:
                return rng.sample(pairs, half)
            if not decks.get(n):
                decks[n] = list(itertools.combinations(pairs, half))
                rng.shuffle(decks[n])
            return decks[n].pop()

        rounds = []
        for r in range(self.max_rounds):
            graphs = []
            for k, n in enumerate(self.sizes):
                g = red.graph(n, edges(n))
                graphs.append((f"r{r}/g{k}n{n}", g, red.encode_3col(g)))
            for k, kind in enumerate(self.planted, len(self.sizes)):
                g = red.graph(8, planted_graph(rng, 8, kind))
                graphs.append((f"r{r}/g{k}n8", g, red.encode_3col(g)))
            rounds.append(named + graphs)
        return rounds

    def prepare(self, mods, inputs):
        oracle = {}
        rounds = []
        for graphs in inputs:
            queries = []
            for label, g, atoms in graphs:
                if label not in oracle:
                    oracle[label] = mods.reductions.brute_3col(g) is not None
                queries.append(Query(
                    label, lambda atoms=atoms: mods.c1.decide_sat(atoms),
                    lambda out, g=g, want=oracle[label]: self._judge(mods, out, g, want)))
            rounds.append(queries)
        return Prepared(rounds, trace_rounds=min(4, len(rounds)))

    @staticmethod
    def _judge(mods, out, g, want_sat):
        got = _raised(out, mods)
        if got:
            return got
        if out.status == mods.c1.UNKNOWN:
            return UNANSWERED, 0, "Unknown"
        if (out.status == mods.c1.SAT) != want_sat:
            return WRONG, 0, f"{out.status}, brute force says {'sat' if want_sat else 'unsat'}"
        if not want_sat:
            return OK, 0, ""
        evidence = len(mods.logic.render_structure(out.witness).encode())
        try:
            colouring = mods.reductions.decode_3col(out.witness, g)
        except mods.errors.InputError as err:
            return WRONG, evidence, f"witness does not decode: {err}"
        proper = (set(colouring) == set(range(1, g.n + 1))
                  and all(c in (0, 1, 2) for c in colouring.values())
                  and all(colouring[a] != colouring[b] for a, b in g.edges))
        return (OK, evidence, "") if proper else (WRONG, evidence, "improper colouring")


# ---------------------------------------------------------------------------
# cli_mix: short in-process requests to numlog.cli.main
# ---------------------------------------------------------------------------

LEXICON = "nouns: artist, beekeeper, carpenter, dentist\nverbs: admire\n"
FLAGSHIP = """At least 13 artists are beekeepers
At most 3 beekeepers are carpenters
At most 4 dentists are not carpenters
Therefore:
At least 6 artists are not dentists
"""


def run_cli(mods, argv) -> tuple[int, str]:
    """One in-process `numlog` request; returns (exit code, stdout)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = mods.cli.main(argv)
    return code, out.getvalue() + err.getvalue()


@dataclass
class Request:
    label: str
    argv: list[str]
    expect: str                     # the verdict known by construction
    formulas: str | None = None     # input file, for witness re-checks
    psat_instance: list | None = None


class CliMix:
    """Each round sends twelve requests: solve and derive of the README
    argument, a seeded Invalid and a seeded Valid unary argument, two
    planted PSAT instances, two relational sets planted in a random
    structure, the known-Unknown relational set, the refused tiling
    encoding, and `>=1000000 (p & q)` solved and then checked."""

    name = "cli_mix"
    max_rounds = 16

    def __init__(self, tiny: bool, budget: int):
        self.budget = str(budget)
        self.max_rounds = 1 if tiny else self.max_rounds
        self.big_bound = 1000 if tiny else 1_000_000

    def generate(self, mods, seed, out_dir: Path):
        parsing, logic = mods.parsing, mods.logic
        out = str(out_dir)
        rng = random.Random(seed)

        def write(name, text):
            (out_dir / name).write_text(text, encoding="utf-8")
            return str(out_dir / name)

        def argument(premises, conclusion=None):
            return parsing.render_argument_symbolic(
                parsing.ArgumentFile(tuple(premises), conclusion))

        def solve(label, path, expect):
            return Request(label, ["solve", path, "--json", "--out", out,
                                   "--budget", self.budget], expect, path)

        lex = write("lexicon.txt", LEXICON)
        flag = write("flagship.txt", FLAGSHIP)
        unknown = write("unknown3000.txt",
                        ">=3000 p [r >=2 q]\n<=0 (q & q)\n")
        big = write("big.txt", f">={self.big_bound} (p & q)\n")
        code, text = run_cli(mods, ["generate", "tiling", "--k", "1",
                                    "--out", out])
        if code != 0:
            raise RuntimeError(f"generate tiling failed: {text}")
        tiling = str(out_dir / "tiling_k1_m2.formulas")
        fixed = [
            Request("flagship/solve", ["solve", flag, "--lexicon", lex, "--json",
                                       "--out", out, "--budget", self.budget],
                    "Valid"),
            Request("flagship/derive", ["derive", flag, "--lexicon", lex,
                                        "--json", "--out", out,
                                        "--budget", self.budget], "Derivable"),
            solve("unknown3000/solve", unknown, "Unsat"),
            solve("tiling_k1/solve", tiling, "Sat"),
            solve("big/solve", big, "Sat"),
            Request("big/check", ["check", "--json",
                                  str(out_dir / "big.witness.structure"), big],
                    "Checked"),
        ]
        rounds = []
        for r in range(self.max_rounds):
            seeded = []
            for kind in ("invalid", "valid"):
                premises, conclusion = planted_unary(rng, logic, kind == "valid")
                path = write(f"r{r}_unary_{kind}.txt", argument(premises, conclusion))
                seeded.append(solve(f"r{r}/unary_{kind}", path, kind.capitalize()))
            for i in range(2):
                instance = planted_psat(rng, logic)
                path = write(f"r{r}_psat{i}.txt", mods.psat.render_psat_instance(instance))
                seeded.append(Request(f"r{r}/psat{i}", ["psat", path, "--json",
                                                        "--out", out, "--budget",
                                                        self.budget],
                                      "Sat", psat_instance=instance))
            for i in range(2):
                path = write(f"r{r}_relational{i}.txt",
                             argument(planted_relational(rng, logic)))
                seeded.append(solve(f"r{r}/relational{i}", path, "Sat"))
            rounds.append(fixed[:2] + seeded + fixed[2:])
        return rounds

    def prepare(self, mods, inputs):
        checked: dict[str, str] = {}
        rounds = [[Query(req.label, lambda req=req: run_cli(mods, req.argv),
                         lambda out, req=req: self._judge(mods, out, req, checked))
                   for req in requests] for requests in inputs]
        return Prepared(rounds, trace_rounds=min(2, len(rounds)))

    @staticmethod
    def _judge(mods, out, req, checked):
        if isinstance(out, Raised):
            return WRONG, 0, f"raised {type(out.error).__name__}: {out.error}"
        code, text = out
        want = req.expect
        if code == 2:
            return UNANSWERED, 0, "Unknown"
        if code == 1:
            return UNANSWERED, 0, "refused: " + text.strip().splitlines()[-1]
        envelope = json.loads(text.strip().splitlines()[-1])
        if envelope["command"] == "check":
            got = "Checked" if envelope["all_true"] else "CheckFailed"
            return (OK, 0, "") if got == want else (WRONG, 0, f"{got}, expected {want}")
        files = envelope["certificates"]
        evidence = sum(Path(f).stat().st_size for f in files)
        if envelope["status"] != want:
            return WRONG, evidence, f"{envelope['status']}, expected {want}"
        witness = next((f for f in files if f.endswith(".witness.structure")), None)
        if req.psat_instance is not None:
            note = check_assignment_file(files[0], req.psat_instance)
        elif witness is not None and req.label != "big/solve":
            # the big witness is re-checked by the big/check request itself
            if witness not in checked:
                checked[witness] = recheck_witness(mods, witness, req.formulas,
                                                   conclusion_false=want == "Invalid")
            note = checked[witness]
        else:
            note = ""
        return (WRONG if note else OK), evidence, note


def recheck_witness(mods, witness: str, formulas: str, conclusion_false: bool) -> str:
    """`numlog check` the witness: every premise true and, for an Invalid
    verdict, the conclusion false.  Returns "" or what failed."""
    code, text = run_cli(mods, ["check", "--json", witness, formulas])
    if code != 0:
        return f"numlog check failed: {text.strip()}"
    truths = [r["true"] for r in json.loads(text.strip().splitlines()[-1])["results"]]
    if conclusion_false:
        ok = all(truths[:-1]) and not truths[-1]
    else:
        ok = all(truths)
    return "" if ok else f"witness {witness} fails its re-check: {truths}"


def check_assignment_file(path: str, instance) -> str:
    """Recompute every demanded clause probability from the written
    assignment, sharing no code with the package."""
    worlds = []
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        if line.startswith("world "):
            inside, _, weight = line[len("world "):].rpartition(":")
            names = {w.strip() for w in inside.strip().strip("{}").split(",") if w.strip()}
            worlds.append((names, Fraction(weight.strip())))
    if sum(w for _, w in worlds) != 1:
        return "assignment weights do not sum to 1"
    for clause, q in instance:
        got = sum((w for names, w in worlds
                   if any((lit.pred in names) == lit.positive for lit in clause)),
                  Fraction(0))
        if got != q:
            return f"P({' | '.join(map(str, clause))}) = {got}, demanded {q}"
    return ""


# ---------------------------------------------------------------------------
# Planted generators: the answer is known from the structure they start from
# ---------------------------------------------------------------------------

def planted_graph(rng, n, kind):
    """Half of the n(n-1)/2 possible edges of an n-node graph.  A
    "colourable" graph draws them only between the classes of a random
    colouring with classes as equal as they can be; a "k4" graph holds all
    six edges among four random nodes and draws the rest at random."""
    pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    half = len(pairs) // 2
    if kind == "colourable":
        nodes = rng.sample(range(1, n + 1), n)
        colour = {v: k % 3 for k, v in enumerate(nodes)}
        return rng.sample([(a, b) for a, b in pairs if colour[a] != colour[b]], half)
    quad = sorted(rng.sample(range(1, n + 1), 4))
    k4 = list(itertools.combinations(quad, 2))
    return k4 + rng.sample([p for p in pairs if p not in k4], half - len(k4))


def planted_unary(rng, logic, valid: bool):
    """Premises true in a random structure.  An Invalid argument concludes
    something false there (the structure is a countermodel); a Valid one
    concludes a weakening of one premise."""
    preds = ["a", "b", "c", "d"]
    n = rng.randint(4, 8)
    members = {p: {e for e in range(n) if rng.random() < 0.5} for p in preds}

    def lit():
        return logic.Lit(rng.choice(preds), rng.random() < 0.5)

    def count(l1, l2):
        return sum(1 for e in range(n)
                   if (e in members[l1.pred]) == l1.positive
                   and (e in members[l2.pred]) == l2.positive)

    premises = []
    for _ in range(rng.randint(4, 6)):
        l1, l2 = lit(), lit()
        make = logic.at_least if rng.random() < 0.5 else logic.at_most
        premises.append(make(count(l1, l2), l1, l2))
    if valid:
        base = rng.choice(premises)
        slack = rng.randint(0, 2)
        l1, l2 = base.lits
        if base.direction == logic.AT_LEAST:
            conclusion = logic.at_least(max(0, base.bound - slack), l2, l1)
        else:
            conclusion = logic.at_most(base.bound + slack, l2, l1)
    else:
        l1, l2 = lit(), lit()
        c = count(l1, l2)
        if c == 0 or rng.random() < 0.5:
            conclusion = logic.at_least(c + 1, l1, l2)
        else:
            conclusion = logic.at_most(c - 1, l1, l2)
    return premises, conclusion


def planted_psat(rng, logic):
    """Clauses over 8-10 letters with the exact probabilities a random
    distribution on a few worlds gives them, so the instance is Sat."""
    letters = [f"x{i}" for i in range(rng.randint(8, 10))]
    worlds = [{p for p in letters if rng.random() < 0.5}
              for _ in range(rng.randint(3, 6))]
    weights = [rng.randint(1, 9) for _ in worlds]
    clauses = []
    for p in letters + [None] * rng.randint(2, 4):
        others = rng.sample(letters, rng.randint(1, 2))
        names = list(dict.fromkeys(([p] if p else []) + others))
        clauses.append(tuple(logic.Lit(x, rng.random() < 0.5) for x in names))
    instance = []
    for clause in clauses:
        hit = sum(wt for world, wt in zip(worlds, weights)
                  if any((lit.pred in world) == lit.positive for lit in clause))
        instance.append((clause, Fraction(hit, sum(weights))))
    return instance


def planted_relational(rng, logic):
    """Two or three transitive-verb sentences whose outer bound is the exact
    count in a random 3-4 element structure, so the set is Sat."""
    n = rng.randint(3, 4)
    members = {p: {e for e in range(n) if rng.random() < 0.5} for p in "pq"}
    edges = {(a, b) for a in range(n) for b in range(n) if rng.random() < 0.4}
    atoms = []
    for _ in range(rng.randint(2, 3)):
        subj, obj = rng.choice("pq"), rng.choice("pq")
        inner_dir = rng.choice([logic.AT_LEAST, logic.AT_MOST])
        inner = rng.randint(0, 2)
        hits = 0
        for a in members[subj]:
            tally = sum(1 for b in members[obj] if (a, b) in edges)
            hits += tally >= inner if inner_dir == logic.AT_LEAST else tally <= inner
        outer_dir = rng.choice([logic.AT_LEAST, logic.AT_MOST])
        atoms.append(logic.RelationalAtom(outer_dir, hits, subj, "r",
                                          inner_dir, inner, obj))
    return atoms
