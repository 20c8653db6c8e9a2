"""End-to-end command-line workflows: verdicts, certificates that
re-validate, exit codes, and the JSON envelope."""

import json
import random
import re
import time

import pytest

from numlog import c1, reductions
from numlog.cli import main
from numlog.linsys import _Tableau, ilp_solve
from numlog.logic import (CellStructure, atom_formula, evaluate, negate_atom,
                          parse_structure)
from numlog.parsing import parse_argument, parse_lexicon, parse_symbolic_line

LEXICON = """
nouns: artist, beekeeper, carpenter, dentist
verbs: admire
"""

ARGUMENT_1 = """
At least 13 artists are beekeepers
At most 3 beekeepers are carpenters
At most 4 dentists are not carpenters
Therefore:
At least 6 artists are not dentists
"""


@pytest.fixture
def workspace(tmp_path):
    (tmp_path / "lex.txt").write_text(LEXICON, encoding="utf-8")
    (tmp_path / "arg1.txt").write_text(ARGUMENT_1, encoding="utf-8")
    return tmp_path


def run(capsys, *argv) -> tuple[int, str]:
    code = main([str(a) for a in argv])
    return code, capsys.readouterr().out


class TestSolve:
    def test_flagship_argument_valid(self, workspace, capsys):
        code, out = run(capsys, "solve", workspace / "arg1.txt",
                        "--lexicon", workspace / "lex.txt",
                        "--out", workspace)
        assert code == 0 and out.startswith("Valid")
        assert (workspace / "arg1.certificate.txt").exists()

    def test_valid_certificate_is_the_refuted_system(self, workspace, capsys,
                                                     monkeypatch):
        calls = {"normalize": 0, "build_system": 0}

        def counted(name):
            original = getattr(c1, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)
            monkeypatch.setattr(c1, name, wrapper)

        counted("normalize")
        counted("build_system")
        code, out = run(capsys, "solve", workspace / "arg1.txt",
                        "--lexicon", workspace / "lex.txt",
                        "--out", workspace)
        assert code == 0 and out.startswith("Valid")
        monkeypatch.undo()
        arg = parse_argument(ARGUMENT_1, parse_lexicon(LEXICON))
        atoms = list(arg.premises) + [negate_atom(arg.conclusion)]
        branches = c1.normalize(atoms)
        res = c1.decide_sat(atoms)
        # one normalization, one build per branch
        assert calls == {"normalize": 1, "build_system": len(branches)}
        text = (workspace / "arg1.certificate.txt").read_text(encoding="utf-8")
        blocks = re.split(r"^branch \d+: ", text, flags=re.M)[1:]
        assert len(blocks) == len(res.refuted) == len(branches)
        for branch, block in zip(branches, blocks):
            header, *lines = block.splitlines()
            # the conjuncts, back from the symbolic syntax
            counts = [atom_formula(a) for line in lines
                      for a in parse_symbolic_line(line)]
            replayed = c1.NormalC1(tuple((c.direction, c.bound, c.body)
                                         for c in counts))
            assert replayed == branch
            head = re.fullmatch(r"cap (\d+), (\d+) columns, over (.+)", header)
            cap, columns, preds = int(head[1]), int(head[2]), head[3].split(", ")
            # the search cap that makes the refutation complete
            assert cap == max([1] + [b for _, b, _ in replayed.conjuncts])
            built = c1.build_system(replayed, preds)
            assert len(built.live_types) == columns
            assert ilp_solve(built.system, [cap] * columns) is None

    @pytest.mark.parametrize("m", [6, 8])
    def test_certificate_grows_with_the_argument(self, workspace, capsys, m):
        run(capsys, "generate", "incompleteness", "--m", m, "--out", workspace)
        stem = workspace / f"incompleteness_m{m}"
        goal = stem.with_suffix(".goals").read_text(encoding="utf-8")
        arg = (stem.with_suffix(".formulas").read_text(encoding="utf-8")
               + "Therefore:\n" + goal.splitlines()[0] + "\n")
        (workspace / "goal1.txt").write_text(arg, encoding="utf-8")
        code, out = run(capsys, "solve", workspace / "goal1.txt",
                        "--out", workspace)
        assert code == 0 and out.startswith("Valid")
        cert = (workspace / "goal1.certificate.txt").read_bytes()
        assert len(cert) <= len(arg.encode()) + 512

    def test_premises_alone_sat_with_checking_witness(self, workspace, capsys):
        text = "\n".join(ARGUMENT_1.strip().splitlines()[:3])
        (workspace / "prem.txt").write_text(text, encoding="utf-8")
        code, out = run(capsys, "solve", workspace / "prem.txt",
                        "--lexicon", workspace / "lex.txt",
                        "--out", workspace)
        assert code == 0 and out.startswith("Sat")
        wit = parse_structure(
            (workspace / "prem.witness.structure").read_text(encoding="utf-8"))
        lex = parse_lexicon(LEXICON)
        arg = parse_argument(text, lex)
        assert all(evaluate(wit, a) for a in arg.premises)

    def test_unsat_symbolic(self, workspace, capsys):
        (workspace / "bad.txt").write_text(
            ">=2 (p & p)\n<=1 (p & p)\n", encoding="utf-8")
        code, out = run(capsys, "solve", workspace / "bad.txt",
                        "--out", workspace)
        assert code == 0 and out.startswith("Unsat")

    def test_invalid_with_countermodel(self, workspace, capsys):
        (workspace / "inv.txt").write_text(
            ">=1 (p & q)\nTherefore:\n>=2 (p & p)\n", encoding="utf-8")
        code, out = run(capsys, "solve", workspace / "inv.txt",
                        "--out", workspace)
        assert code == 0 and out.startswith("Invalid")
        wit = parse_structure(
            (workspace / "inv.witness.structure").read_text(encoding="utf-8"))
        arg = parse_argument(
            (workspace / "inv.txt").read_text(encoding="utf-8"))
        from numlog.logic import negate_atom
        assert all(evaluate(wit, a) for a in arg.premises)
        assert evaluate(wit, negate_atom(arg.conclusion))

    def test_relational_route(self, workspace, capsys):
        (workspace / "rel.txt").write_text(
            ">=1 p [r <=0 p]\n", encoding="utf-8")
        code, out = run(capsys, "solve", workspace / "rel.txt",
                        "--out", workspace)
        assert code == 0 and out.startswith("Sat")

    def test_relational_route_with_ten_predicates(self, workspace, capsys):
        # 1024 cells: the composition generator must not recurse per cell
        lines = [">=1 p0 [r >=1 p1]"] + [f">=1 (p{i} & p{i})" for i in range(10)]
        (workspace / "ten.txt").write_text("\n".join(lines) + "\n",
                                           encoding="utf-8")
        code, out = run(capsys, "solve", workspace / "ten.txt",
                        "--out", workspace)
        assert code == 0 and out.startswith("Sat")

    def test_sat_and_invalid_cite_only_the_witness(self, workspace, capsys):
        (workspace / "s.txt").write_text(">=2 (p & q)\n", encoding="utf-8")
        (workspace / "i.txt").write_text(
            ">=1 (p & q)\nTherefore:\n>=2 (p & p)\n", encoding="utf-8")
        for stem, status in (("s", "Sat"), ("i", "Invalid")):
            code, out = run(capsys, "solve", workspace / f"{stem}.txt",
                            "--out", workspace, "--json")
            payload = json.loads(out)
            assert code == 0 and payload["status"] == status
            assert payload["certificates"] == [
                str(workspace / f"{stem}.witness.structure")]
            assert not (workspace / f"{stem}.certificate.txt").exists()

    def test_relational_budget_exhaustion_is_unknown(self, workspace, capsys):
        (workspace / "big.txt").write_text(
            ">=2 p [r >=2 q]\n>=2 q [r >=2 p]\n", encoding="utf-8")
        code, out = run(capsys, "solve", workspace / "big.txt",
                        "--budget", "5", "--out", workspace)
        assert code == 2 and out.startswith("Unknown")

    def test_relational_set_without_a_q_is_unsat_before_search(self,
                                                                workspace,
                                                                capsys):
        (workspace / "u.txt").write_text(
            ">=3000 p [r >=2 q]\n<=0 (q & q)\n", encoding="utf-8")
        code, out = run(capsys, "solve", workspace / "u.txt",
                        "--budget", "20000", "--out", workspace)
        assert code == 0 and out.startswith("Unsat")
        cert = (workspace / "u.certificate.txt").read_text(encoding="utf-8")
        assert cert.count("\n") == 1 and ">=3000 p [r >=2 q]" in cert

    def test_relational_set_over_17_predicates_is_unknown(self, workspace,
                                                          capsys):
        lines = [">=1 p0 [r >=1 p1]"] + [f">=1 (p{i} & p{i})" for i in range(17)]
        (workspace / "wide.txt").write_text("\n".join(lines) + "\n",
                                            encoding="utf-8")
        code, out = run(capsys, "solve", workspace / "wide.txt",
                        "--out", workspace)
        assert code == 2 and out.startswith("Unknown")
        assert "too many unary predicates" in out

    def test_unary_budget_exhaustion_is_unknown(self, workspace, capsys,
                                                monkeypatch):
        run(capsys, "generate", "incompleteness", "--m", "6",
            "--out", workspace)
        premises = (workspace / "incompleteness_m6.formulas").read_text()
        (workspace / "goal.txt").write_text(
            premises + "Therefore:\n>=1 (r & t2)\n", encoding="utf-8")
        branches = 0
        copy = _Tableau.copy

        def counting(tab):
            nonlocal branches
            branches += 1
            return copy(tab)

        monkeypatch.setattr(_Tableau, "copy", counting)
        code, out = run(capsys, "solve", workspace / "goal.txt",
                        "--out", workspace, "--json")
        assert code == 0 and json.loads(out)["status"] == "Valid"
        assert branches > 0
        code, out = run(capsys, "solve", workspace / "goal.txt",
                        "--out", workspace, "--json", "--budget", "1")
        payload = json.loads(out)
        assert code == 2 and payload["status"] == "Unknown"
        assert payload["exit_code"] == 2 and not payload["certificates"]

    @pytest.mark.parametrize("command, text, note", [
        ("solve", "".join(f">=1 (p{i} & p{i})\n" for i in range(3)),
         "live 1-type cap exceeded"),
        ("psat", "".join(f"x{i} ; 1/2\n" for i in range(13)),
         "13 letters need 0/1 rows to prune; cap is 12"),
    ])
    def test_a_cap_that_escapes_a_command_is_unknown(self, workspace, capsys,
                                                     monkeypatch, command,
                                                     text, note):
        # 3 free predicates have 8 live 1-types, past a cap of 4
        monkeypatch.setattr(c1, "MAX_LIVE", 4)
        (workspace / "wide.txt").write_text(text, encoding="utf-8")
        argv = [command, str(workspace / "wide.txt"), "--out", str(workspace)]
        assert main(argv + ["--json"]) == 2
        captured = capsys.readouterr()
        [line] = captured.out.splitlines()
        payload = json.loads(line)
        assert captured.err == "" and payload["command"] == command
        assert payload["status"] == "Unknown" and payload["exit_code"] == 2
        assert payload["certificates"] == []
        assert payload["detail"] == {"note": note}
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == f"Unknown: {note}\n"

    def test_json_envelope(self, workspace, capsys):
        code, out = run(capsys, "solve", workspace / "arg1.txt",
                        "--lexicon", workspace / "lex.txt",
                        "--out", workspace, "--json")
        payload = json.loads(out)
        assert payload["status"] == "Valid" and payload["exit_code"] == 0
        assert payload["certificates"]

    def test_input_error_exit_code(self, workspace, capsys):
        code = main(["solve", str(workspace / "missing.txt")])
        assert code == 1

    def test_non_integer_budget_environment(self, workspace, capsys,
                                            monkeypatch):
        monkeypatch.setenv("NUMLOG_BUDGET", "lots")
        code = main(["solve", str(workspace / "arg1.txt"),
                     "--lexicon", str(workspace / "lex.txt")])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: ") and "NUMLOG_BUDGET" in err

    def test_negative_budget_option(self, workspace, capsys):
        (workspace / "a.txt").write_text(">=1 (p & q)\n", encoding="utf-8")
        code = main(["solve", str(workspace / "a.txt"), "--budget", "-3",
                     "--out", str(workspace)])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert captured.err.startswith("error: ") and "--budget" in captured.err

    def test_negative_budget_environment(self, workspace, capsys,
                                         monkeypatch):
        (workspace / "a.txt").write_text(">=1 (p & q)\n", encoding="utf-8")
        monkeypatch.setenv("NUMLOG_BUDGET", "-3")
        code = main(["solve", str(workspace / "a.txt"), "--out", str(workspace)])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert captured.err.startswith("error: ") and "NUMLOG_BUDGET" in captured.err

    def test_budget_environment_set_after_a_first_call(self, workspace,
                                                       capsys, monkeypatch):
        argv = ["derive", str(workspace / "arg1.txt"), "--lexicon",
                str(workspace / "lex.txt"), "--out", str(workspace)]
        monkeypatch.delenv("NUMLOG_BUDGET", raising=False)
        assert main(argv) == 0
        monkeypatch.setenv("NUMLOG_BUDGET", "1")
        assert main(argv) == 2  # one saturation update is not enough
        monkeypatch.setenv("NUMLOG_BUDGET", "lots")
        assert main(argv) == 1
        assert "NUMLOG_BUDGET" in capsys.readouterr().err
        # a command that takes no budget does not read it
        (workspace / "s.structure").write_text("domain 1\nunary p: 0\n")
        (workspace / "f.txt").write_text(">=1 p\n")
        assert main(["check", str(workspace / "s.structure"),
                     str(workspace / "f.txt")]) == 0


class TestDerive:
    def test_flagship_derivable_with_explanation(self, workspace, capsys):
        code, out = run(capsys, "derive", workspace / "arg1.txt",
                        "--lexicon", workspace / "lex.txt",
                        "--explain", "--out", workspace)
        assert code == 0 and "Derivable" in out and "[R" in out
        assert (workspace / "arg1.derivation.txt").exists()

    def test_not_derivable(self, workspace, capsys):
        (workspace / "seq.txt").write_text(
            ">=2 (p & q)\n>=3 (p & !q)\nTherefore:\n>=5 (p & p)\n",
            encoding="utf-8")
        code, out = run(capsys, "derive", workspace / "seq.txt",
                        "--out", workspace)
        assert code == 0 and out.startswith("NotDerivable")

    def test_ex_falso(self, workspace, capsys):
        (workspace / "contra.txt").write_text(
            ">=2 (p & p)\n<=1 (p & p)\nTherefore:\n>=9 (z & w)\n",
            encoding="utf-8")
        code, out = run(capsys, "derive", workspace / "contra.txt",
                        "--out", workspace)
        assert code == 0 and out.startswith("Derivable")

    def test_budget_out_is_unknown_with_note(self, workspace, capsys):
        (workspace / "chain.txt").write_text(
            ">=2 (p & q)\n<=1 (q & r)\nTherefore:\n>=1 (p & !r)\n",
            encoding="utf-8")
        code, out = run(capsys, "derive", workspace / "chain.txt",
                        "--out", workspace, "--budget", "1", "--json")
        payload = json.loads(out)
        assert code == 2 and payload["status"] == "Unknown"
        assert payload["detail"]["note"] == \
            "saturation budget of 1 updates ran out"
        code, out = run(capsys, "derive", workspace / "chain.txt",
                        "--out", workspace)
        assert code == 0 and out.startswith("Derivable")

    def test_missing_conclusion(self, workspace, capsys):
        (workspace / "nc.txt").write_text(">=1 (p & p)\n", encoding="utf-8")
        code = main(["derive", str(workspace / "nc.txt")])
        assert code == 1

    def test_verb_sentence_is_refused(self, workspace, capsys):
        (workspace / "rel.txt").write_text(
            ">=2 p [r >=1 q]\nTherefore:\n>=1 (p & q)\n", encoding="utf-8")
        code = main(["derive", str(workspace / "rel.txt"),
                     "--out", str(workspace)])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert captured.err == \
            "error: the proof calculus handles unary sentences only\n"
        assert not (workspace / "rel.derivation.txt").exists()


class TestGenerate:
    def test_3col_named(self, workspace, capsys):
        code, out = run(capsys, "generate", "3col", "--graph", "k4",
                        "--out", workspace / "gen")
        assert code == 0
        expected = (workspace / "gen" / "k4.expected.txt").read_text()
        assert expected.startswith("Unsat")
        # emitted formula file re-parses and solves to the expected verdict
        code2, out2 = run(capsys, "solve", workspace / "gen" / "k4.3col.formulas",
                          "--out", workspace / "gen")
        assert out2.startswith("Unsat")

    def test_3col_malformed_graph_file(self, workspace, capsys):
        for bad in ("p edge 3 1\ne 1\n", "c comment\np edge x 3\n"):
            (workspace / "bad.graph").write_text(bad, encoding="utf-8")
            code = main(["generate", "3col", "--graph",
                         str(workspace / "bad.graph"),
                         "--out", str(workspace / "gen")])
            captured = capsys.readouterr()
            assert code == 1 and captured.out == ""
            assert captured.err.startswith("error: line 2: ")

    def test_3col_random_seeded(self, workspace, capsys):
        code, _ = run(capsys, "generate", "3col", "--nodes", "5",
                      "--seed", "3", "--out", workspace / "gen")
        assert code == 0

    def test_tiling_emits_checking_witness(self, workspace, capsys):
        code, out = run(capsys, "generate", "tiling", "--k", "1",
                        "--colours", "2", "--out", workspace / "gen", "--json")
        assert code == 0
        stem = workspace / "gen" / "tiling_k1_m2"
        assert json.loads(out)["certificates"] == [
            f"{stem}.formulas", f"{stem}.witness.structure",
            f"{stem}.expected.txt"]
        code2, out2 = run(capsys, "check", f"{stem}.witness.structure",
                          f"{stem}.formulas")
        assert code2 == 0 and "all true" in out2

    def test_tiling_past_the_largest_grid_is_refused(self, workspace, capsys,
                                                    monkeypatch):
        frames = []
        frame = reductions._Frame

        def counting(*args):
            frames.append(args[-1])
            return frame(*args)

        monkeypatch.setattr(reductions, "_Frame", counting)
        k = reductions.MAX_TILING_K + 1
        code = main(["generate", "tiling", "--k", str(k),
                     "--out", str(workspace / "gen")])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert captured.err == "error: exponent k must be from 1 to 6\n"
        assert frames == [k] and not (workspace / "gen").exists()

    @pytest.mark.parametrize("argv", [
        ["tiling", "--k", "7"],
        ["3col", "--graph", "bad.graph"],
    ])
    def test_refusal_leaves_no_directory(self, workspace, capsys, argv,
                                         monkeypatch):
        monkeypatch.chdir(workspace)
        (workspace / "bad.graph").write_text("p edge 3 1\ne 1\n",
                                             encoding="utf-8")
        code = main(["generate", *argv, "--out", "g7/sub"])
        captured = capsys.readouterr()
        assert code == 1 and captured.err.startswith("error: ")
        assert not (workspace / "g7").exists()

    def test_incompleteness(self, workspace, capsys):
        code, out = run(capsys, "generate", "incompleteness", "--m", "6",
                        "--out", workspace / "gen", "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["detail"]["underivable_goal"] in range(1, 8)
        goals = (workspace / "gen" / "incompleteness_m6.goals").read_text()
        assert len(goals.strip().splitlines()) == 7


class TestPsatCommand:
    def test_feasible(self, workspace, capsys):
        (workspace / "inst.psat").write_text(
            "p | q ; 1\np ; 1/2\nq ; 3/5\n", encoding="utf-8")
        code, out = run(capsys, "psat", workspace / "inst.psat",
                        "--out", workspace)
        assert code == 0 and out.startswith("Sat")
        assert (workspace / "inst.assignment.txt").exists()

    def test_infeasible(self, workspace, capsys):
        (workspace / "bad.psat").write_text("p ; 1\n!p ; 1\n", encoding="utf-8")
        code, out = run(capsys, "psat", workspace / "bad.psat",
                        "--out", workspace)
        assert code == 0 and out.startswith("Unsat")

    def test_zero_denominator(self, workspace, capsys):
        (workspace / "zero.psat").write_text("p ; 1/2\np | q ; 1/0\n",
                                             encoding="utf-8")
        code = main(["psat", str(workspace / "zero.psat")])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: line 2:")

    def test_probability_out_of_range(self, workspace, capsys):
        (workspace / "big.psat").write_text("q ; 1/2\np ; 3/2\n",
                                            encoding="utf-8")
        code = main(["psat", str(workspace / "big.psat")])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: line 2: probability 3/2 outside [0,1]")


class TestCheckAndShrink:
    def test_check_reports_per_formula(self, workspace, capsys):
        (workspace / "s.structure").write_text(
            "domain 3\nunary p: 0, 1\nunary q: 1\n", encoding="utf-8")
        (workspace / "f.formulas").write_text(
            ">=1 (p & q)\n<=0 (p & q)\n", encoding="utf-8")
        code, out = run(capsys, "check", workspace / "s.structure",
                        workspace / "f.formulas")
        lines = out.strip().splitlines()
        assert code == 0
        assert lines[0].startswith("True") and lines[1].startswith("False")
        assert lines[-1] == "some false"

    def test_check_json_envelope(self, workspace, capsys):
        # one JSON line, which bench/workloads.py parses for its re-checks
        (workspace / "s.structure").write_text(
            "domain 3\nunary p: 0, 1\nunary q: 1\n", encoding="utf-8")
        (workspace / "f.formulas").write_text(
            ">=1 (p & q)\n<=0 (p & q)\n", encoding="utf-8")
        code, out = run(capsys, "check", "--json", workspace / "s.structure",
                        workspace / "f.formulas")
        [line] = out.splitlines()
        assert code == 0 and json.loads(line) == {
            "command": "check", "all_true": False,
            "results": [{"formula": ">=1 (p & q)", "true": True},
                        {"formula": "<=0 (p & q)", "true": False}]}
        (workspace / "f.formulas").write_text(">=1 (p & q)\n",
                                              encoding="utf-8")
        code, out = run(capsys, "check", "--json", workspace / "s.structure",
                        workspace / "f.formulas")
        assert code == 0 and json.loads(out)["all_true"] is True

    def test_shrink_emits_smaller_model(self, workspace, capsys):
        n = 30
        rows = [f"unary p: {', '.join(str(i) for i in range(n))}",
                f"unary q: {', '.join(str(i) for i in range(n))}",
                "binary r: " + ", ".join(f"({i},{(i+1) % n})"
                                         for i in range(n))]
        (workspace / "big.structure").write_text(
            f"domain {n}\n" + "\n".join(rows) + "\n", encoding="utf-8")
        (workspace / "g.formulas").write_text(
            ">=1 p [r >=1 q]\n", encoding="utf-8")
        code, out = run(capsys, "shrink", workspace / "big.structure",
                        workspace / "g.formulas", "--out", workspace)
        assert code == 0
        shrunk = parse_structure(
            (workspace / "big.shrunk.structure").read_text(encoding="utf-8"))
        assert shrunk.domain_size < n
        code2, out2 = run(capsys, "check",
                          workspace / "big.shrunk.structure",
                          workspace / "g.formulas")
        assert "all true" in out2


class TestCellWitnesses:
    def test_huge_bound_gives_a_small_witness(self, workspace, capsys):
        (workspace / "big.txt").write_text(">=1000000000000 (p & q)\n",
                                           encoding="utf-8")
        started = time.perf_counter()
        code, out = run(capsys, "solve", workspace / "big.txt",
                        "--out", workspace)
        assert time.perf_counter() - started < 1.0
        assert code == 0 and out.startswith("Sat")
        witness = workspace / "big.witness.structure"
        assert witness.stat().st_size < 1024
        code, out = run(capsys, "check", witness, workspace / "big.txt")
        assert code == 0 and out.strip().splitlines()[-1] == "all true"

    def test_relational_check_on_cells_names_the_verb(self, workspace, capsys):
        (workspace / "w.structure").write_text(
            "domain 2\npredicates: p\ncell {p}: 2\n", encoding="utf-8")
        (workspace / "rel.txt").write_text(">=1 p [admire >=1 p]\n",
                                           encoding="utf-8")
        code = main(["check", str(workspace / "w.structure"),
                     str(workspace / "rel.txt")])
        assert code == 1
        assert "'admire'" in capsys.readouterr().err

    def test_shrink_keeps_a_huge_witness_in_cell_form(self, workspace,
                                                      capsys, monkeypatch):
        def refuse(self):
            raise AssertionError("a cell witness was expanded")

        monkeypatch.setattr(CellStructure, "expand", refuse)
        (workspace / "big.txt").write_text(">=1000000000000 (p & q)\n",
                                           encoding="utf-8")
        code, out = run(capsys, "solve", workspace / "big.txt",
                        "--out", workspace)
        assert code == 0 and out.startswith("Sat")
        code, out = run(capsys, "shrink", workspace / "big.witness.structure",
                        workspace / "big.txt", "--out", workspace)
        assert code == 0 and out.startswith("Shrunk")
        shrunk = workspace / "big.witness.shrunk.structure"
        assert shrunk.stat().st_size < 1024
        code, out = run(capsys, "check", shrunk, workspace / "big.txt")
        assert out.strip().splitlines()[-1] == "all true"

    def test_shrink_accepts_a_solve_witness(self, workspace, capsys):
        (workspace / "u.txt").write_text(">=40 (p & q)\n>=30 (p & !q)\n",
                                         encoding="utf-8")
        code, out = run(capsys, "solve", workspace / "u.txt", "--out", workspace)
        assert code == 0 and out.startswith("Sat")
        assert "cell {p, q}: 40" in (
            workspace / "u.witness.structure").read_text(encoding="utf-8")
        code, out = run(capsys, "shrink", workspace / "u.witness.structure",
                        workspace / "u.txt", "--out", workspace)
        assert code == 0 and out.startswith("Shrunk")
        assert "input_size: 70" in out
        code, out = run(capsys, "check", workspace / "u.witness.shrunk.structure",
                        workspace / "u.txt")
        assert out.strip().splitlines()[-1] == "all true"


class TestConstantFalseDuals:
    """The dual of a `>=0` conclusion is `<=-1`, false in every structure:
    such an argument is Valid, decided before any search."""

    def test_relational_at_least_zero_conclusion_is_valid(self, workspace,
                                                          capsys):
        (workspace / "rel0.txt").write_text(
            ">=2 p [r >=1 q]\nTherefore:\n>=0 p [r >=1 q]\n", encoding="utf-8")
        code, out = run(capsys, "solve", workspace / "rel0.txt",
                        "--budget", "20000", "--out", workspace)
        assert code == 0 and out.startswith("Valid")

    def test_unary_at_least_zero_certificate_has_no_branches(self, workspace,
                                                             capsys):
        (workspace / "un0.txt").write_text(
            ">=2 (p & q)\nTherefore:\n>=0 (p & !q)\n", encoding="utf-8")
        code, out = run(capsys, "solve", workspace / "un0.txt",
                        "--out", workspace)
        assert code == 0 and out.startswith("Valid")
        cert = workspace / "un0.certificate.txt"
        assert cert.read_text(encoding="utf-8") == "no branches\n"

    @pytest.mark.parametrize("seed", range(12))
    def test_valid_certificate_lines_parse(self, workspace, capsys, seed):
        # premises true in a seeded structure, and a weakening of one of
        # them as the conclusion; seed 0 concludes >=0
        rng = random.Random(seed)
        preds = "abcd"
        n = rng.randint(4, 8)
        members = {p: {e for e in range(n) if rng.random() < 0.5} for p in preds}

        def lit():
            return rng.choice(preds), rng.random() < 0.5

        def text(l):
            return l[0] if l[1] else "!" + l[0]

        premises = []
        for _ in range(rng.randint(4, 6)):
            l1, l2 = lit(), lit()
            count = sum(1 for e in range(n) if (e in members[l1[0]]) == l1[1]
                        and (e in members[l2[0]]) == l2[1])
            rel = ">=" if rng.random() < 0.5 else "<="
            premises.append((rel, count, l1, l2))
        rel, bound, l1, l2 = rng.choice(premises)
        slack = rng.randint(0, 2)
        if seed == 0:
            rel, bound = ">=", 0
        else:
            bound = max(0, bound - slack) if rel == ">=" else bound + slack
        lines = [f"{r}{b} ({text(x)} & {text(y)})" for r, b, x, y in premises]
        lines += ["Therefore:", f"{rel}{bound} ({text(l2)} & {text(l1)})"]
        (workspace / "v.txt").write_text("\n".join(lines) + "\n",
                                         encoding="utf-8")
        code, out = run(capsys, "solve", workspace / "v.txt",
                        "--out", workspace)
        assert code == 0 and out.startswith("Valid")
        cert = (workspace / "v.certificate.txt").read_text(encoding="utf-8")
        for line in cert.splitlines():
            if not line.startswith("branch ") and line != "no branches":
                assert parse_symbolic_line(line)


class TestNumeralOptions:
    """Numeric options and NUMLOG_BUDGET are ASCII decimal numerals, as in
    every file format; any other value is bad input (exit 1) that names
    the option."""

    @pytest.mark.parametrize("argv, option", [
        (["solve", "arg1.txt", "--budget", "2_0"], "--budget"),
        (["generate", "3col", "--nodes", "1_0"], "--nodes"),
        (["generate", "3col", "--nodes", "x"], "--nodes"),
        (["generate", "3col", "--seed", "+3"], "--seed"),
        (["generate", "tiling", "--k", "+1"], "--k"),
        (["generate", "tiling", "--colours", " 2"], "--colours"),
        (["generate", "incompleteness", "--m", "٦"], "--m"),
    ])
    def test_bad_numeral_option(self, workspace, capsys, argv, option):
        argv = [str(workspace / a) if a.endswith(".txt") else a for a in argv]
        code = main(argv + ["--out", str(workspace / "gen")])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert captured.err.startswith(f"error: {option}: ")

    def test_bad_numeral_budget_environment(self, workspace, capsys,
                                            monkeypatch):
        monkeypatch.setenv("NUMLOG_BUDGET", "2_0")
        code = main(["solve", str(workspace / "arg1.txt"), "--lexicon",
                     str(workspace / "lex.txt"), "--out", str(workspace)])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert captured.err.startswith("error: NUMLOG_BUDGET: ")
