"""The line rule shared by every text reader: `#` comments and blank lines
are skipped but still counted, and an error names the line it came from,
also when the check can only run once the whole file is read."""

import pytest

from numlog.errors import InputError
from numlog.logic import parse_structure
from numlog.parsing import (Lexicon, looks_symbolic, parse_argument,
                            parse_lexicon)
from numlog.psat import parse_psat_instance
from numlog.reductions import parse_graph

LEX = Lexicon(frozenset({"artist", "beekeeper"}), frozenset({"admire"}))

# three lines, each skipped, before the line at fault
PAD = "# a comment\n\n   \t # an indented comment\n"


def english(text):
    return parse_argument(text, LEX)


@pytest.mark.parametrize("reader, text, line", [
    (parse_argument, f">=1 (p & q)\n{PAD}>= (p & q)\n", 5),
    (parse_argument, f"{PAD}>=1 (p & q)\nTherefore:\n>=1 p\nTherefore:\n", 7),
    (english, f"{PAD}At lest 2 artists are beekeepers\n", 4),
    (parse_lexicon, f"nouns: artist\n{PAD}words: beekeeper\n", 5),
    (parse_lexicon, f"nouns: artist\n{PAD}verbs: artist\n", 5),
    (parse_structure, f"domain 1\n{PAD}unary p: 0, 5\n", 5),
    (parse_structure, f"{PAD}unary p: 0, -1\ndomain 1\n", 4),
    (parse_structure, f"{PAD}binary r: (0, 2)\ndomain 2\n", 4),
    (parse_structure, f"domain 1\n{PAD}unary 1p: 0\n", 5),
    (parse_structure, f"domain 1\n{PAD}binary 1r: (0, 0)\n", 5),
    (parse_structure, f"{PAD}domain 3\npredicates: p\ncell {{p}}: 1\n", 4),
    (parse_psat_instance, f"p ; 1\n{PAD}p | 9q ; 1/2\n", 5),
    (parse_graph, f"p edge 2 1\n{PAD}e 1 3\n", 5),
    (parse_graph, f"p edge 2 1\n{PAD}e 1 1\n", 5),
    (parse_graph, f"{PAD}e 3 1\np edge 2 1\n", 4),
    (parse_graph, f"{PAD}p edge -1 0\n", 4),
    (parse_graph, f"p edge 2 1\n{PAD}e 1 x\n", 5),
    (parse_graph, f"{PAD}p edge 3 x\ne 1 2\n", 4),
    (parse_graph, f"{PAD}p edge 3 7\ne 1 2\n", 4),
    (parse_graph, f"{PAD}p edge 3 2\ne 1 2\ne 2 1\n", 4),
    # a numeral is ASCII decimal digits, nothing else int() reads
    (parse_structure, f"domain 11\n{PAD}unary p: 1_0\n", 5),
    (parse_structure, f"domain 11\n{PAD}unary p: +3\n", 5),
    (parse_structure, f"domain 11\n{PAD}unary p: \u0662\n", 5),
    (parse_structure, f"domain 3\n{PAD}binary r: (\u0661, 2)\n", 5),
    (parse_argument, f"{PAD}>=\u0663 (p & q)\n", 4),
    (english, f"{PAD}At least \u0663 artists are beekeepers\n", 4),
    (parse_graph, f"{PAD}p edge \u0663 0\n", 4),
    (parse_graph, f"p edge 3 1\n{PAD}e +1 2\n", 5),
    (parse_psat_instance, f"p ; 1\n{PAD}p ; 1_0/2_0\n", 5),
], ids=["symbolic", "therefore", "english", "lexicon-section",
        "lexicon-fault", "unary-range", "unary-negative", "binary-range",
        "unary-name", "binary-name", "cell-sum", "psat", "edge-range",
        "edge-loop", "edge-before-problem", "negative-nodes", "edge-number",
        "edge-count-number", "edge-count", "edge-count-distinct",
        "unary-underscore", "unary-plus", "unary-arabic", "binary-arabic", "symbolic-arabic",
        "english-arabic", "nodes-arabic", "edge-plus", "psat-underscore"])
def test_error_names_its_line(reader, text, line):
    with pytest.raises(InputError, match=rf"^line {line}: "):
        reader(text)


def test_second_problem_line_names_the_first():
    # it used to replace the first: this file parsed as 5 nodes
    with pytest.raises(InputError, match=r"^line 5: .*repeats line 1"):
        parse_graph(f"p edge 2 0\n{PAD}p edge 5 1\ne 1 5\n")


@pytest.mark.parametrize("reader, text", [
    (parse_structure, f"{PAD}unary p: 0\n"),
    (parse_graph, f"{PAD}e 1 2\n"),
], ids=["no-domain", "no-problem-line"])
def test_an_error_with_no_line_to_name_names_none(reader, text):
    with pytest.raises(InputError) as info:
        reader(text)
    assert not str(info.value).startswith("line ")


@pytest.mark.parametrize("text, symbolic", [
    ("Therefore:\n>=1 (p & q)\n", True),
    (f"{PAD}therefore\n<=0 p\n", True),
    ("Therefore:\nSome artists are beekeepers\n", False),
])
def test_syntax_is_detected_past_a_leading_therefore(text, symbolic):
    assert looks_symbolic(text) is symbolic
    assert parse_argument(text, LEX).conclusion is not None
