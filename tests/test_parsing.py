"""Controlled-English and symbolic parsing: grammar coverage, desugaring,
and round trips."""

import random

import pytest

from numlog.errors import InputError
from numlog.logic import (AT_LEAST, AT_MOST, Lit, RelationalAtom, UnaryAtom,
                          at_least, at_most)
from numlog.parsing import (Lexicon, parse_argument, parse_english,
                            parse_english_sentence, parse_lexicon,
                            parse_symbolic, parse_symbolic_line,
                            render_argument_symbolic, render_english,
                            render_symbolic)

LEX = Lexicon(frozenset({"artist", "beekeeper", "carpenter", "dentist",
                         "electrician", "person"}),
              frozenset({"admire", "despise"}),
              {"people": "person"})


def sent(text):
    return parse_english_sentence(text, LEX)


class TestEnglishGrammar:
    def test_at_least_plain(self):
        assert sent("At least 13 artists are beekeepers") == \
            at_least(13, Lit("artist"), Lit("beekeeper"))

    def test_relational_scoping(self):
        a = sent("At most 1 artist admires at most 7 beekeepers")
        assert a == RelationalAtom(AT_MOST, 1, "artist", "admire",
                                   AT_MOST, 7, "beekeeper")

    def test_all_desugars_to_at_most_zero(self):
        assert sent("All artists are beekeepers") == \
            at_most(0, Lit("artist"), Lit("beekeeper", False))

    def test_some_equals_at_least_one(self):
        assert sent("Some artists are beekeepers") == \
            sent("At least 1 artist is a beekeeper")

    def test_every_and_no(self):
        assert sent("Every artist is a beekeeper") == \
            at_most(0, Lit("artist"), Lit("beekeeper", False))
        assert sent("No artist is a beekeeper") == \
            at_most(0, Lit("artist"), Lit("beekeeper"))

    def test_there_are(self):
        assert sent("There are at least 3 artists") == \
            at_least(3, Lit("artist"), Lit("artist"))
        assert sent("There are at most 0 non-artists") == \
            at_most(0, Lit("artist", False), Lit("artist", False))

    def test_negated_subject(self):
        assert sent("At least 2 non-artists are beekeepers") == \
            at_least(2, Lit("artist", False), Lit("beekeeper"))

    def test_negated_object(self):
        assert sent("At most 4 dentists are not carpenters") == \
            at_most(4, Lit("dentist"), Lit("carpenter", False))

    def test_irregular_plural(self):
        assert sent("At least 2 people are artists") == \
            at_least(2, Lit("person"), Lit("artist"))

    def test_number_insensitive(self):
        assert sent("At least 1 artist is a beekeeper") == \
            sent("At least 1 artists are beekeeper")

    def test_unknown_word(self):
        with pytest.raises(InputError):
            sent("At least 3 wizards are artists")

    def test_malformed_number(self):
        with pytest.raises(InputError):
            sent("At least three artists are beekeepers")

    @pytest.mark.parametrize("text", [
        "",
        "Some non-artists are beekeepers",
        "All artists are non-beekeepers",
        "At least 2 non-artists admire at least 1 beekeeper",
        "At least 2 artists admire at least 1 non-beekeeper",
        "At least 2 artists are a not beekeeper",
        "At least 2 artists are not a",
        "At least 2 artists are at least 3 beekeepers",
        "There are at least 2",
        "At least \u00b2 artists are beekeepers",  # a digit int() cannot read
    ])
    def test_rejects(self, text):
        with pytest.raises(InputError):
            sent(text)

    def test_commutative_canonicalization(self):
        assert sent("At least 2 artists are beekeepers") == \
            sent("At least 2 beekeepers are artists")


class TestSymbolic:
    def test_unary(self):
        assert parse_symbolic_line("<=0 (p & p)") == [at_most(0, Lit("p"), Lit("p"))]

    def test_negative_literal(self):
        assert parse_symbolic_line(">=6 (artist & !dentist)") == \
            [at_least(6, Lit("artist"), Lit("dentist", False))]

    def test_exactly_sugar_expands(self):
        atoms = parse_symbolic_line("=3 (p & q)")
        assert atoms == [at_most(3, Lit("p"), Lit("q")),
                         at_least(3, Lit("p"), Lit("q"))]

    def test_single_literal_shorthand(self):
        assert parse_symbolic_line(">=3 p") == [at_least(3, Lit("p"), Lit("p"))]

    def test_relational(self):
        assert parse_symbolic_line("<=1 artist [admire <=7 beekeeper]") == \
            [RelationalAtom(AT_MOST, 1, "artist", "admire",
                            AT_MOST, 7, "beekeeper")]

    def test_rejects_negative_bounds(self):
        with pytest.raises(InputError):
            parse_symbolic_line(">=-1 (p & q)")


def _random_atom(rng):
    nouns = sorted(LEX.nouns)
    if rng.random() < 0.3:
        return RelationalAtom(
            AT_LEAST if rng.random() < 0.5 else AT_MOST, rng.randint(0, 20),
            rng.choice(nouns), rng.choice(sorted(LEX.verbs)),
            AT_LEAST if rng.random() < 0.5 else AT_MOST, rng.randint(0, 20),
            rng.choice(nouns))
    return UnaryAtom(AT_LEAST if rng.random() < 0.5 else AT_MOST,
                     rng.randint(0, 20),
                     (Lit(rng.choice(nouns), rng.random() < 0.7),
                      Lit(rng.choice(nouns), rng.random() < 0.7)))


class TestRoundTrips:
    def test_english_round_trip(self):
        rng = random.Random(11)
        for _ in range(1000):
            a = _random_atom(rng)
            text = render_english(a, LEX)
            assert parse_english_sentence(text, LEX) == a, text

    def test_symbolic_round_trip(self):
        rng = random.Random(13)
        for _ in range(1000):
            a = _random_atom(rng)
            assert parse_symbolic_line(render_symbolic(a)) == [a]

    def test_all_eight_unary_forms(self):
        for direction in (AT_LEAST, AT_MOST):
            for pol1 in (True, False):
                for pol2 in (True, False):
                    a = UnaryAtom(direction, 2, (Lit("artist", pol1),
                                                 Lit("beekeeper", pol2)))
                    assert parse_english_sentence(render_english(a, LEX), LEX) == a
                    assert parse_symbolic_line(render_symbolic(a)) == [a]


class TestArgumentFiles:
    def test_conclusion_and_comments(self):
        text = """
        # premises
        At least 13 artists are beekeepers
        At most 3 beekeepers are carpenters
        Therefore:
        At least 6 artists are not dentists
        """
        arg = parse_english(text, LEX)
        assert len(arg.premises) == 2
        assert arg.conclusion == at_least(6, Lit("artist"), Lit("dentist", False))

    def test_autodetect_symbolic(self):
        arg = parse_argument(">=1 (p & q)\nTherefore:\n>=1 (p & p)\n")
        assert arg.premises == (at_least(1, Lit("p"), Lit("q")),)
        assert arg.conclusion == at_least(1, Lit("p"), Lit("p"))

    def test_english_needs_lexicon(self):
        with pytest.raises(InputError):
            parse_argument("At least 1 artist is a beekeeper\n")

    @pytest.mark.parametrize("text, line", [
        (">=1 (p & q)\n# comment\n>= (p & q)\n", 3),
        ("<=0 (p & !q)\n\n<=2 (q & 9r)\n", 3),
        (">=1 (p & q)\nTherefore:\n=1 (p & q)\n", 3),
        (">=1 (p & q)\nTherefore:\n>=1 (p & p)\nTherefore:\n", 4),
    ])
    def test_symbolic_errors_name_the_line(self, text, line):
        with pytest.raises(InputError, match=rf"^line {line}: "):
            parse_argument(text)

    @pytest.mark.parametrize("text, line", [
        ("At least 1 artist is a beekeeper\n\nAt lest 2 artists are "
         "beekeepers\n", 3),
        ("# premises\nAt least 2 artists are plumbers\n", 2),
        ("At least 1 artist is a beekeeper\nTherefore:\nSome artists are "
         "dentists\nNo artist is a dentist\n", 4),
    ])
    def test_english_errors_name_the_line(self, text, line):
        with pytest.raises(InputError, match=rf"^line {line}: "):
            parse_argument(text, LEX)

    def test_symbolic_argument_render_round_trip(self):
        rng = random.Random(17)
        from numlog.parsing import ArgumentFile
        arg = ArgumentFile(tuple(_random_atom(rng) for _ in range(5)),
                           _random_atom(rng))
        assert parse_symbolic(render_argument_symbolic(arg)) == arg


class TestLexicon:
    def test_noun_verb_overlap_rejected(self):
        with pytest.raises(InputError):
            Lexicon(frozenset({"fly"}), frozenset({"fly"}))

    @pytest.mark.parametrize("nouns, verbs, plural", [
        ({"artist", "a"}, {"admire"}, {}),
        ({"artist", "not"}, {"admire"}, {}),
        ({"artist"}, {"are"}, {}),
        ({"artist"}, {"admire", "i"}, {}),     # "is" reads as the verb i
        ({"artist", "person"}, {"admire"}, {"no": "person"}),
    ])
    def test_grammar_words_rejected(self, nouns, verbs, plural):
        with pytest.raises(InputError, match="grammar words"):
            Lexicon(frozenset(nouns), frozenset(verbs), plural)

    def test_grammar_word_in_a_lexicon_file_rejected(self):
        with pytest.raises(InputError, match="grammar words"):
            parse_lexicon("nouns: artist, most\nverbs: admire\n")

    @pytest.mark.parametrize("text, line", [
        ("nouns: artist, most\nverbs: admire\n", 1),
        ("verbs: admire\nnouns: artist\nplural: people=person\n", 3),
        ("nouns: fly, artist\nverbs: admire\nverbs: fly\n", 3),
        ("nouns: artist\nverbs: admire\nplural: no=artist\n", 3),
        # words no sentence can use, refused before an argument names them
        ("verbs: admire\nnouns: artist, bee keeper\n", 2),
        ("nouns: bee-keeper\nverbs: admire\n", 1),
        ("nouns: artist\nverbs: admire\nplural: bee keepers=artist\n", 3),
    ])
    def test_lexicon_faults_name_the_line(self, text, line):
        with pytest.raises(InputError, match=rf"^line {line}: "):
            parse_lexicon(text)

    @pytest.mark.parametrize("text, line", [
        ("nouns: Artist, beekeeper\nverbs: admire\n", 1),
        ("nouns: artist\nverbs: Admire\n", 2),
        ("nouns: person\nverbs: admire\nplural: People=person\n", 3),
    ], ids=["noun", "verb", "plural"])
    def test_upper_case_words_name_the_lexicon_line(self, text, line):
        # sentences are matched lower-cased, so no sentence could use them
        with pytest.raises(InputError, match=rf"^line {line}: upper-case"):
            parse_lexicon(text)

    @pytest.mark.parametrize("nouns, plural", [
        ({"artist", "bee keeper"}, {}),
        ({"bee-keeper"}, {}),
        ({"artist"}, {"bee keepers": "artist"}),
    ])
    def test_unusable_words_rejected(self, nouns, plural):
        with pytest.raises(InputError, match="predicate name|single word"):
            Lexicon(frozenset(nouns), frozenset({"admire"}), plural)

    def test_file_round_trip(self):
        text = ("nouns: artist, beekeeper, carpenter, dentist, electrician, "
                "person\nverbs: admire, despise\nplural: people=person\n")
        again = parse_lexicon(text)
        assert again.nouns == LEX.nouns and again.verbs == LEX.verbs
        assert again.plural == LEX.plural
