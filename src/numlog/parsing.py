"""Bidirectional translation between controlled English / a symbolic text
format and counting atoms.

English grammar (one sentence per line, case-insensitive keywords):

    At (least|most) C [non-]NOUN (are|is) [not] [a|an] [non-]NOUN
    At (least|most) C NOUN VERB at (least|most) D NOUN
    (Some|All|Every|No) NOUN (are|is) [not] [a|an] NOUN
    There (are|is) at (least|most) C [non-]NOUN

Sugar desugars at parse time: "Some p are q" is "At least 1 p is a q",
"All p are q" is "At most 0 p are not q", "There are at least C p" is
"At least C p are p".  All/Every/No carry no existential import.  Grammatical
number is accepted loosely everywhere (is/are, singular/plural) and carries
no meaning.  Relational sentences are read with the subject scoping over the
object; no alternative scoping is offered.

The symbolic grammar is lexicon-free, one atom per line:

    >=13 (artist & beekeeper)
    <=0 (p & !q)
    <=1 artist [admire <=7 beekeeper]
    =3 (p & q)            # sugar: expands to the <= / >= pair

Argument files for both syntaxes are UTF-8 text under the line rule of
`errors` (`#` comments, blank lines skipped, errors name their line), and
an optional conclusion follows a line reading `Therefore:`.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from .errors import InputError, at_line, numbered_lines
from .logic import (_IDENT, AT_LEAST, AT_MOST, CountingAtom, Lit,
                    RelationalAtom, UnaryAtom, at_least, at_most)


# The words the English grammar reads.  No lexicon word may be one, or read
# as one under the plural s rule, so a sentence has one reading.
_GRAMMAR_WORDS = frozenset({"there", "are", "is", "at", "least", "most",
                            "some", "all", "every", "no", "not", "a", "an"})


def _lexicon_fault(nouns, verbs, plural) -> tuple[str, str] | None:
    """The first fault of a lexicon as (word at fault, message), or None:
    a noun or verb that is not a predicate name, a plural surface form that
    is not one word, a word with an upper-case letter (sentences are
    matched lower-cased), words both noun and verb, grammar words, or a
    plural whose target is neither noun nor verb (the word at fault is then
    its surface form)."""
    for w in sorted(nouns | verbs):
        if not _IDENT.match(w):
            return w, f"not a valid predicate name: {w!r}"
    for w in sorted(plural):
        if w.split() != [w]:
            return w, f"plural form is not a single word: {w!r}"
    for w in sorted(nouns | verbs | plural.keys()):
        if w != w.lower():
            return w, f"upper-case letters in a lexicon word: {w!r}"
    overlap = nouns & verbs
    if overlap:
        return min(overlap), f"words both noun and verb: {sorted(overlap)}"
    grammar = {w for w in nouns | verbs | plural.keys()
               if {w, w + "s"} & _GRAMMAR_WORDS}
    if grammar:
        return min(grammar), f"grammar words in the lexicon: {sorted(grammar)}"
    for surface, lemma in plural.items():
        if lemma not in nouns and lemma not in verbs:
            return surface, f"plural target {lemma!r} not in lexicon"
    return None


@dataclass(frozen=True)
class Lexicon:
    """Nouns are unary predicates, verbs binary; `plural` maps irregular
    surface forms to lemmas (regular plurals fold by stripping a final s)."""

    nouns: frozenset[str]
    verbs: frozenset[str]
    plural: dict[str, str] = field(default_factory=dict)

    def __post_init__(self):
        fault = _lexicon_fault(self.nouns, self.verbs, self.plural)
        if fault:
            raise InputError(fault[1])

    def lemma(self, word: str, kind: str) -> str:
        """The noun or verb (`kind`) that `word` reads as: itself, the
        lemma of an irregular plural, or itself less a final s."""
        lemmas = self.nouns if kind == "noun" else self.verbs
        for lemma in (word, self.plural.get(word), word.removesuffix("s")):
            if lemma in lemmas:
                return lemma
        raise InputError(f"unknown {kind} {word!r}")

    def surface_plural(self, lemma: str) -> str:
        for surface, lm in self.plural.items():
            if lm == lemma:
                return surface
        return lemma + "s"


@dataclass(frozen=True)
class ArgumentFile:
    premises: tuple[CountingAtom, ...]
    conclusion: CountingAtom | None = None


def parse_lexicon(text: str) -> Lexicon:
    nouns: set[str] = set()
    verbs: set[str] = set()
    plural: dict[str, str] = {}
    line_of: dict[str, int] = {}  # last line naming each word
    for ln, line in numbered_lines(text):
        key, _, rest = line.partition(":")
        key = key.strip().lower()
        items = [t.strip() for t in rest.split(",") if t.strip()]
        with at_line(ln):
            if key == "nouns":
                nouns.update(items)
            elif key == "verbs":
                verbs.update(items)
            elif key == "plural":
                entries = [item.partition("=") for item in items]
                if not all(lemma for _, _, lemma in entries):
                    raise InputError("plural entries look like surface=lemma")
                items = [surface.strip() for surface, _, _ in entries]
                plural.update(zip(items, (lemma.strip() for _, _, lemma in entries)))
            else:
                raise InputError(f"unknown lexicon section {key!r}")
        line_of.update(dict.fromkeys(items, ln))
    fault = _lexicon_fault(nouns, verbs, plural)
    if fault:
        with at_line(line_of[fault[0]]):
            raise InputError(fault[1])
    return Lexicon(frozenset(nouns), frozenset(verbs), plural)


# ---------------------------------------------------------------------------
# English
# ---------------------------------------------------------------------------

_DIRECTION = {"least": AT_LEAST, "most": AT_MOST}


def _noun_literal(word: str, lex: Lexicon) -> Lit:
    noun = word.removeprefix("non-")
    return Lit(lex.lemma(noun, "noun"), noun == word)


def _unary(lex, kind, bound, subj, negated, obj) -> UnaryAtom:
    obj = _noun_literal(obj, lex)
    return UnaryAtom(_DIRECTION[kind], int(bound),
                     (_noun_literal(subj, lex), obj.opposite() if negated else obj))


def _sugar(lex, word, subj, negated, obj) -> UnaryAtom:
    if word in ("all", "every"):
        negated = not negated  # All p are q == No p are not q
    # Some p are q == At least 1 p is a q; No p are q == At most 0 p are q
    kind, bound = ("least", "1") if word == "some" else ("most", "0")
    return _unary(lex, kind, bound, subj, negated, obj)


def _relational(lex, kind, bound, subj, verb, inner_kind, inner_bound, obj):
    return RelationalAtom(_DIRECTION[kind], int(bound), lex.lemma(subj, "noun"),
                          lex.lemma(verb, "verb"), _DIRECTION[inner_kind],
                          int(inner_bound), lex.lemma(obj, "noun"))


# The four sentence patterns, matched against the lower-cased sentence with
# single spaces between its tokens; each builder takes the lexicon and the
# pattern's groups.
_QUANTIFIER = r"at (least|most) ([0-9]+)"         # kind, bound
_NOUN = r"(?!non-)(\S+)"                          # NOUN, without non-
_LITERAL = r"(\S+)"                               # [non-]NOUN
_COPULA = r"(?:are|is)( not)?(?: an?)?"           # negated
_ENGLISH = [(re.compile(pattern), build) for pattern, build in (
    (rf"there (?:are|is) {_QUANTIFIER} {_LITERAL}",
     lambda lex, kind, bound, noun: _unary(lex, kind, bound, noun, None, noun)),
    (rf"(some|all|every|no) {_NOUN} {_COPULA} {_NOUN}", _sugar),
    (rf"{_QUANTIFIER} {_LITERAL} {_COPULA} {_LITERAL}", _unary),
    (rf"{_QUANTIFIER} {_NOUN} (\S+) {_QUANTIFIER} {_NOUN}", _relational),
)]


def parse_english_sentence(sentence: str, lex: Lexicon) -> CountingAtom:
    """The atom of the one grammar pattern that `sentence` matches."""
    text = " ".join(sentence.lower().split())
    for pattern, build in _ENGLISH:
        if (m := pattern.fullmatch(text)) is not None:
            return build(lex, *m.groups())
    raise InputError(f"cannot parse sentence: {sentence!r}")


def _argument_lines(text: str):
    """Yield (line number, is_conclusion, line) for each sentence line,
    reading the Therefore: separator."""
    in_conclusion = False
    for ln, line in numbered_lines(text):
        if line.rstrip(":").strip().lower() != "therefore":
            yield ln, in_conclusion, line
        elif in_conclusion:
            with at_line(ln):
                raise InputError("multiple Therefore: separators")
        else:
            in_conclusion = True


def _parse_argument_lines(text: str, parse_line) -> ArgumentFile:
    """The premises and conclusion that `parse_line` reads off the lines of
    an argument file; an InputError names its line."""
    premises: list[CountingAtom] = []
    conclusion: list[CountingAtom] = []
    for ln, is_conc, line in _argument_lines(text):
        with at_line(ln):
            atoms = parse_line(line)
            if is_conc and (conclusion or len(atoms) != 1):
                raise InputError("the conclusion must be a single atom")
        (conclusion if is_conc else premises).extend(atoms)
    return ArgumentFile(tuple(premises), conclusion[0] if conclusion else None)


def parse_english(text: str, lex: Lexicon) -> ArgumentFile:
    return _parse_argument_lines(
        text, lambda line: [parse_english_sentence(line, lex)])


def _render_noun(lit: Lit, lex: Lexicon, count: int) -> str:
    if lit.pred not in lex.nouns:
        raise InputError(f"predicate {lit.pred!r} not in lexicon")
    word = lit.pred if count == 1 else lex.surface_plural(lit.pred)
    return ("non-" + word) if not lit.positive else word


def render_english(a: CountingAtom, lex: Lexicon) -> str:
    """Render an atom as one grammar sentence; parse_english inverts it."""
    if isinstance(a, UnaryAtom):
        if a.bound < 0:
            raise InputError("English rendering needs a bound >= 0")
        kind = "least" if a.direction == AT_LEAST else "most"
        l1, l2 = a.lits
        if l1 == l2:
            verb = "is" if a.bound == 1 else "are"
            return f"There {verb} at {kind} {a.bound} {_render_noun(l1, lex, a.bound)}"
        copula = "is" if a.bound == 1 else "are"
        if l2.positive:
            obj = _render_noun(l2, lex, a.bound)
            article = "a " if a.bound == 1 else ""
            return (f"At {kind} {a.bound} {_render_noun(l1, lex, a.bound)} "
                    f"{copula} {article}{obj}")
        obj = _render_noun(l2.opposite(), lex, a.bound)
        return (f"At {kind} {a.bound} {_render_noun(l1, lex, a.bound)} "
                f"{copula} not {obj}")
    if isinstance(a, RelationalAtom):
        if a.bound < 0 or a.inner_bound < 0:
            raise InputError("English rendering needs bounds >= 0")
        if a.subject not in lex.nouns or a.obj not in lex.nouns:
            raise InputError("relational nouns missing from lexicon")
        if a.verb not in lex.verbs:
            raise InputError(f"verb {a.verb!r} not in lexicon")
        kind = "least" if a.direction == AT_LEAST else "most"
        inner_kind = "least" if a.inner_direction == AT_LEAST else "most"
        subj = a.subject if a.bound == 1 else lex.surface_plural(a.subject)
        verb = a.verb + "s" if a.bound == 1 else a.verb
        obj = a.obj if a.inner_bound == 1 else lex.surface_plural(a.obj)
        return (f"At {kind} {a.bound} {subj} {verb} "
                f"at {inner_kind} {a.inner_bound} {obj}")
    raise InputError(f"cannot render {a!r}")


# ---------------------------------------------------------------------------
# Symbolic format
# ---------------------------------------------------------------------------

_SYM_UNARY = re.compile(
    r"(?P<dir>>=|<=|=)\s*(?P<bound>[0-9]+)\s*"
    r"\(\s*(?P<l1>!?\w+)\s*&\s*(?P<l2>!?\w+)\s*\)\Z")
_SYM_SINGLE = re.compile(
    r"(?P<dir>>=|<=|=)\s*(?P<bound>[0-9]+)\s*(?P<l1>!?\w+)\Z")
_SYM_REL = re.compile(
    r"(?P<dir>>=|<=)\s*(?P<bound>[0-9]+)\s*(?P<subj>\w+)\s*"
    r"\[\s*(?P<verb>\w+)\s+(?P<idir>>=|<=)\s*(?P<ibound>[0-9]+)\s*(?P<obj>\w+)\s*\]\Z")


def _sym_lit(tok: str) -> Lit:
    if tok.startswith("!"):
        return Lit(tok[1:], False)
    return Lit(tok)


def parse_symbolic_line(line: str) -> list[CountingAtom]:
    """One symbolic atom; '=' sugar yields the <= / >= pair."""
    line = line.strip()
    m = _SYM_REL.match(line)
    if m:
        return [RelationalAtom(m["dir"], int(m["bound"]), m["subj"], m["verb"],
                               m["idir"], int(m["ibound"]), m["obj"])]
    m = _SYM_UNARY.match(line) or _SYM_SINGLE.match(line)
    if not m:
        raise InputError(f"cannot parse symbolic atom: {line!r}")
    l1 = _sym_lit(m["l1"])
    l2 = _sym_lit(m.groupdict().get("l2") or m["l1"])
    bound = int(m["bound"])
    if m["dir"] == "=":
        return [at_most(bound, l1, l2), at_least(bound, l1, l2)]
    return [UnaryAtom(m["dir"], bound, (l1, l2))]


def parse_symbolic(text: str) -> ArgumentFile:
    return _parse_argument_lines(text, parse_symbolic_line)


def render_symbolic(a: CountingAtom) -> str:
    if not isinstance(a, (UnaryAtom, RelationalAtom)):
        raise InputError(f"cannot render {a!r}")
    return str(a)


def render_argument_symbolic(arg: ArgumentFile) -> str:
    lines = [render_symbolic(a) for a in arg.premises]
    if arg.conclusion is not None:
        lines.append("Therefore:")
        lines.append(render_symbolic(arg.conclusion))
    return "\n".join(lines) + "\n"


def looks_symbolic(text: str) -> bool:
    for _, _, line in _argument_lines(text):
        return line.lstrip()[:1] in ("<", ">", "=")
    return False


def parse_argument(text: str, lex: Lexicon | None = None) -> ArgumentFile:
    """Parse an argument file, auto-detecting the syntax."""
    if looks_symbolic(text):
        return parse_symbolic(text)
    if lex is None:
        raise InputError("English argument files need a lexicon")
    return parse_english(text, lex)
