"""Exceptions shared by all numlog modules, and the rules every text format
reads by: `#` comments, blank lines skipped, errors name their line, and
numerals are ASCII decimal digits."""

from contextlib import contextmanager


class NumlogError(Exception):
    """Base class for all package errors."""


class InputError(NumlogError):
    """Malformed input: files, sentences, structures, or argument values."""


class UnknownPredicateError(InputError):
    """A formula mentions a predicate the structure or lexicon does not interpret."""


class BudgetExhaustedError(NumlogError):
    """A search or solver ran out of budget, or an input passed a size cap
    (predicates, live 1-types, walk nodes, nesting depth, box volume).

    Deliberately distinct from "infeasible"/"not derivable": callers must
    report Unknown, never a definite verdict, when they catch this.
    """


class NotASolutionError(NumlogError):
    """A vector handed to a sparsifier does not solve the system exactly."""


def numbered_lines(text: str):
    """Yield (line number from 1, line) for each line of `text` that is not
    blank once its `#` comment and outer whitespace are removed."""
    for ln, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield ln, line


@contextmanager
def at_line(ln: int):
    """Re-raise the block's InputError, ValueError or IndexError as an
    InputError that starts `line ln: `."""
    try:
        yield
    except (InputError, ValueError, IndexError) as exc:
        raise InputError(f"line {ln}: {exc}") from exc


def decimal(text: str) -> int:
    """The value of a numeral of ASCII decimal digits, the one numeral form
    of every text format; anything else (`-1`, `+3`, `1_0`, `٢`) is an
    InputError."""
    if not (text.isascii() and text.isdigit()):
        raise InputError(f"not a decimal numeral: {text!r}")
    return int(text)
