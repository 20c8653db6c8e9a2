"""Every public top-level function in `numlog` has a caller in the package
or the benchmark, or a stated reason to stay.

A caller is any `Name` or `Attribute` reference in `src/numlog/*.py`
(the `__init__` re-exports left out) or `bench/*.py`; a function's
references to itself do not count, nor do imports, comments or docstrings.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "numlog"

ALLOWED = {
    "check_prop2_bound": "a paper claim the acceptance tests assert (ROADMAP item 5)",
    "enumerate_solutions": "a paper claim the acceptance tests assert (ROADMAP item 5)",
    "is_numerically_explicit": "a paper claim the acceptance tests assert (ROADMAP item 5)",
    "sparsify_natural": "bench/spans.py rebinds it by name",
    "sparsify_rational": "bench/spans.py rebinds it by name",
    "system_from_rows": "the public constructor for dense rational rows",
    "decode_tiling": "the tiling witness's inverse, for ROADMAP item 7",
    "render_english": "the English parser's inverse, for ROADMAP item 14",
}


def _sources():
    yield from (p for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py")
    yield from sorted((ROOT / "bench").glob("*.py"))


def _references(node, skip=None) -> set[str]:
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
    return names - {skip}


def _scan():
    public, referenced = {}, set()
    for path in _sources():
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for stmt in tree.body:
            if isinstance(stmt, ast.FunctionDef):
                referenced |= _references(stmt, skip=stmt.name)
                if path.parent == PACKAGE and not stmt.name.startswith("_"):
                    public[stmt.name] = path.name
            else:
                referenced |= _references(stmt)
    return public, referenced


def test_every_public_function_has_a_caller():
    public, referenced = _scan()
    dead = sorted(f"{module}:{name}" for name, module in public.items()
                  if name not in referenced and name not in ALLOWED)
    assert dead == []


def test_every_allowlist_entry_is_needed():
    public, referenced = _scan()
    assert set(ALLOWED) <= set(public)
    assert not set(ALLOWED) & referenced
