import ast
from pathlib import Path

import bellfacets

SOURCES = sorted(Path(bellfacets.__file__).parent.glob("*.py"))


def test_library_has_no_assert_statements():
    # invariants that decide a result are explicit checks: python -O strips
    # an assert, and a test reaches only the asserts it happens to trip
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert len(SOURCES) >= 9
    assert found == []


def test_census_imports_only_tables_and_orbits():
    # the census needs the sign functions and the orbit walk, not the
    # polytope: the N = 2 CHSH fact is held by tests, not re-proved per run
    path = Path(bellfacets.__file__).parent / "enumeration.py"
    imported = {
        (node.module or "").removeprefix("bellfacets.")
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)))
        if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").startswith("bellfacets"))
    }
    assert imported == {"fourier", "symmetry"}


def test_all_names_are_bound_once_and_sorted():
    # a deletion that leaves a stale export fails here, not only at `import *`
    names = bellfacets.__all__
    assert [name for name in names if not hasattr(bellfacets, name)] == []
    assert len(set(names)) == len(names)
    assert names == sorted(names)
