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
