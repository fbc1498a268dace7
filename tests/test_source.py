"""Source-level rules that hold for every library module."""

import ast
from pathlib import Path

import redundarith

SOURCES = sorted(Path(redundarith.__file__).parent.glob("*.py"))


def test_library_has_no_assert_statements():
    # python -O strips asserts, so invariants must be raised checks
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert SOURCES
    assert found == []
