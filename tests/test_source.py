"""Source-level rules that hold for every library module."""

import ast
import functools
import importlib
import importlib.util
from pathlib import Path

import pytest

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


def test_benchmark_span_names_resolve():
    # the benchmark's tracer wraps library functions by name; a rename
    # would otherwise show only in its own, much slower self-tests
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    if not path.is_file():
        pytest.skip("no benchmark tracer in this checkout")
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = []
    for pairs in tracer.SPANS.values():
        for module, attr in pairs:
            target = importlib.import_module(f"redundarith.{module}")
            try:
                functools.reduce(getattr, attr.split("."), target)
            except AttributeError:
                missing.append(f"{module}.{attr}")
    assert tracer.SPANS
    assert missing == []
