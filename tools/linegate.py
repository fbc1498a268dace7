"""Line gate: every library statement inside a function runs under tier-1.

Records the lines of `src/redundarith/*.py` that run while the tier-1
suite runs, then lists each statement inside a function or method body
that never ran.  The rule is: test the statement or delete it.  There is
no exemption marker.

A statement counts as run when a line event fired on any line of its
header: all of its lines for a simple statement, the lines before its
body for a compound one.  Docstrings are not counted, and neither are
statements outside function bodies, which run at import.

Standard library only (`sys.settrace`, `threading.settrace`, `ast`), so
it runs where `coverage` and `sys.monitoring` are not available:

    PYTHONPATH=src python tools/linegate.py

Exits 1 if a test fails or a statement never ran, naming each such
statement as `file:line: source`.
"""

from __future__ import annotations

import ast
import os
import sys
import threading
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
LIBRARY = ROOT / "src" / "redundarith"
TIER1_ARGS = ["-q", "--continue-on-collection-errors", str(ROOT)]


def record(paths):
    """Start recording line events in `paths`; returns {path: set of lines}."""
    hits = {str(path): set() for path in paths}
    owners = {}  # co_filename -> its line set, or None outside `paths`

    def local(frame, event, arg):
        if event == "line":
            owners[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def tracer(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in owners:
            owners[name] = hits.get(os.path.realpath(name))
        return local if owners[name] is not None else None

    sys.settrace(tracer)
    threading.settrace(tracer)
    return hits


def _headers(body):
    """(first line, header lines) of every statement in a function body and
    the blocks nested in it; ast.walk reaches nested functions itself."""
    for stmt in body:
        if isinstance(stmt, (ast.Global, ast.Nonlocal)):
            continue  # declarations compile to no instruction
        first = min([stmt.lineno] + [d.lineno for d in getattr(stmt, "decorator_list", ())])
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield first, range(first, max(stmt.body[0].lineno, first + 1))
            continue
        inner = [getattr(stmt, name) for name in ("body", "orelse", "finalbody") if getattr(stmt, name, None)]
        inner += [handler.body for handler in getattr(stmt, "handlers", ())]
        inner += [case.body for case in getattr(stmt, "cases", ())]
        last = min((block[0].lineno for block in inner), default=stmt.end_lineno + 1) - 1
        yield first, range(first, max(last, first) + 1)
        for block in inner:
            yield from _headers(block)


def unrun_statements(path: Path, lines: set) -> list:
    """`file:line: source` for each function-body statement of `path` with
    no line event on its header."""
    source = path.read_text(encoding="utf-8")
    text = source.splitlines()
    out = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body[1:] if ast.get_docstring(node) is not None else node.body
            for first, header in _headers(body):
                if lines.isdisjoint(header):
                    out.add(first)
    rel = path.relative_to(ROOT)
    return [f"{rel}:{n}: {text[n - 1].strip()}" for n in sorted(out)]


def main() -> int:
    sys.path.insert(0, str(LIBRARY.parent))  # the checkout's library, not an installed one
    paths = sorted(LIBRARY.glob("*.py"))
    hits = record(paths)
    status = pytest.main(TIER1_ARGS)
    sys.settrace(None)
    threading.settrace(None)
    unrun = [line for path in paths for line in unrun_statements(path, hits[str(path)])]
    for line in unrun:
        print(line)
    print(f"line gate: {len(unrun)} unrun statement(s) in {LIBRARY.relative_to(ROOT)}/*.py; tests exit {int(status)}")
    return 1 if unrun or status != 0 else 0


if __name__ == "__main__":
    sys.exit(main())
