"""Opt-in pytest plugin: the statements of ``src/nijflow`` that a run never
executes, found with ``sys.settrace``, so that no coverage package is needed.

    PYTHONPATH=src:tests python -m pytest -q -p linetrace

It records line events in the package's files, in every thread of the test
process (not in the subprocesses some tests start), and at the end prints
each statement inside a function body that never ran, as ``file:line:
source``.  Docstrings and ``nonlocal``/``global`` declarations run nothing
and are skipped; module and class bodies run at import and are not listed.
It writes no file: sources are read with ``Path.read_text``.
"""

import ast
import sys
import threading
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "nijflow"
_seen: set[tuple[str, int]] = set()
_ours: dict[str, bool] = {}


def _lines(frame, event, arg):
    if event == "line":
        _seen.add((frame.f_code.co_filename, frame.f_lineno))
    return _lines


def _calls(frame, event, arg):
    name = frame.f_code.co_filename
    if name not in _ours:
        _ours[name] = Path(name).resolve().is_relative_to(PACKAGE)
    return _lines if _ours[name] else None


def statements(source: str) -> list[tuple[int, int]]:
    """The (first, last) lines of each statement in a function body, of its
    header only if it is compound: a line event on any of them means it ran."""
    spans = []

    def visit(body, in_def=False):
        for i, stmt in enumerate(body):
            if isinstance(stmt, (ast.Global, ast.Nonlocal)) or (
                    in_def and i == 0 and isinstance(stmt, ast.Expr)
                    and isinstance(stmt.value, ast.Constant)
                    and isinstance(stmt.value.value, str)):
                continue
            blocks = [getattr(stmt, f, []) for f in ("body", "orelse", "finalbody")]
            blocks += [h.body for h in getattr(stmt, "handlers", ())]
            inner = [b[0].lineno for b in blocks if b]
            spans.append((stmt.lineno, max(stmt.lineno, min(inner) - 1)
                          if inner else stmt.end_lineno))
            if not isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                for block in blocks:
                    visit(block)

    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.FunctionDef):
            visit(node.body, in_def=True)
    return sorted(spans)


def pytest_configure(config):
    threading.settrace(_calls)
    sys.settrace(_calls)


def pytest_terminal_summary(terminalreporter):
    sys.settrace(None)
    threading.settrace(None)
    seen = {(Path(name).resolve(), line) for name, line in _seen}
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text()
        lines = source.splitlines()
        for first, last in statements(source):
            if not any((path, line) in seen for line in range(first, last + 1)):
                terminalreporter.write_line(
                    f"{path.relative_to(PACKAGE.parents[1])}:{first}: "
                    f"{lines[first - 1].strip()}")
