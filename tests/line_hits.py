#!/usr/bin/env python3
"""The statements of src/xbstab that a pytest run never executes.

    python3 tests/line_hits.py [pytest args]

Runs pytest in this process, with the given arguments (Tier-1 without
any), under sys.settrace and threading.settrace, following only frames
whose code comes from src/xbstab. Then lists, per module, every statement
that never ran: a statement ran when a line event fired on one of its
lines (for a compound statement, on its header). Docstrings, def and
class statements, imports and global declarations are not listed.

Forked children (the CSV writers and the sweep lanes) and CLI runs in a
subprocess are not counted, so statements that only they execute are
listed as never run. Tracing makes Tier-1 about three times slower.
Exits with pytest's exit code.
"""

from __future__ import annotations

import ast
import os
import sys
import threading
from pathlib import Path

_ROOT = Path(__file__).resolve().parents[1]
_SRC = _ROOT / "src" / "xbstab"
_SKIP = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Import,
         ast.ImportFrom, ast.Global, ast.Nonlocal)


def statements(source: str) -> dict:
    """{first line: (first, last line)} of the lines that tell whether a
    statement of `source` ran: all of a simple statement's, the header of
    a compound one."""
    spans = {}
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.stmt) or isinstance(node, _SKIP):
            continue
        if isinstance(node, ast.Expr) and isinstance(node.value,
                                                     ast.Constant):
            continue                    # a docstring or a bare constant
        body = getattr(node, "body", None)
        last = node.end_lineno
        if isinstance(body, list) and body:
            last = max(node.lineno, body[0].lineno - 1)
        spans[node.lineno] = (node.lineno, last)
    return spans


class LineHits:
    """The (file, line) pairs of src/xbstab that fired a line event."""

    def __init__(self):
        self.hits = set()
        self._ours = {}                 # co_filename: under src/xbstab

    def _line(self, frame, event, arg):
        if event == "line":
            self.hits.add((frame.f_code.co_filename, frame.f_lineno))
        return self._line

    def __call__(self, frame, event, arg):
        name = frame.f_code.co_filename
        ours = self._ours.get(name)
        if ours is None:
            ours = self._ours[name] = Path(name).resolve().parent == _SRC
        return self._line if ours else None

    def never_run(self) -> dict:
        """{module path: [(line, source line)] of the statements that
        never ran}."""
        lines = {}
        for name, line in self.hits:
            lines.setdefault(Path(name).resolve(), set()).add(line)
        out = {}
        for path in sorted(_SRC.glob("*.py")):
            source = path.read_text(encoding="utf-8")
            text = source.splitlines()
            ran = lines.get(path, set())
            missed = [(first, text[first - 1].strip())
                      for first, (a, b) in sorted(statements(source).items())
                      if not any(r in ran for r in range(a, b + 1))]
            if missed:
                out[path.relative_to(_ROOT)] = missed
        return out


def main(argv=None) -> int:
    import pytest

    args = sys.argv[1:] if argv is None else argv
    tracer = LineHits()
    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        code = pytest.main(args)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    missed = tracer.never_run()
    total = sum(map(len, missed.values()))
    print(f"\n{total} statements of src/xbstab never ran")
    for path, rows in missed.items():
        print(f"\n{path}: {len(rows)}")
        for line, text in rows:
            print(f"  {line:5d}  {text}")
    return int(code)


if __name__ == "__main__":
    # src/ for this process and for the CLI runs the tests start
    _src = str(_ROOT / "src")
    sys.path.insert(0, _src)
    os.environ["PYTHONPATH"] = os.pathsep.join(
        filter(None, [_src, os.environ.get("PYTHONPATH")]))
    sys.exit(main())
