#!/usr/bin/env python3
"""Print the lines of each ``src/qbc`` module that the test suite never
executes, and their total.

No coverage package is needed: pytest runs in this process under a
``sys.settrace`` hook (Python 3.10 and 3.11 have no ``sys.monitoring``),
which records each line executed in a frame of a ``src/qbc`` file. The
executable lines of a module are the line numbers its code objects list
(``co_lines``), the ``def`` and ``class`` lines included. Lines run only in
a subprocess, such as the ones the CLI tests start, are not seen, and
neither is code run while the hook is replaced (a debugger, or another
tracer).

Arguments after ``--`` go to pytest; by default it runs the whole suite.

    python3 scripts/line_coverage.py
    python3 scripts/line_coverage.py -- tests/test_cli.py -q
"""

from __future__ import annotations

import os
import pathlib
import sys
import threading

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "qbc"


def executable_lines(path: pathlib.Path) -> set[int]:
    """The line numbers of every code object compiled from ``path``."""
    lines: set[int] = set()
    todo = [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    while todo:
        code = todo.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        todo += (c for c in code.co_consts if hasattr(c, "co_lines"))
    return lines


def _ranges(lines: list[int]) -> str:
    """``lines``, sorted, with each run of consecutive numbers as ``a-b``."""
    out, start = [], None
    for i, n in enumerate(lines):
        if start is None:
            start = n
        if i + 1 == len(lines) or lines[i + 1] != n + 1:
            out.append(str(start) if start == n else f"{start}-{n}")
            start = None
    return ", ".join(out)


def main(argv: list[str]) -> int:
    import pytest

    prefix = str(SRC) + os.sep
    seen: dict[str, set[int]] = {}

    def local(frame, event, _arg):
        if event == "line":
            seen[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def trace(frame, event, _arg):
        name = frame.f_code.co_filename
        if not name.startswith(prefix):
            return None
        seen.setdefault(name, set()).add(frame.f_lineno)
        return local

    sys.path.insert(0, str(SRC.parent))
    threading.settrace(trace)
    sys.settrace(trace)
    try:
        code = pytest.main(argv or ["-q", "-p", "no:cacheprovider",
                                    str(ROOT / "tests")])
    finally:
        sys.settrace(None)
        threading.settrace(None)

    total = missed = 0
    for path in sorted(SRC.glob("*.py")):
        lines = executable_lines(path)
        missing = sorted(lines - seen.get(str(path), set()))
        total += len(lines)
        missed += len(missing)
        if missing:
            print(f"{path.relative_to(ROOT)}: {len(missing)} of {len(lines)}: "
                  f"{_ranges(missing)}")
    print(f"total: {missed} of {total} executable lines never ran")
    return int(code)


if __name__ == "__main__":
    args = sys.argv[1:]
    raise SystemExit(main(args[1:] if args[:1] == ["--"] else args))
