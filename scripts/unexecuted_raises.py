"""List every `raise` statement in src/mhd2d that the test suite never runs.

Runs pytest in this process under a `sys.settrace` line tracer that traces
only frames of files in src/mhd2d, finds each `raise` statement with `ast`,
and prints those whose first line no traced frame reached.  Exits 1 if the
tests fail or any `raise` is left unexecuted.  Extra arguments go to pytest.

    python3 scripts/unexecuted_raises.py [pytest args]
"""

from __future__ import annotations

import ast
import os
import sys
import threading
from pathlib import Path

import pytest

SRC = (Path(__file__).resolve().parent.parent / "src" / "mhd2d").resolve()
ran = set()  # (resolved file name, line)
_in_src = {}  # code file name -> resolved name, or None outside SRC


def _lines(frame, event, arg):
    if event == "line":
        ran.add((_in_src[frame.f_code.co_filename], frame.f_lineno))
    return _lines


def _calls(frame, event, arg):
    # Only frames of the package get the line tracer; the rest run untraced.
    name = frame.f_code.co_filename
    if name not in _in_src:
        path = os.path.realpath(name)
        _in_src[name] = path if os.path.dirname(path) == str(SRC) else None
    return _lines if _in_src[name] else None


def main() -> int:
    threading.settrace(_calls)
    sys.settrace(_calls)
    try:
        status = pytest.main(["-q", "-p", "no:cacheprovider", *sys.argv[1:]])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    raises = [
        (path, node.lineno)
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Raise)
    ]
    missed = sorted((path.name, line) for path, line in raises if (str(path), line) not in ran)
    print(f"{len(raises) - len(missed)} of {len(raises)} raise statements in src/mhd2d ran")
    for name, line in missed:
        print(f"never raised: src/mhd2d/{name}:{line}")
    return 1 if status != 0 or missed else 0


if __name__ == "__main__":
    sys.exit(main())
