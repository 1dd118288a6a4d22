#!/usr/bin/env python3
"""Print every line of ``src/aoi_sched`` that a pytest run never executes.

    python scripts/unreached_lines.py -q
    python scripts/unreached_lines.py -q tests/test_arq.py

The arguments go to ``pytest.main``, which runs in this process under a
``sys.settrace`` tracer that records the lines run in the package's files;
frames of other files are not traced line by line.  The executable lines
of a file are those its compiled code objects map instructions to
(``co_lines``).  After pytest's own output comes one line per executable
line never run, ``src/aoi_sched/<file>:<line>: <source>``, then their
count; the exit code is pytest's.  Lines run only in a worker process, of
a ``ProcessPoolExecutor`` say, count as not run.  Tier-1 takes about twice
as long as without the tracer.
"""

import os
import sys
import threading
import types
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "aoi_sched"


def executable_lines(source: str, filename: str) -> set[int]:
    """The line numbers that the code objects compiled from ``source`` map an instruction to."""
    lines, todo = set(), [compile(source, filename, "exec")]
    while todo:
        code = todo.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        todo.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
    return lines


def traced(run):
    """Call ``run()`` under a tracer; return its result and the lines run per real path in ``PACKAGE``."""
    prefix = str(PACKAGE) + os.sep
    ran = defaultdict(set)
    sets = {}  # code object -> the line set of its file, or None outside the package

    def on_call(frame, event, arg):
        code = frame.f_code
        seen = sets.get(code, False)
        if seen is False:
            path = os.path.realpath(code.co_filename)
            seen = sets[code] = ran[path] if path.startswith(prefix) else None
        if seen is None:
            return None

        def on_line(frame, event, arg):
            seen.add(frame.f_lineno)
            return on_line

        return on_line(frame, event, arg)

    threading.settrace(on_call)
    sys.settrace(on_call)
    try:
        result = run()
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return result, ran


def main(argv: list[str]) -> int:
    sys.path.insert(0, str(ROOT / "src"))
    import pytest

    code, ran = traced(lambda: pytest.main(argv))
    missed = 0
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text()
        text = source.splitlines()
        for line in sorted(executable_lines(source, str(path)) - ran[str(path.resolve())]):
            print(f"{path.relative_to(ROOT)}:{line}: {text[line - 1].strip()}")
            missed += 1
    print(f"{missed} unreached lines")
    return int(code)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
