#!/usr/bin/env python3
"""Print the code lines of each ``src/aoi_sched/*.py`` file, and a total.

    python scripts/code_lines.py
    python scripts/code_lines.py HEAD~1

A code line holds a Python token other than a comment.  Blank lines,
comment lines and the docstrings of modules, classes and functions are
left out; a statement over several lines counts each of them.  With a git
revision, each file's count at that revision (read through ``git show``)
comes first, then the count in the working tree and the difference.
"""

import argparse
import ast
import io
import subprocess
import sys
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = "src/aoi_sched"
SKIP = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER}


def code_lines(source: str) -> int:
    """The number of lines of ``source`` that hold a token other than a comment or a docstring."""
    docstrings = []
    for node in ast.walk(ast.parse(source)):
        documented = isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
        if documented and ast.get_docstring(node, clean=False) is not None:
            doc = node.body[0]
            docstrings.append(((doc.lineno, doc.col_offset), (doc.end_lineno, doc.end_col_offset)))
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type in SKIP or any(start <= tok.start and tok.end <= end for start, end in docstrings):
            continue
        lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines)


def at_revision(rev: str, path: str) -> int:
    """``path``'s code lines at git revision ``rev``, 0 where it has no such file."""
    shown = subprocess.run(["git", "show", f"{rev}:{path}"], cwd=ROOT, capture_output=True, text=True)
    return code_lines(shown.stdout) if shown.returncode == 0 else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("rev", nargs="?", help="git revision to compare with")
    args = parser.parse_args(argv)
    names = {path.name for path in (ROOT / PACKAGE).glob("*.py")}
    if args.rev:
        listed = subprocess.run(
            ["git", "ls-tree", "--name-only", f"{args.rev}:{PACKAGE}"], cwd=ROOT, capture_output=True, text=True, check=True
        )
        names |= {name for name in listed.stdout.split() if name.endswith(".py")}
    totals = [0, 0]
    for name in sorted(names):
        path = ROOT / PACKAGE / name
        now = code_lines(path.read_text()) if path.exists() else 0
        if args.rev:
            then = at_revision(args.rev, f"{PACKAGE}/{name}")
            totals[0] += then
            print(f"{name:16} {then:6} {now:6} {now - then:+6}")
        else:
            print(f"{name:16} {now:6}")
        totals[1] += now
    if args.rev:
        print(f"{'total':16} {totals[0]:6} {totals[1]:6} {totals[1] - totals[0]:+6}")
    else:
        print(f"{'total':16} {totals[1]:6}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
