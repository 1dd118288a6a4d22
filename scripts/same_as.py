#!/usr/bin/env python3
"""Check that the working tree prints the same outputs as a git revision.

    python3 scripts/same_as.py HEAD
    python3 scripts/same_as.py HEAD~1 --only solve-scan chain-scan

The revision is exported with ``git archive`` into a temporary directory.
Each scan then runs in both trees as a subprocess, with the tree's own
script and its ``src/`` on ``PYTHONPATH``:

    solve-scan       scripts/solve_scan.py --draws 600 --seed 5
    solve-scan-wide  scripts/solve_scan.py --draws 400 --seed 1 --wide
    cli-outputs      scripts/cli_outputs.py DIR, every file of DIR
    chain-scan       scripts/chain_scan.py --draws 3000 --seed 1

One line per scan says ``identical``, or names each differing output with
the count of its differing lines and the first of them in both trees; a scan
that fails in either tree counts as differing.  The exit code is 1 when any scan differs.  A scan
that a change is expected to move is still run, and its lines show how.
Takes about half a minute on two CPUs.
"""

import argparse
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUTDIR = "{outdir}"  # stands for the directory a scan writes its files into
SCANS = {
    "solve-scan": ["scripts/solve_scan.py", "--draws", "600", "--seed", "5"],
    "solve-scan-wide": ["scripts/solve_scan.py", "--draws", "400", "--seed", "1", "--wide"],
    "cli-outputs": ["scripts/cli_outputs.py", OUTDIR],
    "chain-scan": ["scripts/chain_scan.py", "--draws", "3000", "--seed", "1"],
}


def export(rev: str, dest: Path) -> None:
    """Write the tree of ``rev`` into ``dest``."""
    archive = subprocess.run(["git", "archive", "--format=tar", rev], cwd=ROOT, check=True, capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)


def outputs(tree: Path, argv: list[str], scratch: Path) -> dict[str, str]:
    """The scan's outputs in ``tree``: its standard output, and each file it writes, by name."""
    outdir = scratch / "files"
    outdir.mkdir()
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    cmd = [sys.executable, *(str(outdir) if arg == OUTDIR else arg for arg in argv)]
    proc = subprocess.run(cmd, cwd=tree, env=env, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"exit {proc.returncode}: {(proc.stderr.strip().splitlines() or [''])[-1]}")
    found = {"stdout": proc.stdout}
    found.update((path.name, path.read_text()) for path in sorted(outdir.iterdir()))
    return found


def first_difference(a: str, b: str) -> str:
    """How many lines of ``a`` and ``b`` differ, and the first of them in both."""
    lines_a, lines_b = a.splitlines(), b.splitlines()
    width = max(len(lines_a), len(lines_b))
    lines_a, lines_b = lines_a + [None] * (width - len(lines_a)), lines_b + [None] * (width - len(lines_b))
    moved = [k for k in range(width) if lines_a[k] != lines_b[k]] or [width]  # or only the line ends differ
    k = moved[0]
    first = f"{lines_a[k]!r} -> {lines_b[k]!r}" if k < width else "the line ends"
    return f"{len(moved)} of {width} lines, first line {k + 1}: {first}"


def compare(base: Path, head: Path, scans: dict[str, list[str]]) -> int:
    """Run each scan in both trees, print one line per scan, and return the number that differ."""
    differing = 0
    for name, argv in scans.items():
        with tempfile.TemporaryDirectory(prefix="same-as-") as tmp:
            found = []
            for side, tree in (("base", base), ("head", head)):
                (Path(tmp) / side).mkdir()
                try:
                    found.append(outputs(tree, argv, Path(tmp) / side))
                except RuntimeError as err:
                    found.append(None)
                    print(f"{name}: failed in the {side} tree, {err}")
        if None in found:
            differing += 1
            continue
        before, after = found
        moved = [key for key in sorted(before.keys() | after.keys()) if before.get(key) != after.get(key)]
        differing += bool(moved)
        print(f"{name}: identical" if not moved else f"{name}: differs in {len(moved)} output(s)")
        for key in moved:
            print(f"  {key} {first_difference(before.get(key, ''), after.get(key, ''))}")
    return differing


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("rev", help="git revision to compare the working tree with")
    parser.add_argument("--only", nargs="+", choices=list(SCANS), help="run only these scans")
    args = parser.parse_args()
    scans = {name: SCANS[name] for name in args.only or SCANS}
    with tempfile.TemporaryDirectory(prefix="same-as-base-") as tmp:
        export(args.rev, Path(tmp))
        return 1 if compare(Path(tmp), ROOT, scans) else 0


if __name__ == "__main__":
    sys.exit(main())
