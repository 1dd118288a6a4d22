#!/usr/bin/env python3
"""Write the outputs of a fixed list of CLI commands into one directory.

Each command runs in process through ``aoi_sched.cli.main``, and each
experiment script through its own ``__main__``.  For a command NAME the
directory gets the CSVs it writes (NAME.csv, NAME-trace.csv, ...), its
standard output (NAME.stdout), its standard error (NAME.stderr) and its exit
code (NAME.exit).  Outputs of two versions of the code compare file by file:

    PYTHONPATH=src python scripts/cli_outputs.py before/
    (change the code)
    PYTHONPATH=src python scripts/cli_outputs.py after/
    diff -r before/ after/

``tests/golden`` holds the outputs of the current code, and
``tests/test_scripts.py`` compares every file with them byte for byte.  A
change that alters an output regenerates them, and its diff shows each
changed line:

    PYTHONPATH=src python scripts/cli_outputs.py tests/golden

Takes about ten seconds on two CPUs.
"""

import contextlib
import io
import os
import runpy
import sys
from pathlib import Path

from aoi_sched import cli

SCRIPTS = Path(__file__).resolve().parent
HARQ = ["--p0", "0.5", "--lam", "0.5", "--rmax", "3"]
ARQ = ["--p0", "0.5", "--lam", "1.0", "--rmax", "0"]
# name: the argv of the subcommand, or of an experiment script (a .py name);
# output names are relative, so they land in the directory.
COMMANDS = {
    "solve-harq": ["solve", *HARQ, "--nmax", "60", "--eta", "5", "--out", "solve-harq.csv"],
    "solve-arq": ["solve", *ARQ, "--nmax", "80", "--eta", "10", "--out", "solve-arq.csv"],
    "solve-error": ["solve", *HARQ, "--nmax", "20", "--eta", "1000"],
    "search-eta": ["search-eta", *HARQ, "--nmax", "120", "--cmax", "0.4", "--trace-out", "search-eta-trace.csv"],
    # Its last probe finds the policy of the one before still optimal and reuses its evaluation.
    "search-eta-reuse": [
        "search-eta", *HARQ, "--nmax", "120", "--cmax", "0.3", "--trace-out", "search-eta-reuse-trace.csv",
    ],
    "simulate-optimal": [
        "simulate", "--policy", "optimal", "--cmax", "0.4", "--horizon", "5000", "--reps", "20",
        "--out", "simulate-optimal.csv", "--trace-out", "simulate-optimal-trace.csv",
    ],
    # The benchmark's verify shape: batches of 3, 3, 3, 3, 3 and 1 replications at a long horizon.
    "simulate-batches": ["simulate", "--policy", "optimal", "--cmax", "0.4", "--horizon", "100000", "--reps", "16"],
    "simulate-always-new": ["simulate", "--policy", "always-new", "--horizon", "999", "--reps", "3"],
    "simulate-arq-optimal": ["simulate", "--policy", "arq-optimal", *ARQ, "--cmax", "0.3", "--horizon", "999", "--reps", "3"],
    # The search's two tables differ in several states here, in one that both chains visit; the
    # budget-optimal policy randomizes that one.
    "simulate-mixture": [
        "simulate", "--policy", "optimal", *HARQ, "--nmax", "120", "--cmax", "0.4", "--horizon", "999", "--reps", "3",
    ],
    "simulate-periodic": [
        "simulate", "--policy", "periodic", "--lam", "1", "--rmax", "0", "--cmax", "0.3", "--horizon", "999",
        "--reps", "3", "--out", "simulate-periodic.csv",
    ],
    "learn": [
        "learn", "--reps", "100", "--steps", "2000", "--timeline-out", "learn-timeline.csv",
        "--qtable-out", "learn-qtable.csv", "--compare-rvi",
    ],
    "learn-harq": ["learn", *HARQ, "--nmax", "40", "--reps", "3", "--steps", "500", "--qtable-out", "learn-harq-qtable.csv"],
    "learn-steps0": ["learn", "--steps", "0", "--timeline-out", "learn-steps0-timeline.csv"],
    "arq": ["arq", "--p", "0.5", "--cmax", "0.35", "--format", "csv"],
    "arq-long-budget": ["arq", "--p", "0.3", "--cmax", "0.123456789", "--format", "csv"],
    "budget-sweep-quick": ["budget_sweep.py", "--quick", "--out", "budget-sweep-quick.csv"],
    "budget-sweep-exact": ["budget_sweep.py", "--quick", "--horizon", "0", "--out", "budget-sweep-exact.csv"],
    "budget-sweep-workers": [
        "budget_sweep.py", "--quick", "--p0", "0.5", "--workers", "2", "--out", "budget-sweep-workers.csv",
    ],
    "sweep-failing": [
        "sweep", *HARQ, "--cmax", "0.01", "0.3", "--horizon", "0", "--nmax", "60", "--out", "sweep-failing.csv",
    ],
    "sweep-stdout": ["sweep", *ARQ, "--cmax", "0.3", "0.5", "--horizon", "500", "--reps", "3", "--nmax", "60"],
    "verify-quick": ["verify", "--quick"],
    "verify": ["verify"],
}


def main(outdir: str) -> int:
    out, argv0 = Path(outdir), sys.argv
    out.mkdir(parents=True, exist_ok=True)
    os.environ["AOI_SCHED_OUTDIR"] = str(out.resolve())  # where the CLI puts relative output names
    for name, argv in COMMANDS.items():
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            try:
                if argv[0].endswith(".py"):  # a script ends in sys.exit
                    sys.argv = argv
                    runpy.run_path(str(SCRIPTS / argv[0]), run_name="__main__")
                code = cli.main(argv)
            except SystemExit as exc:
                code = exc.code
        (out / f"{name}.stdout").write_text(stdout.getvalue())
        (out / f"{name}.stderr").write_text(stderr.getvalue())
        (out / f"{name}.exit").write_text(f"{code}\n")
    sys.argv = argv0
    return 0


if __name__ == "__main__":
    if len(sys.argv) != 2 or sys.argv[1] in ("-h", "--help"):
        print(__doc__)
        sys.exit(0 if len(sys.argv) == 2 else 2)
    sys.exit(main(sys.argv[1]))
