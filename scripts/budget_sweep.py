#!/usr/bin/env python3
"""Reproduce the age-versus-budget comparison data.

For each budget from 0.1 to 1 in steps of 0.05 this computes the optimal
randomized ARQ threshold (closed form), the optimal HARQ policy (solver plus
multiplier search) and the no-feedback periodic baseline at p0 = 0.3, 0.5 and
0.7, lam = 0.5 and r_max = 3, each evaluated exactly and by simulation, into
one sweep CSV (budget_sweep.csv).  This is ``aoi-sched sweep`` with these
settings: every ``sweep`` flag is accepted, and one given here overrides the
script's own.

    python scripts/budget_sweep.py --out data/sweep.csv
    python scripts/budget_sweep.py --quick        # small horizon, few reps
    python scripts/budget_sweep.py --p0 0.5 --horizon 0 --workers 2
"""

import sys

from aoi_sched import cli

CMAX = [str(round(0.05 * k, 10)) for k in range(2, 21)]

if __name__ == "__main__":
    if {"-h", "--help"} & set(sys.argv[1:]):  # the settings fixed here, then the flags
        print(__doc__)
    sys.exit(cli.main([
        "sweep", "--p0", "0.3", "0.5", "0.7", "--lam", "0.5", "--rmax", "3", "--cmax", *CMAX,
        "--out", "budget_sweep.csv", *sys.argv[1:],
    ]))
