#!/usr/bin/env python3
"""Learning-curve experiment: online learner versus the planned policy.

Trains the average-cost learner on a hidden channel (p0 = 0.5, lam = 0.5,
r_max = 3, budget 0.4, age cap 100) for 1000 replications of 10,000 steps,
writes the aggregated running-average timeline (learning_curve.csv), and
prints the gap to the exact value of the planned (solver) policy at the same
budget.  This is ``aoi-sched learn`` with these settings: every ``learn``
flag is accepted, and one given here overrides the script's own.

    python scripts/learning_curves.py --timeline-out data/learn.csv
    python scripts/learning_curves.py --reps 100 --steps 10000
"""

import sys

from aoi_sched import cli

if __name__ == "__main__":
    if {"-h", "--help"} & set(sys.argv[1:]):  # the settings fixed here, then the flags
        print(__doc__)
    sys.exit(cli.main([
        "learn", "--p0", "0.5", "--lam", "0.5", "--rmax", "3", "--nmax", "100", "--cmax", "0.4",
        "--steps", "10000", "--reps", "1000", "--timeline-out", "learning_curve.csv", "--compare-rvi",
        *sys.argv[1:],
    ]))
