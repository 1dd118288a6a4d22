#!/usr/bin/env python3
"""Solve random budgeted problems and print every answer bit for bit.

    PYTHONPATH=src python scripts/solve_scan.py --draws 600 --seed 5
    PYTHONPATH=src python scripts/solve_scan.py --draws 400 --seed 1 --wide

Each draw is a point ``(p0, lam, r_max, c_max, n_max)``: ``p0`` uniform on
[0.05, 0.95], ``lam`` 1 with probability 0.3 and otherwise uniform on
[0.05, 1], ``r_max`` 0-4, the budget log-uniform on [0.02, 1] and ``n_max``
2-80.  ``--wide`` draws ``p0`` on [0.01, 0.99], ``r_max`` 0-9, the budget on
[0.005, 1] and ``n_max`` 2-300.  For each draw ``solve_constrained`` runs,
and one line gives the point, then the name of the solver error it raised,
or the float.hex of ``eta*``, the achieved age and cost and the probe
count.  The last line sums up: draws solved, errors by name, policy
evaluations over the solved draws' probes, the worst duality certificate
(``oracles.duality_certificate``) and the probes over the solved draws.  The
outputs of two versions of the code at the same flags compare with ``diff``;
an error outside the solver's own kinds ends the scan with a traceback.
"""

import argparse
import collections
import math
import sys

import numpy as np

from aoi_sched import lagrange, oracles
from aoi_sched.errors import BracketingError, ConvergenceError, EtaSearchError, MultichainError, NoStationaryAoIError
from aoi_sched.mdp import ChannelModel, Truncation

SOLVER_ERRORS = (BracketingError, ConvergenceError, EtaSearchError, MultichainError, NoStationaryAoIError)


def draw(rng: np.random.Generator, wide: bool) -> tuple:
    p_lo, r_hi, c_lo, n_hi = (0.01, 9, 0.005, 300) if wide else (0.05, 4, 0.02, 80)
    p0 = float(rng.uniform(p_lo, 1.0 - p_lo))
    arq_lam, lam = rng.random() < 0.3, float(rng.uniform(0.05, 1.0))
    r_max = int(rng.integers(0, r_hi + 1))
    c_max = float(math.exp(rng.uniform(math.log(c_lo), 0.0)))
    n_max = int(rng.integers(2, n_hi + 1))
    return p0, 1.0 if arq_lam else lam, r_max, c_max, n_max


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--draws", type=int, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--wide", action="store_true")
    args = parser.parse_args()
    rng = np.random.default_rng(args.seed)
    solved, evaluations, probes, worst, errors = 0, 0, 0, 0.0, collections.Counter()
    for _ in range(args.draws):
        point = p0, lam, r_max, c_max, n_max = draw(rng, args.wide)
        try:
            sol = lagrange.solve_constrained(ChannelModel(p0, lam, r_max), Truncation(n_max, r_max), c_max)
        except SOLVER_ERRORS as err:
            errors[type(err).__name__] += 1
            print(point, type(err).__name__)
            continue
        solved += 1
        evaluations += sum(row.iterations for row in sol.search.trace)
        probes += len(sol.search.trace)
        worst = max(worst, oracles.duality_certificate(sol, c_max))
        answer = (sol.eta_star.hex(), sol.achieved_aoi.hex(), sol.achieved_cost.hex(), len(sol.search.trace))
        print(point, *answer)
    print(f"solved {solved} errors {dict(sorted(errors.items()))} evaluations {evaluations} worst certificate {worst:.3g} probes {probes}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
