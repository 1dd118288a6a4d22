#!/usr/bin/env python3
"""Solve random policy chains and print every answer's bits as digests.

    PYTHONPATH=src python scripts/chain_scan.py --draws 3000 --seed 1

Each draw is a point ``(p0, lam, r_max, n_max)``: ``p0`` uniform on
[0.01, 0.99], ``lam`` 1 with probability 0.3 and otherwise uniform on
[0.05, 1], ``r_max`` 0-9 and ``n_max`` 2-150.  On its ``StateSpace`` it
builds two ``mdp.BorderChain``s: a one-action table (a uniformly random
admissible action per state, as policy iteration's chains) and a randomized
table (random admissible weights to the fourth power, as
``tests/test_mdp.py``'s ``random_chain``).  Each table idles surely at
``(n_max, 0)`` with probability 1/4.  A chain prints two lines.  The
``values`` line holds the float.hex of the gains of ``values((age, tx))``,
with ``tx`` the per-state transmit probability, and a digest of the bytes
of both value vectors, or ``None`` for a chain with two closed classes.  The
``stationary`` line, from the same chain after ``values``, holds the
float.hex of the masses' sum and a digest of their bytes.  The outputs of
two versions of the code at the same flags compare with ``diff``.
"""

import argparse
import hashlib
import math
import sys

import numpy as np

from aoi_sched.mdp import Action, BorderChain, ChannelModel, StateSpace, Truncation


def digest(*arrays: np.ndarray) -> str:
    return hashlib.sha256(b"".join(a.tobytes() for a in arrays)).hexdigest()[:16]


def draw(rng: np.random.Generator) -> tuple:
    p0 = float(rng.uniform(0.01, 0.99))
    arq_lam, lam = rng.random() < 0.3, float(rng.uniform(0.05, 1.0))
    return p0, 1.0 if arq_lam else lam, int(rng.integers(0, 10)), int(rng.integers(2, 151))


def tables(space: StateSpace, rng: np.random.Generator):
    """``(kind, probs)`` of the draw's two tables, ``probs`` the states × actions probabilities."""
    one = np.argmax(np.where(space.admissible, rng.random(space.admissible.shape), -1.0), axis=1)
    weights = rng.random(space.admissible.shape) ** 4 * space.admissible
    for kind, probs in (("table", np.eye(len(Action))[one]), ("randomized", weights / weights.sum(axis=1, keepdims=True))):
        if rng.random() < 0.25:  # idle surely at (n_max, 0)
            probs[space.off[space.trunc.n_max]] = np.eye(len(Action))[Action.IDLE]
        yield kind, probs


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--draws", type=int, required=True)
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args()
    rng = np.random.default_rng(args.seed)
    for _ in range(args.draws):
        point = p0, lam, r_max, n_max = draw(rng)
        space = StateSpace(ChannelModel(p0, lam, r_max), Truncation(n_max, r_max))
        for kind, probs in tables(space, rng):
            chain = BorderChain(space, probs[:, :, None] * space.succ_prob)
            solved = chain.values((space.delta, 1.0 - probs[:, Action.IDLE]))
            if solved is None:
                print(point, kind, "values None")
            else:
                (g, h), (g_tx, h_tx) = solved
                print(point, kind, "values", g.hex(), g_tx.hex(), digest(h, h_tx))
            pi = chain.stationary()
            print(point, kind, "stationary", math.fsum(pi).hex(), digest(pi))
    return 0


if __name__ == "__main__":
    sys.exit(main())
