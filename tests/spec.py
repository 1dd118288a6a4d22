"""Per-state views of the package's arrays, for tests that check one state at a time."""

import numpy as np

from aoi_sched.mdp import Action, State


def actions(policy) -> dict[State, Action]:
    """The action of every state of a ``DeterministicTable``, in ``StateSpace`` order."""
    return {State(d, r): Action(a) for d, r, a in zip(*(x.tolist() for x in np.nonzero(policy.table)))}
