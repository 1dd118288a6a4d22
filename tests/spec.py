"""Per-state references for the package's arrays, for tests that check one state at a time.

The package states the slot rule once, as the ``mdp.slot_outcomes`` table,
and each policy once, as its ``table``.  The functions here state the same
rules state by state, written from ``ChannelModel.error_prob`` and the
policies' own parameters, and read nothing of ``slot_outcomes``,
``StateSpace`` or a threshold policy's ``table``.  ``chain`` builds a
policy's dense chain from them, and ``closed_classes``, ``poisson`` and
``stationary`` solve such a chain by dense linear algebra.
"""

from typing import NamedTuple

import numpy as np
from scipy.sparse.csgraph import connected_components

from aoi_sched.mdp import Action, ChannelModel, State, Truncation, effective_r_max, enumerate_states
from aoi_sched.policies import ThresholdPolicy, clamped_rows


class InadmissibleActionError(ValueError):
    """A state outside the truncation, or an action that is not allowed in its state."""


class TransitionEntry(NamedTuple):
    next: State
    prob: float


def is_admissible_state(s: State, trunc: Truncation, r_cap: int) -> bool:
    return 1 <= s.delta <= trunc.n_max and 0 <= s.r < min(s.delta, r_cap + 1)


def admissible_actions(s: State, model: ChannelModel, trunc: Truncation) -> tuple[Action, ...]:
    """Actions allowed in ``s``.

    Retransmission requires a failed packet in flight (``r >= 1``) and room
    for one more combining attempt (``r`` below the tighter of the model's
    and the truncation's cap); it is forbidden at the cap so the error
    profile is never extrapolated.
    """
    if 1 <= s.r < min(model.r_max, trunc.r_max):
        return (Action.IDLE, Action.NEW_UPDATE, Action.RETRANSMIT)
    return (Action.IDLE, Action.NEW_UPDATE)


def transitions(s: State, a: Action, model: ChannelModel, trunc: Truncation) -> list[TransitionEntry]:
    """Exact transition support of ``(s, a)`` in the truncated chain.

    Ages exceeding ``n_max`` are clamped (self-loop in age); the attempt
    count never needs clamping except for a fresh update under ``r_max = 0``,
    where the failed-attempt marker collapses back to 0.
    """
    r_cap = min(model.r_max, trunc.r_max)
    if not is_admissible_state(s, trunc, r_cap):
        raise InadmissibleActionError(f"state {s} is not admissible under {trunc}")
    if a not in admissible_actions(s, model, trunc):
        raise InadmissibleActionError(f"action {a.name} is not admissible in state {s}")

    up = min(s.delta + 1, trunc.n_max)
    if a is Action.IDLE:
        return [TransitionEntry(State(up, 0), 1.0)]
    if a is Action.NEW_UPDATE:
        g = model.error_prob(0)
        entries = [
            TransitionEntry(State(up, min(1, r_cap)), g),
            TransitionEntry(State(1, 0), 1.0 - g),
        ]
    else:
        g = model.error_prob(s.r)
        entries = [
            TransitionEntry(State(up, s.r + 1), g),
            TransitionEntry(State(s.r + 1, 0), 1.0 - g),
        ]
    return [e for e in entries if e.prob > 0.0]


def threshold(policy: ThresholdPolicy, s: State) -> dict[Action, float]:
    """The threshold rule in ``s``: idle below the threshold, send above it, and at it send with ``transmit_prob``."""
    if s.delta != policy.threshold:
        return {Action.NEW_UPDATE if s.delta > policy.threshold else Action.IDLE: 1.0}
    p = policy.transmit_prob
    return {a: q for a, q in ((Action.IDLE, 1.0 - p), (Action.NEW_UPDATE, p)) if q > 0.0}


def probs(policy, s: State) -> dict[Action, float]:
    """The positive action probabilities of a stationary policy in ``s``.

    A threshold policy follows ``threshold``; a table reads its row at
    ``s``, larger states reading its last row and column.
    """
    if isinstance(policy, ThresholdPolicy):
        return threshold(policy, s)
    row = clamped_rows(policy.table, s.delta, s.r)
    return {Action(a): float(row[a]) for a in np.flatnonzero(row > 0.0)}


def actions(policy) -> dict[State, Action]:
    """The action of every state of a ``DeterministicTable``, in ``StateSpace`` order."""
    return {State(d, r): Action(a) for d, r, a in zip(*(x.tolist() for x in np.nonzero(policy.table)))}


def closed_classes(P) -> list[np.ndarray]:
    """The closed classes of the dense transition matrix ``P``, each as sorted state indices."""
    n_comp, labels = connected_components(P > 0.0, directed=True, connection="strong")
    leaving = np.bincount(labels, np.where(labels[:, None] != labels[None, :], P, 0.0).sum(axis=1), n_comp)
    return [np.flatnonzero(labels == c) for c in np.flatnonzero(leaving == 0.0)]


def chain(policy, model: ChannelModel, trunc: Truncation) -> tuple[np.ndarray, np.ndarray]:
    """Dense transition matrix and transmit probability of a stationary policy, state by state from
    ``transitions``, in ``StateSpace`` order."""
    states = enumerate_states(Truncation(trunc.n_max, effective_r_max(model, trunc)))
    idx = {s: i for i, s in enumerate(states)}
    P = np.zeros((len(states), len(states)))
    tx = np.zeros(len(states))
    for i, s in enumerate(states):
        for a, pa in probs(policy, s).items():
            if a != Action.IDLE:
                tx[i] += pa
            for nxt, p in transitions(s, a, model, trunc):
                P[i, idx[nxt]] += pa * p
    return P, tx


def poisson(P, costs):
    """``y`` solving ``(I - P + 1 e_0^T) y = costs`` for each column of ``costs``, by one dense solve
    refined once: the gain is ``y[0]`` and the differential values, 0 at state 0, ``y - y[0]``.

    One step of iterative refinement: where the values reach 1e9 the
    matrix's condition number does too, and the plain LU solve alone can be
    off by more than the tests' tolerances.
    """
    M = np.eye(len(P)) - P
    M[:, 0] += 1.0
    y = np.linalg.solve(M, costs)
    y += np.linalg.solve(M, costs - M @ y)
    return y


def stationary(P):
    """Stationary distribution of ``P`` over the states that state 0 reaches, 0 elsewhere, by
    Grassmann-Taksar-Heyman elimination: meant for chains where those states are one closed class.

    A dense LU solve is good only to rounding times the chain's condition
    number, which random tables take past 1e16; GTH elimination subtracts
    nothing and keeps every mass to rounding.
    """
    reach, todo = {0}, [0]
    for i in todo:  # breadth first; todo grows as it is read
        new = set(np.flatnonzero(P[i] > 0.0).tolist()) - reach
        reach |= new
        todo += new
    reach = sorted(reach)
    Q = P[np.ix_(reach, reach)]
    # Each elimination touches only the rows that enter k and the columns k leaves to.
    for k in range(len(Q) - 1, 0, -1):
        rows, cols = np.flatnonzero(Q[:k, k]), np.flatnonzero(Q[k, :k])
        Q[rows, k] /= Q[k, :k].sum()
        Q[np.ix_(rows, cols)] += np.outer(Q[rows, k], Q[k, cols])
    pi = np.ones(len(Q))
    for k in range(1, len(Q)):
        pi[k] = pi[:k] @ Q[:k, k]
    out = np.zeros(len(P))
    out[reach] = pi / pi.sum()
    return out
