"""Policy iteration for the multiplier-relaxed average-cost problem.

For a fixed transmission charge ``eta`` the constrained problem becomes a
plain average-cost MDP with stage cost ``delta + eta * 1[transmit]``.
The paper solves its optimality equation with relative value iteration; this
module solves the same equation by Howard's policy iteration (Puterman,
*Markov Decision Processes*, 1994, Sec. 8.6), which ends after a handful of
policy evaluations where value iteration needs thousands of sweeps at tight
budgets.

Each evaluation solves ``g + h = c_pi + P_pi h`` with ``h`` pinned to 0 at the
renewal state (1, 0), index 0 of ``StateSpace``.  Every slot raises the age
by one or lands on one of the few border states (``mdp.BorderChain``), so
the rest of the chain is eliminated by one banded substitution, the border
system is solved by subtraction-free elimination, and one more banded
substitution returns the values off the border.  A policy with more than
one closed class has no such solution and raises ``MultichainError``.

A state switches to its first cheapest action only when its current action
costs more than ``_EPSILON`` above that minimum, so rounding noise below
``_EPSILON`` cannot make the iteration cycle; it stops when no state does,
and the residual is that largest excess.  The returned policy is greedy on
the final state-action costs, with costs within a relative ``1e-9`` of the row
minimum counted as ties and ties broken toward the cheaper action
(idle < new update < retransmit).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConvergenceError, MultichainError
from .mdp import Action, BorderChain, ChannelModel, StateSpace, Truncation
from .policies import DeterministicTable

_EPSILON = 1e-8  # largest excess of a kept action over its row minimum
_MAX_EVALUATIONS = 1_000_000  # policy evaluations allowed per solve
_TIE_RTOL = 1e-9  # read-off: costs this close to the row minimum tie
_SOLVE_RTOL = 1e-9  # largest relative residual accepted from an evaluation


@dataclass(frozen=True, eq=False)
class SolverOutput:
    """Converged differential values, state-action costs, gain and greedy policy.

    ``h_array`` and ``q_array`` (inadmissible actions at ``inf``) are indexed
    in ``StateSpace`` order, the order of ``policy.table[space.age, space.r]``.
    ``space`` is the state space the output was solved on; a caller that
    goes on to work on the same chain passes it on.  Outputs compare by
    identity, as an array field has no single truth value.
    """

    gain: float
    policy: DeterministicTable
    iterations: int
    residual: float
    h_array: np.ndarray = field(repr=False)
    q_array: np.ndarray = field(repr=False)
    space: StateSpace = field(repr=False)


def _masked_q(space: StateSpace, h: np.ndarray, eta: float) -> np.ndarray:
    exp_h = (h[space.succ_idx] * space.succ_prob).sum(axis=2)
    q = space.delta[:, None] + exp_h
    q[:, Action.NEW_UPDATE] += eta
    q[:, Action.RETRANSMIT] += eta
    q[~space.admissible] = np.inf
    return q


def _evaluate(
    space: StateSpace, actions: np.ndarray, eta: float
) -> tuple[float, np.ndarray]:
    """Gain and differential values (0 at (1, 0), index 0) of the deterministic ``actions``."""
    n = len(space)
    rows = np.arange(n)
    nxt = space.succ_idx[rows, actions]
    prob = space.succ_prob[rows, actions]
    cost = space.delta + eta * (actions != Action.IDLE)
    one_hot = actions[:, None] == np.arange(len(Action))
    chain = BorderChain(space, one_hot[:, :, None] * space.succ_prob)
    solved = chain.values(cost)
    if solved is None:  # (1, 0) is transient, or there are several closed classes
        label = chain.classes[1]
        closed = np.unique(label[label >= 0])
        if len(closed) > 1:
            raise MultichainError(
                f"policy evaluation at eta={eta} is singular: the policy has {len(closed)} closed classes"
            )
        solved = chain.values(cost, closed[0])
    g, h_border = solved
    h = np.empty(n)
    h[space.border] = h_border
    h[space.ladder] = chain.solve(cost[space.ladder] - g + chain.p_lb @ h_border)
    y = h + g
    err = np.abs(y + g - (prob * y[nxt]).sum(axis=1) - cost).max()
    if not err <= _SOLVE_RTOL * max(1.0, np.abs(y).max()):
        raise MultichainError(
            f"policy evaluation at eta={eta} is inaccurate (residual {err:.3e})"
        )
    return g, h


def solve(
    model: ChannelModel,
    trunc: Truncation,
    eta: float,
    *,
    h0: np.ndarray | None = None,
    space: StateSpace | None = None,
) -> SolverOutput:
    """Run policy iteration for the given multiplier.

    The first policy is greedy on the state-action costs of ``h0`` (zero when
    omitted), so passing the values of a nearby multiplier warm-starts the
    iteration; identical inputs always produce bit-identical outputs.
    ``iterations`` counts policy evaluations.  ``space`` is the
    ``StateSpace`` of ``(model, trunc)``, built when omitted; a search that
    solves many multipliers passes one space to all of them, and the output
    carries it on.  A space of another model or truncation raises
    ``ValueError``.
    """
    if not 0.0 <= eta < np.inf:
        raise ValueError(f"eta must be finite and non-negative, got {eta}")
    if space is None:
        space = StateSpace(model, trunc)
    elif not space.fits(model, trunc):
        raise ValueError(f"the given state space was not built for {model} under {trunc}")
    h = np.zeros(len(space)) if h0 is None else np.asarray(h0, dtype=np.float64)
    if h.shape != (len(space),):
        raise ValueError(f"h0 has shape {h.shape}, expected ({len(space)},)")

    rows = np.arange(len(space))
    actions = np.argmin(_masked_q(space, h, eta), axis=1)
    for it in range(1, _MAX_EVALUATIONS + 1):
        gain, h = _evaluate(space, actions, eta)
        q = _masked_q(space, h, eta)
        v = q.min(axis=1)
        excess = q[rows, actions] - v
        residual = float(excess.max())
        if residual <= _EPSILON:
            break
        switch = excess > _EPSILON
        actions[switch] = np.argmin(q[switch], axis=1)
    else:
        raise ConvergenceError(
            f"no convergence within {_MAX_EVALUATIONS} policy evaluations (residual {residual:.3e})",
            residual,
        )

    # First action within the tie tolerance wins: idle < new < retransmit.
    greedy = np.argmax(q <= (v + _TIE_RTOL * np.maximum(1.0, np.abs(v)))[:, None], axis=1)
    return SolverOutput(gain, DeterministicTable.from_actions(space, greedy), it, residual, h, q, space)


def bellman_residual(out: SolverOutput, model: ChannelModel, trunc: Truncation, eta: float) -> float:
    """Sup-norm violation of the average-cost optimality equations by ``out``, on its own space."""
    space = out.space
    if not space.fits(model, trunc):
        raise ValueError(f"out was solved on {space.model} under {out.policy.trunc}, not on {model} under {trunc}")
    q = _masked_q(space, out.h_array, eta)
    v = q.min(axis=1)
    return float(np.abs(v - out.gain - out.h_array).max())
