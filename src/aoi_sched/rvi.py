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
substitution returns the values off the border.  A policy that idles
surely at ``(n_max, 0)`` is eliminated towards that state instead; if (1, 0)
is recurrent too, it has two closed classes and raises ``MultichainError``.

A state switches to its first cheapest action only when its current action
costs more than ``_EPSILON`` above that minimum, so rounding noise below
``_EPSILON`` cannot make the iteration cycle; it stops when no state does,
and the residual is that largest excess.  The returned policy is greedy on
the final state-action costs, with costs within a relative ``1e-9`` of the row
minimum counted as ties and ties broken toward the cheaper action
(idle < new update < retransmit).  The output carries that policy's chain.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConvergenceError, MultichainError
from .mdp import BorderChain, ChannelModel, StateSpace, Truncation
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
    goes on to work on the same chain passes it on.  ``chain`` is the
    ``BorderChain`` of ``policy``, dropped once read.  Outputs compare by
    identity, as an array field has no single truth value.
    """

    gain: float
    policy: DeterministicTable
    iterations: int
    residual: float
    h_array: np.ndarray = field(repr=False)
    q_array: np.ndarray = field(repr=False)
    space: StateSpace = field(repr=False)
    chain: BorderChain | None = field(repr=False)


def _masked_q(space: StateSpace, h: np.ndarray, eta: float) -> np.ndarray:
    exp_h = h.take(space.succ_idx) * space.succ_prob
    q = exp_h[:, :, 0] + exp_h[:, :, 1] + space.delta[:, None]
    q[:, 1] += eta
    q[:, 2] += eta
    np.putmask(q, ~space.admissible, np.inf)
    return q


def _row_min(q: np.ndarray) -> np.ndarray:
    return np.minimum(np.minimum(q[:, 0], q[:, 1]), q[:, 2])


def _first_within(q: np.ndarray, bound: np.ndarray) -> np.ndarray:
    """Per state, the first action (column of q: idle, new update, retransmit) costing at most ``bound``."""
    return np.where(q[:, 0] <= bound, 0, np.where(q[:, 1] <= bound, 1, 2))


def _chain(space: StateSpace, flat: np.ndarray) -> BorderChain:
    """The chain of one action per state, at flat positions ``3 i + a``: its branches scattered into zeros."""
    branch = np.zeros(space.succ_prob.shape)
    branch.reshape(-1, 2)[flat] = space.succ_prob.reshape(-1, 2).take(flat, axis=0)
    return BorderChain(space, branch)


def _evaluate(space: StateSpace, actions: np.ndarray, eta: float) -> tuple[float, np.ndarray, BorderChain]:
    """Gain, differential values (0 at (1, 0), index 0) and chain of the deterministic ``actions``."""
    n = len(space)
    flat = 3 * np.arange(n) + actions  # (state, action) in succ_idx.reshape(-1, 2)
    nxt = space.succ_idx.reshape(-1, 2).take(flat, axis=0)
    cost = space.delta + eta * (actions != 0)
    chain = _chain(space, flat)
    solved = chain.values(cost)
    if solved is None:  # the policy idles surely at (n_max, 0), position n_low
        solved = chain.values(cost, chain.n_low)
    if solved is None:  # and (1, 0) is recurrent (BorderChain.reached)
        raise MultichainError(
            f"policy evaluation at eta={eta} is singular: the policy idles surely at ({space.trunc.n_max}, 0), which (1, 0) cannot reach"
        )
    g, h_border = solved
    h = np.empty(n)
    h[space.border] = h_border
    h[space.ladder] = chain.solve(cost[space.ladder] - g + chain.p_lb @ h_border)
    y = h + g
    exp_y = chain.branch.reshape(-1, 2).take(flat, axis=0) * y.take(nxt)
    err = np.abs(y + g - (exp_y[:, 0] + exp_y[:, 1]) - cost).max()
    if not err <= _SOLVE_RTOL * max(1.0, np.abs(y).max()):
        raise MultichainError(
            f"policy evaluation at eta={eta} is inaccurate (residual {err:.3e})"
        )
    return g, h, chain


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

    rows = 3 * np.arange(len(space))  # flat index of (state, idle) in q
    q = _masked_q(space, h, eta)
    actions = _first_within(q, _row_min(q))
    for it in range(1, _MAX_EVALUATIONS + 1):
        gain, h, chain = _evaluate(space, actions, eta)
        q = _masked_q(space, h, eta)
        v = _row_min(q)
        excess = q.take(rows + actions) - v
        residual = float(excess.max())
        if residual <= _EPSILON:
            break
        actions = np.where(excess > _EPSILON, _first_within(q, v), actions)
    else:
        raise ConvergenceError(
            f"no convergence within {_MAX_EVALUATIONS} policy evaluations (residual {residual:.3e})",
            residual,
        )

    # First action within the tie tolerance wins: idle < new < retransmit.
    greedy = _first_within(q, v + _TIE_RTOL * np.maximum(1.0, np.abs(v)))
    if not np.array_equal(greedy, actions):  # an exact tie read off the other way
        chain = _chain(space, rows + greedy)
    return SolverOutput(gain, DeterministicTable.from_actions(space, greedy), it, residual, h, q, space, chain)


def bellman_residual(out: SolverOutput, model: ChannelModel, trunc: Truncation, eta: float) -> float:
    """Sup-norm violation of the average-cost optimality equations by ``out``, on its own space."""
    space = out.space
    if not space.fits(model, trunc):
        raise ValueError(f"out was solved on {space.model} under {out.policy.trunc}, not on {model} under {trunc}")
    v = _row_min(_masked_q(space, out.h_array, eta))
    return float(np.abs(v - out.gain - out.h_array).max())
