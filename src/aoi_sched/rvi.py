"""Policy iteration for the multiplier-relaxed average-cost problem.

For a fixed transmission charge ``eta`` the constrained problem becomes a
plain average-cost MDP with stage cost ``delta + eta * 1[transmit]``.
The paper solves its optimality equation with relative value iteration; this
module solves the same equation by Howard's policy iteration (Puterman,
*Markov Decision Processes*, 1994, Sec. 8.6), which ends after a handful of
policy evaluations where value iteration needs thousands of sweeps at tight
budgets.

Each evaluation solves ``g + h = c_pi + P_pi h`` with ``h`` pinned to 0 at the
renewal state (1, 0), index 0 of ``StateSpace``, on every state at once
(``mdp.BorderChain.values``).  A policy that idles surely at ``(n_max, 0)``
while (1, 0) is recurrent has two closed classes and raises
``MultichainError``.  An evaluation whose residual exceeds ``_SOLVE_RTOL`` of
its largest value raises ``InaccurateSolveError``.

The same elimination also solves for the transmit indicator: its gain
``g_tx`` is the policy's transmission rate and ``h_tx`` its values.  For a
fixed policy the charged cost is linear in the charge, and so are its gain
and values: ``h(eta') = h(eta) + (eta' - eta) h_tx`` (Puterman 1994,
Sec. 8.6).  A solve given ``start``, the output at another charge, works on
its state space and takes its evaluated policy and those shifted values as
its first evaluation, checked against the same residual bound; when that
policy is still optimal at ``eta`` the solve evaluates nothing.

The other start is the paper's ARQ optimum at ``eta``: the threshold ``tau``
of ``arq.threshold_candidates`` with the lower ``arq.lagrangian_cost``,
``g_arq``.  The rule never retransmits, so its values on the untruncated
chain are the same at every attempt count: ``(delta - 1) g_arq - delta
(delta - 1) / 2`` up to ``tau``, then ``1 / (1 - g(0))`` more per age.  At
``eta = 0``, ``tau = 1`` and they are ``(delta - 1) / (1 - g(0))``, the
values of sending a fresh update in every slot.  A cold solve builds its
state space and starts from these values, rather than from zero, which at
``eta = 0`` would pick the policy that never sends.  A warm solve starts
from them only when ``g_arq`` lies below its start's gain at ``eta`` by more
than the tie bound below.  Policy iteration stops only on its optimality
test, so the start changes the path to the answer, not the answer.

Each improvement step bounds ties by one tolerance per state,
``_TIE_RTOL * max(1, |v|)`` of its row minimum ``v``.  A state switches to
its first cheapest action only when its current action costs more than that
bound above the minimum; the iteration stops when no state does, and the
residual is the largest excess.  The returned policy is greedy on the final
state-action costs under the same bound: costs within it of the row minimum
tie, and ties go to the cheaper action (idle < new update < retransmit).
The output carries that policy's chain.  In exact arithmetic policy iteration
never returns to a policy; an evaluation is exact only to ``_SOLVE_RTOL``,
so an improvement step that returns a policy this solve has already
evaluated raises ``ConvergenceError`` rather than cycling.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import arq
from .errors import ConvergenceError, InaccurateSolveError, MultichainError
from .mdp import BorderChain, ChannelModel, StateSpace, Truncation
from .policies import DeterministicTable

_MAX_EVALUATIONS = 1_000_000  # policy evaluations allowed per solve
_TIE_RTOL = 1e-12  # costs this close to the row minimum, relative to max(1, |min|), tie
_SOLVE_RTOL = 1e-9  # largest relative residual accepted from an evaluation


@dataclass(frozen=True, eq=False)
class SolverOutput:
    """Converged differential values, state-action costs, gain and greedy policy.

    ``h_array`` and ``q_array`` (inadmissible actions at ``inf``) are indexed
    in ``StateSpace`` order, the order of ``policy.table[space.age, space.r]``.
    ``space`` is the state space the output was solved on, which a solve
    given the output as its ``start`` works on.  ``chain`` is the
    ``BorderChain`` of ``policy``, dropped once read.  ``gain`` and
    ``h_array`` are those of ``actions``, the policy the solve evaluated
    last, at the charge ``eta``; ``g_tx`` and ``h_tx`` are that policy's
    transmission rate and the values of its transmit indicator.
    ``actions`` differs from ``policy`` only where the read-off broke a tie
    within the tie bound the other way.  Outputs compare by identity, as an array field
    has no single truth value.
    """

    gain: float
    policy: DeterministicTable
    iterations: int
    residual: float
    h_array: np.ndarray = field(repr=False)
    q_array: np.ndarray = field(repr=False)
    space: StateSpace = field(repr=False)
    chain: BorderChain | None = field(repr=False)
    eta: float
    g_tx: float
    h_tx: np.ndarray = field(repr=False)
    actions: np.ndarray = field(repr=False)


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


def _check(space: StateSpace, flat: np.ndarray, cost: np.ndarray, g: float, h: np.ndarray, what: str) -> None:
    """Raise ``InaccurateSolveError`` when ``g`` and ``h`` miss ``g + h = cost + P h`` by more than
    ``_SOLVE_RTOL`` of the largest value, under the actions at flat positions ``flat``."""
    y = h + g
    nxt = space.succ_idx.reshape(-1, 2).take(flat, axis=0)
    exp_y = space.succ_prob.reshape(-1, 2).take(flat, axis=0) * y.take(nxt)
    err = np.abs(y + g - (exp_y[:, 0] + exp_y[:, 1]) - cost).max()
    bound = _SOLVE_RTOL * max(1.0, np.abs(y).max())
    if not err <= bound:
        raise InaccurateSolveError(f"{what}: residual {err:.3e} above {bound:.3e}")


def _evaluate(
    space: StateSpace, actions: np.ndarray, eta: float
) -> tuple[float, np.ndarray, float, np.ndarray, BorderChain]:
    """Gain and differential values (0 at (1, 0), index 0) of the deterministic ``actions``,
    the same of their transmit indicator, and their chain."""
    flat = 3 * np.arange(len(space)) + actions  # (state, action) in succ_idx.reshape(-1, 2)
    tx = (actions != 0).astype(np.float64)
    cost = space.delta + eta * tx
    chain = _chain(space, flat)
    solved = chain.values((cost, tx))
    if solved is None:
        raise MultichainError(
            f"policy evaluation at eta={eta} is singular, two closed classes: "
            f"the policy idles surely at ({space.trunc.n_max}, 0), which (1, 0) cannot reach"
        )
    (g, h), (g_tx, h_tx) = solved
    _check(space, flat, cost, g, h, f"policy evaluation at eta={eta} is inaccurate")
    return g, h, g_tx, h_tx, chain


def solve(
    model: ChannelModel,
    trunc: Truncation,
    eta: float,
    *,
    start: SolverOutput | None = None,
) -> SolverOutput:
    """Run policy iteration for the given multiplier.

    Without ``start`` the solve builds the ``StateSpace`` of ``(model,
    trunc)``, and its first policy is greedy on the state-action costs of
    the values of the paper's ARQ threshold rule at ``eta``.  ``start`` is
    the output of a solve of the same model and truncation at another
    charge: the solve works on its space, begins from its evaluated policy,
    whose values at ``eta`` are affine in the charge, and evaluates nothing
    when that policy is still optimal; only when the ARQ rule's gain is
    lower by more than the tie bound does it begin from the rule's values
    instead.  A search that solves many multipliers passes each output on
    as the next ``start``, so one space serves them all.  A ``start`` of
    another model or truncation raises ``ValueError``.  Identical inputs
    always produce bit-identical outputs.  ``iterations`` counts policy
    evaluations.
    """
    if not 0.0 <= eta < np.inf:
        raise ValueError(f"eta must be finite and non-negative, got {eta}")
    if start is None:
        space = StateSpace(model, trunc)
    elif start.space.fits(model, trunc):
        space = start.space
    else:
        raise ValueError(
            f"start was solved on {start.space.model} under {start.policy.trunc}, not on {model} under {trunc}"
        )

    rows = 3 * np.arange(len(space))  # flat index of (state, idle) in q
    evaluated = set()  # the policies this solve has passed to _evaluate, as bytes
    # The paper's ARQ optimum at eta: the threshold rule tau, which never retransmits, and its gain.
    g_arq, tau = min((arq.lagrangian_cost(model.p0, d, eta), d) for d in arq.threshold_candidates(model.p0, eta))
    if start is not None:
        actions, g_tx, h_tx, shift = start.actions, start.g_tx, start.h_tx, eta - start.eta
        gain = start.gain + shift * g_tx  # the start's policy's exact gain at eta
    if start is None or g_arq < gain - _TIE_RTOL * max(1.0, abs(gain)):
        # The rule's values, 0 at (1, 0), the same at every attempt count: idle below tau, send from it.
        m = np.minimum(space.delta, tau)
        h = (m - 1.0) * g_arq - m * (m - 1.0) / 2.0 + (space.delta - m) / (1.0 - model.p0)
        q = _masked_q(space, h, eta)
        actions = _first_within(q, _row_min(q))
        gain, h, g_tx, h_tx, chain = _evaluate(space, actions, eta)
        it, chain_actions = 1, actions  # the actions whose chain is chain
        evaluated.add(actions.tobytes())
    else:
        h = start.h_array + shift * h_tx
        _check(
            space, rows + actions, space.delta + eta * (actions != 0), gain, h,
            f"policy values at eta={eta}, shifted from eta={start.eta}, are inaccurate",
        )
        it, chain = 0, start.chain
        chain_actions = start.policy.table[space.age, space.r].argmax(axis=1)
        # The start's policy is not counted as evaluated: its shifted values are exact only to
        # _SOLVE_RTOL, so the solve may leave it and come back.
    while True:
        q = _masked_q(space, h, eta)
        v = _row_min(q)
        tol = _TIE_RTOL * np.maximum(1.0, np.abs(v))
        excess = q.take(rows + actions) - v
        residual = float(excess.max())
        switch = excess > tol
        if not switch.any():
            break
        if it >= _MAX_EVALUATIONS:
            raise ConvergenceError(
                f"no convergence within {_MAX_EVALUATIONS} policy evaluations (residual {residual:.3e})",
                residual,
            )
        actions = np.where(switch, _first_within(q, v), actions)
        key = actions.tobytes()
        if key in evaluated:
            raise ConvergenceError(
                f"policy iteration at eta={eta} returned to a policy it evaluated before, after {it} "
                f"evaluations (residual {residual:.3e})",
                residual,
            )
        evaluated.add(key)
        gain, h, g_tx, h_tx, chain = _evaluate(space, actions, eta)
        it, chain_actions = it + 1, actions

    # First action within the tie bound wins: idle < new < retransmit.
    greedy = _first_within(q, v + tol)
    if chain is None or not np.array_equal(greedy, chain_actions):  # a tie read off the other way
        chain = _chain(space, rows + greedy)
    policy = DeterministicTable.from_actions(space, greedy)
    return SolverOutput(gain, policy, it, residual, h, q, space, chain, eta, g_tx, h_tx, actions)


def bellman_residual(out: SolverOutput) -> float:
    """Sup-norm violation of the average-cost optimality equations by ``out``, on its own space at
    its own charge.  The state-action costs are recomputed from ``out.h_array``, not read from
    ``out.q_array``."""
    v = _row_min(_masked_q(out.space, out.h_array, out.eta))
    return float(np.abs(v - out.gain - out.h_array).max())
