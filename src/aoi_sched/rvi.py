"""Relative value iteration for the multiplier-relaxed average-cost problem.

For a fixed transmission charge ``eta`` the constrained problem becomes an
unconstrained average-cost MDP with stage cost ``delta + eta * 1[transmit]``.
Synchronous sweeps update the state-action costs from the previous
differential values, re-anchor at a fixed reference state, and stop when the
sup-norm change of the differential values drops below ``epsilon``.  The
greedy policy breaks exact ties toward the cheaper action
(idle < new update < retransmit).

Setting ``unconstrained=True`` removes idling from the action set, which is
the budget-free mode (transmissions every slot cost nothing extra at
``eta = 0``).

Sweeps are damped (``h <- (1-k) h + k T(h)``, the standard aperiodicity
transformation): long idle stretches make the induced chains periodic in the
age, and undamped sweeps then oscillate forever instead of converging.  The
transformation leaves fixed points, gain and greedy policies unchanged; the
reported residual is rescaled by ``1/k`` so it measures the undamped update.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import ConvergenceError
from .mdp import Action, ChannelModel, State, StateSpace, Truncation
from .policies import DeterministicTable

_ACTION_ORDER = (Action.IDLE, Action.NEW_UPDATE, Action.RETRANSMIT)


@dataclass(frozen=True)
class SolverConfig:
    epsilon: float = 1e-8
    max_iters: int = 1_000_000
    reference: State = State(1, 0)
    damping: float = 0.5

    def __post_init__(self):
        if self.epsilon <= 0.0:
            raise ValueError(f"epsilon must be positive, got {self.epsilon}")
        if self.max_iters < 1:
            raise ValueError(f"max_iters must be positive, got {self.max_iters}")
        if not 0.0 < self.damping <= 1.0:
            raise ValueError(f"damping must lie in (0, 1], got {self.damping}")


@dataclass(frozen=True)
class SolverOutput:
    """Converged differential values, state-action costs, gain and greedy policy.

    ``h_array`` and ``q_array`` (inadmissible actions at ``inf``) are indexed
    in ``StateSpace`` order, which is also the key order of ``policy.actions``;
    ``h`` and ``q`` are dict views of them, built on first access.
    """

    gain: float
    policy: DeterministicTable
    iterations: int
    residual: float
    h_array: np.ndarray = field(repr=False)
    q_array: np.ndarray = field(repr=False)

    @cached_property
    def h(self) -> dict[State, float]:
        return dict(zip(self.policy.actions, self.h_array.tolist()))

    @cached_property
    def q(self) -> dict[tuple[State, Action], float]:
        return {
            (s, a): value
            for s, row in zip(self.policy.actions, self.q_array.tolist())
            for a, value in zip(_ACTION_ORDER, row)
            if math.isfinite(value)
        }


def _masked_q(
    space: StateSpace, h: np.ndarray, eta: float, unconstrained: bool
) -> np.ndarray:
    exp_h = (h[space.succ_idx] * space.succ_prob).sum(axis=2)
    q = space.delta[:, None] + exp_h
    q[:, Action.NEW_UPDATE] += eta
    q[:, Action.RETRANSMIT] += eta
    mask = space.admissible.copy()
    if unconstrained:
        mask[:, Action.IDLE] = False
    q[~mask] = np.inf
    return q


def solve(
    model: ChannelModel,
    trunc: Truncation,
    eta: float,
    cfg: SolverConfig | None = None,
    *,
    unconstrained: bool = False,
    h0: np.ndarray | None = None,
) -> SolverOutput:
    """Run relative value iteration for the given multiplier.

    ``h0`` warm-starts the differential values (useful when sweeping nearby
    multipliers); identical inputs always produce bit-identical outputs.
    """
    if eta < 0.0:
        raise ValueError(f"eta must be non-negative, got {eta}")
    cfg = cfg or SolverConfig()
    space = StateSpace(model, trunc)
    ref = space.index[cfg.reference]
    h = np.zeros(len(space)) if h0 is None else np.asarray(h0, dtype=np.float64).copy()
    if h.shape != (len(space),):
        raise ValueError(f"h0 has shape {h.shape}, expected ({len(space)},)")

    kappa = cfg.damping
    residual = np.inf
    for it in range(1, cfg.max_iters + 1):
        q = _masked_q(space, h, eta, unconstrained)
        v = q.min(axis=1)
        if kappa < 1.0:
            v = (1.0 - kappa) * h + kappa * v
        h_next = v - v[ref]
        residual = float(np.abs(h_next - h).max()) / kappa
        h = h_next
        if residual <= cfg.epsilon:
            break
    else:
        raise ConvergenceError(
            f"no convergence within {cfg.max_iters} sweeps (residual {residual:.3e})",
            residual,
        )

    q = _masked_q(space, h, eta, unconstrained)
    v = q.min(axis=1)
    gain = float(v[ref])
    greedy = np.argmin(q, axis=1)  # first minimum wins: idle < new < retransmit
    actions = dict(zip(space.states, map(_ACTION_ORDER.__getitem__, greedy.tolist())))
    policy = DeterministicTable(actions, Truncation(trunc.n_max, space.r_cap))
    return SolverOutput(gain, policy, it, residual, h, q)


def bellman_residual(
    out: SolverOutput,
    model: ChannelModel,
    trunc: Truncation,
    eta: float,
    *,
    unconstrained: bool = False,
) -> float:
    """Sup-norm violation of the average-cost optimality equations by ``out``."""
    space = StateSpace(model, trunc)
    if out.policy.trunc != Truncation(trunc.n_max, space.r_cap):
        raise ValueError(
            f"out was solved on {out.policy.trunc}, not on this space ({trunc}, r_cap {space.r_cap})"
        )
    q = _masked_q(space, out.h_array, eta, unconstrained)
    v = q.min(axis=1)
    return float(np.abs(v - out.gain - out.h_array).max())


def greedy_policy(q: dict[tuple[State, Action], float]) -> dict[State, Action]:
    """Per-state argmin of the state-action costs, ties broken toward idle."""
    best: dict[State, tuple[float, Action]] = {}
    for (s, a), value in q.items():
        cur = best.get(s)
        if cur is None or value < cur[0] or (value == cur[0] and a < cur[1]):
            best[s] = (value, a)
    return {s: a for s, (_, a) in best.items()}
