"""Average-cost on-policy temporal-difference learning with softmax exploration.

The learner knows nothing about the channel: it maintains a tabular
state-action cost estimate over the truncated state set, samples actions
from a Boltzmann distribution over the negated estimates, and tracks the
long-run average cost (the gain) as a running mean.  The temporal-difference
target uses the action actually played next, so the update is on-policy.

Under a transmission budget the per-transmission charge is adapted online:
whenever the empirical transmission rate overshoots the budget the charge
grows, otherwise it shrinks, on a decaying 1/sqrt(n) schedule.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from math import exp, sqrt

import numpy as np

from .errors import ProtocolViolationError
from .mdp import Action, ChannelModel, State, StateSpace, Truncation, slot_outcomes
from .policies import DeterministicTable, action_edges
from .simulate import SlotEnv

_N_ACTIONS = len(Action)
_BLOCK = 1024  # uniforms per generator call in train
_ALPHA0 = 1.0  # learning rate _ALPHA0 / sqrt(n)


@dataclass(frozen=True)
class LearnerConfig:
    """Learning knobs; the charge defaults are tuned on the budgeted benchmark."""

    trunc: Truncation
    tau: float = 1.0
    eta0: float = 2.0
    eta_step: float = 0.5  # charge step eta_step / sqrt(n); 0 holds the charge at eta0
    c_max: float = 1.0
    horizon: int = 10_000
    seed: int = 0

    def __post_init__(self):
        if not 0.0 < self.tau < math.inf:
            raise ValueError(f"tau must be finite and positive, got {self.tau}")
        for name in ("eta0", "eta_step"):  # eta0 in the charge range of rvi.solve
            value = getattr(self, name)
            if not 0.0 <= value < math.inf:
                raise ValueError(f"{name} must be finite and non-negative, got {value}")
        if not 0.0 < self.c_max <= 1.0:
            raise ValueError(f"c_max must lie in (0, 1], got {self.c_max}")


@dataclass
class LearnerState:
    """Mutable learner internals: the table, gain tracker and charge."""

    space: StateSpace
    q: np.ndarray  # (n_states, n_actions)
    gain: float = 0.0
    eta: float = 0.0
    n: int = 0
    empirical_cost: float = 0.0
    state: State = State(1, 0)
    next_action: Action | None = None

    def _index(self, s: State) -> int:
        return self.space.off[min(s.delta, self.space.trunc.n_max)] + min(s.r, self.space.r_cap)

    def greedy_table(self) -> DeterministicTable:
        """Exploration-free policy read off the current table.

        Ties go to the last of the tied actions, so they prefer transmitting:
        rows of states the learner never visited are still all zero, and
        reading them as idle would freeze the age at every unexplored state.
        """
        q = np.where(self.space.admissible, self.q, np.inf)
        last_best = _N_ACTIONS - 1 - np.argmin(q[:, ::-1], axis=1)
        return DeterministicTable.from_actions(self.space, last_best)


@dataclass(frozen=True)
class Timeline:
    """Per-step running averages recorded during training."""

    steps: np.ndarray
    running_aoi: np.ndarray
    running_cost: np.ndarray
    eta: np.ndarray
    gain: np.ndarray


def softmax_probs(q_row: np.ndarray, tau: float, admissible: np.ndarray) -> np.ndarray:
    """Boltzmann distribution over admissible actions of one table row.

    Costs are negated (smaller is better) and shifted by the row minimum
    before exponentiation for numerical stability.
    """
    if tau <= 0.0:
        raise ValueError(f"tau must be positive, got {tau}")
    z = np.full(q_row.shape, -np.inf)
    vals = q_row[admissible]
    z[admissible] = -(vals - vals.min()) / tau
    w = np.exp(z)
    return w / w.sum()


def make_learner(cfg: LearnerConfig, model_for_masks: ChannelModel) -> LearnerState:
    """Fresh all-zero table over the truncated state set."""
    space = StateSpace(model_for_masks, cfg.trunc)
    return LearnerState(space=space, q=np.zeros((len(space), _N_ACTIONS)), eta=cfg.eta0)


def _sample_action(probs: np.ndarray, u: float) -> Action:
    """The action that the uniform ``u`` draws from ``probs`` by ``action_edges``' rule."""
    return Action(int((u >= action_edges(probs)).sum()))


def step(ls: LearnerState, env: SlotEnv, cfg: LearnerConfig, rng: np.random.Generator) -> LearnerState:
    """One slot of on-policy learning; mutates and returns ``ls``.

    Samples the current action from the softmax (unless one was already
    committed by the previous step's target), observes the transition, then
    applies the temporal-difference update followed by the gain, empirical
    cost and charge updates.  This is the per-slot specification of
    ``train``, which runs the same slots as one list loop.
    """
    n = ls.n + 1
    i = ls._index(ls.state)
    if ls.next_action is None:
        probs = softmax_probs(ls.q[i], cfg.tau, ls.space.admissible[i])
        a = _sample_action(probs, rng.random())
    else:
        a = ls.next_action

    nxt, _ = env.step(a)
    # Cost lives in the truncated problem: the age is clamped like the table.
    delta_cl = min(ls.state.delta, ls.space.trunc.n_max)
    c = float(delta_cl) + (ls.eta if a.transmits else 0.0)

    j = ls._index(nxt)
    probs_next = softmax_probs(ls.q[j], cfg.tau, ls.space.admissible[j])
    a_next = _sample_action(probs_next, rng.random())

    alpha = _ALPHA0 / math.sqrt(n)
    ls.q[i, a] += alpha * (c - ls.gain + ls.q[j, a_next] - ls.q[i, a])
    ls.gain += (c - ls.gain) / n
    ls.empirical_cost += ((1.0 if a.transmits else 0.0) - ls.empirical_cost) / n
    ls.eta = max(0.0, ls.eta + cfg.eta_step / math.sqrt(n) * (ls.empirical_cost - cfg.c_max))

    ls.state = nxt
    ls.next_action = a_next
    ls.n = n
    return ls


def train(model: ChannelModel, cfg: LearnerConfig) -> tuple[LearnerState, Timeline]:
    """Run the learner against the hidden channel for ``cfg.horizon`` slots.

    The recorded running-average age uses the true (untruncated) ages, so the
    timeline measures real performance; deterministic given ``cfg.seed``.

    One loop over Python lists does what ``cfg.horizon`` calls of ``step``
    against a ``SlotEnv`` would do, with ``default_rng([seed, 0])`` for the
    channel and ``default_rng([seed, 1])`` for the actions.  ``step`` and
    ``SlotEnv`` are its specification, and it repeats their float operations
    in their order.  Uniforms come in blocks, which equal successive scalar
    draws, and the channel draws one only when the action transmits.

    Of the softmax weights ``exp(-(v - m) / tau)`` that ``softmax_probs``
    takes over a row's admissible entries ``v`` with minimum ``m``, the loop
    calls ``exp`` only for those off the minimum.  The minimum gets 1.0,
    which is ``exp(-0.0)``, and a retransmission where the row forbids it
    gets 0.0, which is ``exp(-inf)``, the weight ``softmax_probs`` gives an
    inadmissible entry; both are exact, so the sum and the probabilities
    keep their bits.  An action is drawn by ``action_edges``' rule, as
    ``_sample_action`` draws it, on the same cumulative sums: an edge with
    no probability beyond it is never crossed.  The one difference is
    ``math.exp`` for numpy's vector ``exp``: they can disagree in the last
    bit, which moves a sampled action only if its uniform lies within that
    bit of a cumulative probability.
    """
    if cfg.horizon < 0:
        raise ValueError(f"horizon must be non-negative, got {cfg.horizon}")
    rng_env = np.random.default_rng([cfg.seed, 0])
    rng_act = np.random.default_rng([cfg.seed, 1])
    ls = make_learner(cfg, model)
    horizon, tau, alpha0 = cfg.horizon, cfg.tau, _ALPHA0
    eta_step, c_max = cfg.eta_step, cfg.c_max
    n_max, r_cap = ls.space.trunc.n_max, ls.space.r_cap
    off = ls.space.off.tolist()
    q = ls.q.tolist()
    # Idling and fresh updates are admissible in every row, a retransmission
    # only where this flag is set.
    retx = ls.space.admissible[:, Action.RETRANSMIT].tolist()
    # No retransmission at r_cap, so the attempts stay at most max(1, r_cap),
    # and every entry read here equals SlotEnv's full table.
    fail, reset_age, fail_att, allowed = (x.tolist() for x in slot_outcomes(model, r_cap + 2))
    env_u, env_k = [], 0
    act_u, act_k = [], 0
    delta, r, j = 1, 0, 0  # true state and its table row
    gain, eta, emp, aoi_sum = ls.gain, ls.eta, ls.empirical_cost, 0.0
    r_aoi, r_cost, etas, gains = (array("d") for _ in range(4))  # unboxed, unlike a list of floats
    # Iteration n samples the action at the current state, applies step n's
    # update (which needs that sample) and then plays the action in slot
    # n + 1; a zero horizon runs no step and so draws nothing.
    for n in range(horizon + 1 if horizon else 0):
        row = q[j]
        v0, v1, v2 = row
        # The minimum's weight is 1.0 and a forbidden retransmission's 0.0;
        # (m - v) / tau is -(v - m) / tau bit for bit.
        if retx[j]:
            if v0 <= v1 and v0 <= v2:
                w0, w1, w2 = 1.0, exp((v0 - v1) / tau), exp((v0 - v2) / tau)
            elif v1 <= v2:
                w0, w1, w2 = exp((v1 - v0) / tau), 1.0, exp((v1 - v2) / tau)
            else:
                w0, w1, w2 = exp((v2 - v0) / tau), exp((v2 - v1) / tau), 1.0
        elif v0 <= v1:
            w0, w1, w2 = 1.0, exp((v0 - v1) / tau), 0.0
        else:
            w0, w1, w2 = exp((v1 - v0) / tau), 1.0, 0.0
        s = w0 + w1 + w2
        if act_k == len(act_u):
            act_u, act_k = rng_act.random(_BLOCK).tolist(), 0
        u = act_u[act_k]
        act_k += 1
        # action_edges' rule on the probabilities w / s: no action without probability is drawn.
        acc = w0 / s
        b = 0 if u < acc else 2 if w2 / s and u >= acc + w1 / s else 1
        if n:
            qi, rn = q[i], sqrt(n)
            qi[a] += alpha0 / rn * (c - gain + row[b] - qi[a])
            gain += (c - gain) / n
            emp += ((1.0 if a else 0.0) - emp) / n
            eta += eta_step / rn * (emp - c_max)
            eta = eta if eta > 0.0 else 0.0  # max(0.0, eta), signed zero and all
            r_cost.append(emp)
            etas.append(eta)
            gains.append(gain)
            if n == horizon:
                break
        a, i = b, j
        if not allowed[a][r]:
            raise ProtocolViolationError(0, f"inadmissible action {Action(a).name} in state {State(delta, r)}")
        # Cost lives in the truncated problem: the age is clamped like the table.
        c = float(delta if delta < n_max else n_max)
        aoi_sum += delta
        r_aoi.append(aoi_sum / (n + 1))
        if a:
            c += eta
            if env_k == len(env_u):
                env_u, env_k = rng_env.random(_BLOCK).tolist(), 0
            u = env_u[env_k]
            env_k += 1
            if u >= fail[a][r]:
                delta, r = reset_age[a][r], 0
            else:
                delta, r = delta + 1, fail_att[a][r]
        else:
            delta, r = delta + 1, fail_att[a][r]
        j = off[delta if delta < n_max else n_max] + (r if r < r_cap else r_cap)

    ls.q = np.array(q)
    ls.gain, ls.eta, ls.empirical_cost, ls.n = gain, eta, emp, horizon
    ls.state = State(delta, r)
    if horizon:
        ls.next_action = Action(b)
    timeline = Timeline(
        np.arange(1, horizon + 1),
        *(np.array(x, dtype=np.float64) for x in (r_aoi, r_cost, etas, gains)),
    )
    return ls, timeline
