"""Exact long-run averages of a policy via its stationary distribution.

The stationary masses of the induced chain are those of
``mdp.BorderChain.stationary``: on the class that the renewal state (1, 0)
reaches, or none when the chain ends idling at the age cap, where the age
diverges.  A solver's output brings the chain of its policy.
The distribution is returned as a dense ``(age, attempts)`` array.  Renewal
mixtures combine the component chains by expected cycle length, which is
exactly what redrawing the active policy at every visit to (1, 0) achieves.
The open-loop periodic baseline has a closed-form evaluation.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InaccurateSolveError, NoStationaryAoIError
from .mdp import Action, BorderChain, ChannelModel, State, StateSpace, Truncation, slot_outcomes
from .policies import PeriodicPolicy, Policy, RenewalMixture, clamped_rows
from .rvi import SolverOutput

_STATIONARY_RESIDUAL = 1e-10
_ARQ_TAIL_MASS = 1e-13  # geometric tail that arq_eval_truncation leaves beyond the cap
_RENEWAL = State(1, 0)


@dataclass(frozen=True, eq=False)
class EvalResult:
    """Long-run average age, average transmission rate, and state occupancy.

    ``stationary[delta, r]`` is the stationary mass of state ``(delta, r)``,
    0 outside the recurrent class; ``stationary[State(1, 0)]`` reads one
    state.  ``tail_mass`` is the stationary mass at the age cap ``n_max``,
    where the truncated chain lumps every larger age: a measure of
    truncation error.  Results compare by identity, as an array field has
    no single truth value.
    """

    avg_aoi: float
    avg_cost: float
    stationary: np.ndarray = field(repr=False)
    tail_mass: float


def induced_chain(policy: Policy, space: StateSpace) -> tuple[np.ndarray, np.ndarray]:
    """The chain under the stationary ``policy`` on ``space``: the probability
    of every branch ``space.succ_idx`` (states × actions × 2), and the
    per-state transmit probability."""
    probs = clamped_rows(policy.table, space.age, space.r)  # (states × actions)
    bad = np.argwhere((probs > 0.0) & ~space.admissible)
    if len(bad):
        i, a = bad[0]
        raise NoStationaryAoIError(
            f"policy assigns inadmissible action {Action(a).name} at {State(int(space.age[i]), int(space.r[i]))}"
        )
    tx = probs[:, Action.NEW_UPDATE] + probs[:, Action.RETRANSMIT]
    return probs[:, :, None] * space.succ_prob, tx


def _evaluate_chain(chain: BorderChain, tx: np.ndarray) -> EvalResult:
    """Averages of ``chain``, whose state ``i`` transmits with probability ``tx[i]``."""
    space = chain.space
    n, dst = len(space), space.succ_idx.ravel()
    pi = chain.stationary()  # all zero when the chain ends idling at (n_max, 0)
    if not pi @ tx > 0.0:
        raise NoStationaryAoIError(
            "policy never transmits on its recurrent class; the age diverges"
        )
    pi /= pi.sum()
    residual = np.abs(np.bincount(dst, (pi[:, None, None] * chain.branch).ravel(), n) - pi).max()
    if residual > _STATIONARY_RESIDUAL:
        raise InaccurateSolveError(f"inaccurate stationary solve: residual {residual:.3e} above {_STATIONARY_RESIDUAL:g}")
    stationary = np.zeros((space.trunc.n_max + 1, space.r_cap + 1))
    stationary[space.age, space.r] = pi
    return EvalResult(float(pi @ space.delta), float(pi @ tx), stationary, float(pi[space.age == space.trunc.n_max].sum()))


def _evaluate_solved(out: SolverOutput) -> EvalResult:
    """``evaluate_exact`` of the solver's policy, read off ``out.chain``."""
    return _evaluate_chain(out.chain, 1.0 - out.policy.table[out.space.age, out.space.r, Action.IDLE])


def _evaluate_periodic(policy: PeriodicPolicy, model: ChannelModel) -> EvalResult:
    # Renewal argument over transmission epochs: with period k and error p,
    # the age right after m consecutive failures spans one block of k ages,
    # so age a occurs with probability (1-p) * p**((a-1)//k) / k.
    k = policy.period
    out = slot_outcomes(model)
    p = float(out.fail[Action.NEW_UPDATE, 0])
    q = 1.0 - p
    avg_cost = 1.0 / k
    avg_aoi = (k + 1) / 2.0 + k * p / q
    r_fail = int(out.fail_att[Action.NEW_UPDATE, 0])
    blocks = []  # mass of each age of block m, the ages after m failures
    while (block := q * p ** len(blocks) / k) * k >= 1e-15:
        blocks.append(block)
    stationary = np.zeros((k * len(blocks) + 1, r_fail + 1))
    stationary[1:, 0] = np.repeat(blocks, k)
    # The first age of every failed block follows a NACK, so it carries the
    # failed-attempt marker.
    first = k * np.arange(1, len(blocks)) + 1
    stationary[first, 0] = 0.0
    stationary[first, r_fail] = blocks[1:]
    return EvalResult(avg_aoi, avg_cost, stationary, 0.0)  # untruncated


def evaluate_exact(
    policy: Policy, model: ChannelModel, trunc: Truncation, *, space: StateSpace | None = None
) -> EvalResult:
    """Exact average age and transmission rate of ``policy`` on the truncated chain.

    ``space`` is the ``StateSpace`` of ``(model, trunc)``, built once per call
    when omitted, and shared by a mixture's two components; a caller that
    has just solved on it (``SolverOutput.space``) passes it on.  A space of
    another model or truncation raises ``ValueError``, also for the periodic
    baseline, which neither reads nor builds one.
    """
    if space is not None and not space.fits(model, trunc):
        raise ValueError(f"the given state space was not built for {model} under {trunc}")
    if isinstance(policy, PeriodicPolicy):
        return _evaluate_periodic(policy, model)
    if space is None:
        space = StateSpace(model, trunc)
    if isinstance(policy, RenewalMixture):
        first = _evaluate_stationary(policy.first, space)
        second = _evaluate_stationary(policy.second, space)
        return _renewal_mix(first, second, policy.weight_first)
    return _evaluate_stationary(policy, space)


def _evaluate_stationary(policy: Policy, space: StateSpace) -> EvalResult:
    """``evaluate_exact`` of the stationary ``policy`` on ``space``."""
    branch, tx = induced_chain(policy, space)
    return _evaluate_chain(BorderChain(space, branch), tx)


def _renewal_mix(first: EvalResult, second: EvalResult, w: float) -> EvalResult:
    """Averages of redrawing at (1, 0) the policy of ``first`` with probability ``w``, else of ``second``."""
    if w >= 1.0:
        return first
    if w <= 0.0:
        return second
    p1 = float(first.stationary[_RENEWAL])
    p2 = float(second.stationary[_RENEWAL])
    if p1 <= 0.0 or p2 <= 0.0:
        raise NoStationaryAoIError(
            "renewal mixture requires (1, 0) to be recurrent under both components"
        )
    # Expected cycle length is 1/pi(1,0); cycles weighted by how often
    # each component is drawn and how long its cycles run.
    t1, t2 = 1.0 / p1, 1.0 / p2
    denom = w * t1 + (1.0 - w) * t2
    avg_aoi = (w * t1 * first.avg_aoi + (1.0 - w) * t2 * second.avg_aoi) / denom
    avg_cost = (w * t1 * first.avg_cost + (1.0 - w) * t2 * second.avg_cost) / denom
    tail_mass = (w * t1 * first.tail_mass + (1.0 - w) * t2 * second.tail_mass) / denom
    stationary = w * t1 / denom * first.stationary + (1.0 - w) * t2 / denom * second.stationary
    return EvalResult(avg_aoi, avg_cost, stationary, tail_mass)


def arq_eval_truncation(p: float, threshold: int) -> Truncation:
    """Age cap making the geometric tail beyond ``threshold`` smaller than ``_ARQ_TAIL_MASS``."""
    if p <= 0.0:
        extra = 2
    else:
        extra = int(np.ceil(np.log(_ARQ_TAIL_MASS) / np.log(p))) + 2
    return Truncation(n_max=threshold + max(extra, 2), r_max=0)


def renewal_mixture_weight(
    first: EvalResult, second: EvalResult, c_max: float, regeneration: State = _RENEWAL
) -> float:
    """Weight of ``first`` per visit to ``regeneration`` making the exact cost ``c_max``.

    Corrects the chord weight for unequal expected cycle lengths
    ``1 / pi(regeneration)``: drawing a policy per cycle weights its averages
    by how long its cycles last.  The default regeneration point is the
    renewal state (1, 0), where a ``RenewalMixture`` redraws.
    """
    c1, c2 = first.avg_cost, second.avg_cost
    if not c2 <= c_max <= c1:
        raise ValueError(f"budget {c_max} not bracketed by component costs [{c2}, {c1}]")
    if c1 == c2:
        return 1.0
    t1 = 1.0 / float(first.stationary[regeneration])
    t2 = 1.0 / float(second.stationary[regeneration])
    num = t2 * (c_max - c2)  # >= 0; the denominator is at least num and, as c1 > c2, positive
    return num / (t1 * (c1 - c_max) + num)
