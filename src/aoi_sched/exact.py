"""Exact long-run averages of a policy via its stationary distribution.

The induced chain is restricted to the states reachable from the renewal
state (1, 0), index 0 of ``StateSpace``; its unique closed recurrent class is
located by a strong connectivity decomposition and the stationary
distribution is obtained from a direct linear solve and returned as a dense
``(age, attempts)`` array.  Renewal mixtures combine the component chains by
expected cycle length, which is exactly what redrawing the active policy at
every visit to (1, 0) achieves.  The open-loop periodic baseline has a
closed-form evaluation.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import breadth_first_order, connected_components
from scipy.sparse.linalg import splu

from .errors import MultichainError, NoStationaryAoIError
from .mdp import Action, ChannelModel, State, StateSpace, Truncation, slot_outcomes
from .policies import PeriodicPolicy, Policy, RenewalMixture, clamped_rows

_STATIONARY_RESIDUAL = 1e-10
_DENSE_CLASS_LIMIT = 200  # measured crossover: the sparse solve is faster above it
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


def induced_chain(
    policy: Policy, model: ChannelModel, trunc: Truncation
) -> tuple[StateSpace, sp.csr_matrix, np.ndarray]:
    """Transition matrix of the chain under ``policy`` plus per-state transmit probability."""
    space = StateSpace(model, trunc)
    n = len(space)
    probs = clamped_rows(policy.table, space.age, space.r)  # (states × actions)
    bad = np.argwhere((probs > 0.0) & ~space.admissible)
    if len(bad):
        i, a = bad[0]
        raise NoStationaryAoIError(
            f"policy assigns inadmissible action {Action(a).name} at {State(int(space.age[i]), int(space.r[i]))}"
        )
    tx = probs[:, Action.NEW_UPDATE] + probs[:, Action.RETRANSMIT]
    # Only the branches actually taken become entries: csgraph counts stored
    # zeros as edges.
    keep = (probs[:, :, None] > 0.0) & (space.succ_prob > 0.0)
    vals = (probs[:, :, None] * space.succ_prob)[keep]
    rows = np.broadcast_to(np.arange(n)[:, None, None], keep.shape)[keep]
    P = sp.csr_matrix((vals, (rows, space.succ_idx[keep])), shape=(n, n))
    return space, P, tx


def _closed_class(P: sp.csr_matrix) -> np.ndarray:
    """Indices of the unique closed recurrent class reachable from (1, 0), index 0."""
    order = breadth_first_order(P, 0, directed=True, return_predecessors=False)
    sub = P[np.ix_(order, order)]
    n_comp, labels = connected_components(sub, directed=True, connection="strong")
    # A component is closed iff no probability mass leaves it.
    leaving = np.zeros(n_comp)
    coo = sub.tocoo()
    np.add.at(leaving, labels[coo.row], np.where(labels[coo.row] != labels[coo.col], coo.data, 0.0))
    closed = np.flatnonzero(leaving < 1e-14)
    if len(closed) == 0:
        raise MultichainError("no closed recurrent class found (empty chain?)")
    if len(closed) > 1:
        raise MultichainError(
            f"{len(closed)} closed recurrent classes reachable from (1, 0); averages are ambiguous"
        )
    members = order[labels == closed[0]]
    return np.sort(members)


def _stationary_on_class(P: sp.csr_matrix, members: np.ndarray) -> np.ndarray:
    Pc = P[np.ix_(members, members)]
    m = len(members)
    if m == 1:
        return np.ones(1)
    if m <= _DENSE_CLASS_LIMIT:
        A = Pc.toarray().T - np.eye(m)
        A[-1, :] = 1.0
        b = np.zeros(m)
        b[-1] = 1.0
        pi = np.linalg.solve(A, b)
    else:
        # Anchor pi[0] = 1 and drop the balance equation of the first member:
        # the remaining equations (Pc^T - I) pi = 0 keep the sparsity of Pc,
        # where a row of ones would fill the factors.  Minimum-degree ordering
        # on A^T + A fills far less than the default COLAMD here.
        A = (Pc[1:, 1:].T - sp.identity(m - 1)).tocsc()
        b = -Pc[0, 1:].toarray().ravel()
        pi = np.concatenate([[1.0], splu(A, permc_spec="MMD_AT_PLUS_A").solve(b)])
    pi = np.clip(pi, 0.0, None)
    pi /= pi.sum()
    residual = np.abs(pi @ Pc - pi).max()
    if residual > _STATIONARY_RESIDUAL:
        raise MultichainError(f"stationary solve residual {residual:.3e} too large")
    return pi


def _evaluate_chain(policy: Policy, model: ChannelModel, trunc: Truncation) -> EvalResult:
    space, P, tx = induced_chain(policy, model, trunc)
    members = _closed_class(P)
    if tx[members].max() <= 0.0:
        raise NoStationaryAoIError(
            "policy never transmits on its recurrent class; the age diverges"
        )
    pi = _stationary_on_class(P, members)
    deltas = space.delta[members]
    avg_aoi = float(pi @ deltas)
    avg_cost = float(pi @ tx[members])
    stationary = np.zeros((trunc.n_max + 1, space.r_cap + 1))
    stationary[space.age[members], space.r[members]] = pi
    return EvalResult(avg_aoi, avg_cost, stationary, float(pi[deltas == trunc.n_max].sum()))


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


def evaluate_exact(policy: Policy, model: ChannelModel, trunc: Truncation) -> EvalResult:
    """Exact average age and transmission rate of ``policy`` on the truncated chain."""
    if isinstance(policy, PeriodicPolicy):
        return _evaluate_periodic(policy, model)
    if isinstance(policy, RenewalMixture):
        first = evaluate_exact(policy.first, model, trunc)
        second = evaluate_exact(policy.second, model, trunc)
        w = policy.weight_first
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
    return _evaluate_chain(policy, model, trunc)


def arq_eval_truncation(p: float, threshold: int, tail_mass: float = 1e-13) -> Truncation:
    """Age cap making the geometric tail beyond ``threshold`` smaller than ``tail_mass``."""
    if p <= 0.0:
        extra = 2
    else:
        extra = int(np.ceil(np.log(tail_mass) / np.log(p))) + 2
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
    if abs(c1 - c2) < 1e-15:
        return 1.0
    t1 = 1.0 / float(first.stationary[regeneration])
    t2 = 1.0 / float(second.stationary[regeneration])
    num = t2 * (c_max - c2)
    den = t1 * (c1 - c_max) + num
    if den <= 0.0:
        return 1.0
    return float(min(1.0, max(0.0, num / den)))
