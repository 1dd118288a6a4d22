"""Policy data model shared by the solver, exact evaluation and simulation.

Stationary kinds expose ``action_probs(state)`` and, for every state at once,
``action_table``; table-backed kinds clamp the lookup to their own
truncation so they extend naturally to larger ages.  The renewal mixture and
the open-loop periodic baseline need execution context (active branch, slot
phase) and are handled specially by the evaluators.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Mapping, Union

import numpy as np

from .mdp import Action, State, Truncation

_PROB_ATOL = 1e-9


def _clamp(s: State, trunc: Truncation) -> State:
    return State(min(s.delta, trunc.n_max), min(s.r, trunc.r_max))


@dataclass(frozen=True, eq=True)
class DeterministicTable:
    """One action per truncated state."""

    actions: Mapping[State, Action]
    trunc: Truncation

    def action_at(self, s: State) -> Action:
        return self.actions[_clamp(s, self.trunc)]

    def action_probs(self, s: State) -> dict[Action, float]:
        return {self.action_at(s): 1.0}

    def describe(self) -> str:
        return "table"


@dataclass(frozen=True, eq=True)
class RandomizedTable:
    """A probability vector over admissible actions per truncated state."""

    probs: Mapping[State, Mapping[Action, float]]
    trunc: Truncation

    def __post_init__(self):
        for s, dist in self.probs.items():
            total = 0.0
            for a, p in dist.items():
                if p < -_PROB_ATOL:
                    raise ValueError(f"negative action probability {p} at {s}")
                total += p
            if not math.isclose(total, 1.0, abs_tol=_PROB_ATOL):
                raise ValueError(f"action probabilities at {s} sum to {total}, not 1")

    def action_probs(self, s: State) -> dict[Action, float]:
        return {a: p for a, p in self.probs[_clamp(s, self.trunc)].items() if p > 0.0}

    def describe(self) -> str:
        return "randomized-table"


@dataclass(frozen=True, eq=True)
class ThresholdPolicy:
    """Age-threshold rule: send a fresh update iff the age reaches the threshold.

    ``transmit_prob`` randomizes the decision exactly at ``threshold``; ages
    above it always transmit, ages below always idle.  Never retransmits.
    """

    threshold: int
    transmit_prob: float = 1.0

    def __post_init__(self):
        if self.threshold < 1:
            raise ValueError(f"threshold must be at least 1, got {self.threshold}")
        if not 0.0 <= self.transmit_prob <= 1.0:
            raise ValueError(f"transmit_prob must lie in [0, 1], got {self.transmit_prob}")

    def action_probs(self, s: State) -> dict[Action, float]:
        if s.delta > self.threshold:
            return {Action.NEW_UPDATE: 1.0}
        if s.delta == self.threshold:
            if self.transmit_prob >= 1.0:
                return {Action.NEW_UPDATE: 1.0}
            if self.transmit_prob <= 0.0:
                return {Action.IDLE: 1.0}
            return {Action.NEW_UPDATE: self.transmit_prob, Action.IDLE: 1.0 - self.transmit_prob}
        return {Action.IDLE: 1.0}

    def describe(self) -> str:
        if self.transmit_prob >= 1.0:
            return f"threshold[{self.threshold}]"
        return f"threshold[{self.threshold};p={self.transmit_prob:.6g}]"


@dataclass(frozen=True, eq=True)
class RenewalMixture:
    """Randomization between two stationary policies, redrawn at state (1, 0).

    Every time the chain enters the renewal state a fresh independent draw
    selects ``first`` with probability ``weight_first``; the chosen policy is
    followed until the next renewal.
    """

    first: "StationaryPolicy"
    second: "StationaryPolicy"
    weight_first: float

    def __post_init__(self):
        if not 0.0 <= self.weight_first <= 1.0:
            raise ValueError(f"weight_first must lie in [0, 1], got {self.weight_first}")

    def describe(self) -> str:
        return f"mixture[w={self.weight_first:.6g}]"


@dataclass(frozen=True, eq=True)
class PeriodicPolicy:
    """Open-loop baseline: a fresh update every ``period`` slots, feedback ignored."""

    period: int

    def __post_init__(self):
        if self.period < 1:
            raise ValueError(f"period must be at least 1, got {self.period}")

    def transmits_at(self, t: int) -> bool:
        # Slots are 1-based; transmissions land on t = 1, period+1, ...
        return (t - 1) % self.period == 0

    def describe(self) -> str:
        return f"periodic[{self.period}]"


StationaryPolicy = Union[DeterministicTable, RandomizedTable, ThresholdPolicy]
Policy = Union[StationaryPolicy, RenewalMixture, PeriodicPolicy]


def table_difference(a: DeterministicTable, b: DeterministicTable) -> list[State]:
    """States on which two deterministic tables disagree."""
    if a.trunc != b.trunc:
        raise ValueError("cannot compare tables with different truncations")
    return [s for s in a.actions if a.actions[s] != b.actions[s]]


def action_table(policy: StationaryPolicy) -> np.ndarray:
    """Dense ``(age, attempts, action)`` probabilities of a stationary policy.

    Entry ``[delta, r, a]`` is the probability of ``a`` in state ``(delta,
    r)``, where ``action_probs`` has it positive, else 0.  Larger ages and
    attempt counts take the last row and column, as the policies clamp to
    their truncation.  A table must list every state of its truncation.
    """
    if isinstance(policy, ThresholdPolicy):
        thr, ptx = policy.threshold, policy.transmit_prob
        table = np.zeros((thr + 2, 1, len(Action)))
        table[:thr, 0, Action.IDLE] = 1.0
        table[thr, 0, : Action.RETRANSMIT] = 1.0 - ptx, ptx
        table[thr + 1, 0, Action.NEW_UPDATE] = 1.0
        return table
    if not isinstance(policy, (DeterministicTable, RandomizedTable)):
        raise TypeError(f"no action table for policy kind {type(policy).__name__}")
    trunc = policy.trunc
    rows = policy.actions if isinstance(policy, DeterministicTable) else policy.probs
    width = trunc.r_max + 1  # attempt counts of every age from r_max + 1 on
    n_states = width * (width + 1) // 2 + (trunc.n_max - width) * width
    if len(rows) != n_states:
        raise ValueError(f"{policy.describe()} lists {len(rows)} of the {n_states} states of {trunc}")
    table = np.zeros((trunc.n_max + 1, width, len(Action)))
    if isinstance(policy, DeterministicTable):
        states = np.fromiter(itertools.chain.from_iterable(rows), np.int64, 2 * n_states).reshape(n_states, 2)
        table[states[:, 0], states[:, 1], np.fromiter(rows.values(), np.int64, n_states)] = 1.0
    else:
        for s, dist in rows.items():
            for a, p in dist.items():
                if p > 0.0:
                    table[s.delta, s.r, a] = p
    return table
