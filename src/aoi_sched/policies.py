"""Policy data model shared by the solver, exact evaluation and simulation.

Stationary kinds hold ``table``: entry ``[delta, r, a]`` is the probability
of ``a`` in state ``(delta, r)``, and larger ages and attempt counts read the
last row and column (``clamped_rows``), so a table extends naturally to
larger states.  Every reader draws an action from a row by one rule,
``action_edges``.  Tables also accept a per-state mapping over every state
of their truncation, as ``enumerate_states`` lists them.  The renewal mixture
and the open-loop periodic baseline need execution context (active branch,
slot phase) and are handled specially by the evaluators.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from numbers import Integral
from typing import Mapping, Union

import numpy as np

from .mdp import Action, State, StateSpace, Truncation

_PROB_ATOL = 1e-9


def _dense(rows: Mapping[State, Mapping[Action, float]], trunc: Truncation, kind: str) -> np.ndarray:
    """The ``(age, attempts, action)`` table of a mapping that lists every state of ``trunc``."""
    width = trunc.r_max + 1  # attempt counts of every age from r_max + 1 on
    n_states = width * (width + 1) // 2 + (trunc.n_max - width) * width
    if len(rows) != n_states:
        raise ValueError(f"{kind} lists {len(rows)} of the {n_states} states of {trunc}")
    table = np.zeros((trunc.n_max + 1, width, len(Action)))
    for s, dist in rows.items():
        for a, p in dist.items():
            table[s.delta, s.r, a] = p
    return table


def clamped_rows(table: np.ndarray, delta, r) -> np.ndarray:
    """Rows of ``table`` at ages ``delta`` and attempts ``r``, larger ones reading its last row and column."""
    return table[np.minimum(delta, len(table) - 1), np.minimum(r, table.shape[1] - 1)]


def action_edges(probs: np.ndarray) -> np.ndarray:
    """The draw rule of action rows ``probs``: a uniform ``u`` draws action ``(u >= edges).sum()``.

    Edge ``k`` is the cumulative probability of the actions up to ``k``, or
    +inf when no action beyond ``k`` has probability, so an action of
    probability 0 is never drawn, whatever the rounding of the cumulative
    sum; a sure idle has edges (inf, inf).
    """
    beyond = np.cumsum(probs[..., ::-1], axis=-1)[..., -2::-1]
    return np.where(beyond > 0.0, np.cumsum(probs, axis=-1)[..., :-1], np.inf)


@dataclass(frozen=True, eq=False)
class DeterministicTable:
    """One action per truncated state: a one-hot ``table``."""

    table: np.ndarray  # or a State -> Action mapping, converted on construction
    trunc: Truncation

    def __post_init__(self):
        if isinstance(self.table, Mapping):
            rows = {s: {a: 1.0} for s, a in self.table.items()}
            object.__setattr__(self, "table", _dense(rows, self.trunc, self.describe()))

    @classmethod
    def from_actions(cls, space: StateSpace, actions: np.ndarray) -> "DeterministicTable":
        """The table playing ``actions[i]`` in state ``i`` of ``space``."""
        table = np.zeros((space.trunc.n_max + 1, space.r_cap + 1, len(Action)))
        table[space.age, space.r, actions] = 1.0
        return cls(table, Truncation(space.trunc.n_max, space.r_cap))

    def describe(self) -> str:
        return "table"


@dataclass(frozen=True, eq=False)
class RandomizedTable:
    """A probability vector over admissible actions per truncated state."""

    table: np.ndarray  # or a State -> {Action: probability} mapping, converted on construction
    trunc: Truncation

    def __post_init__(self):
        table = self.table
        if isinstance(table, Mapping):
            table = _dense(table, self.trunc, self.describe())
        neg = np.argwhere(table < -_PROB_ATOL)
        if len(neg):
            d, r, a = neg[0]
            raise ValueError(f"negative action probability {table[d, r, a]} at {State(int(d), int(r))}")
        total = table.sum(axis=2)
        is_state = np.arange(table.shape[1]) < np.arange(len(table))[:, None]
        off = np.argwhere(is_state & ~(np.abs(total - 1.0) <= _PROB_ATOL))  # NaN sums too
        if len(off):
            d, r = off[0]
            raise ValueError(f"action probabilities at {State(int(d), int(r))} sum to {total[d, r]}, not 1")
        object.__setattr__(self, "table", np.maximum(table, 0.0))

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
        if not isinstance(self.threshold, Integral) or self.threshold < 1:
            raise ValueError(f"threshold must be an integer of at least 1, got {self.threshold}")
        if not 0.0 <= self.transmit_prob <= 1.0:
            raise ValueError(f"transmit_prob must lie in [0, 1], got {self.transmit_prob}")

    @cached_property
    def table(self) -> np.ndarray:
        thr, ptx = self.threshold, self.transmit_prob
        table = np.zeros((thr + 2, 1, len(Action)))
        table[:thr, 0, Action.IDLE] = 1.0
        table[thr, 0, : Action.RETRANSMIT] = 1.0 - ptx, ptx
        table[thr + 1, 0, Action.NEW_UPDATE] = 1.0
        return table

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
        for component in (self.first, self.second):
            # Exact evaluation and simulation read a component's state table.
            if not isinstance(component, StationaryPolicy):
                raise ValueError(
                    f"mixture components must be stationary table or threshold policies, got {type(component).__name__}"
                )
        if not 0.0 <= self.weight_first <= 1.0:
            raise ValueError(f"weight_first must lie in [0, 1], got {self.weight_first}")

    def describe(self) -> str:
        return f"mixture[w={self.weight_first:.6g}]"


@dataclass(frozen=True, eq=True)
class PeriodicPolicy:
    """Open-loop baseline: a fresh update in slots 1, ``period`` + 1, ...; feedback ignored."""

    period: int

    def __post_init__(self):
        if not isinstance(self.period, Integral) or self.period < 1:
            raise ValueError(f"period must be an integer of at least 1, got {self.period}")

    def describe(self) -> str:
        return f"periodic[{self.period}]"


StationaryPolicy = Union[DeterministicTable, RandomizedTable, ThresholdPolicy]
Policy = Union[StationaryPolicy, RenewalMixture, PeriodicPolicy]


def table_difference(a: DeterministicTable, b: DeterministicTable) -> list[State]:
    """States on which two deterministic tables disagree."""
    if a.trunc != b.trunc:
        raise ValueError("cannot compare tables with different truncations")
    d, r = np.nonzero((a.table != b.table).any(axis=2))
    return list(map(State, d.tolist(), r.tolist()))
