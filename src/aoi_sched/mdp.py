"""Core decision-process model for status-update scheduling with feedback.

The system state pairs the age of information at the destination (``delta``,
in slots) with the number of prior failed attempts of the in-flight packet
(``r``).  Each slot the scheduler idles, sends a fresh update, or retransmits
the failed packet; a single-bit ACK/NACK arrives instantly.  Decoding fails
with probability ``g(r) = p0 * lam**r``, non-increasing in the attempt count,
which covers classic ARQ (``lam = 1``, ``r_max = 0``) and exponentially
improving HARQ combining.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum
from typing import NamedTuple

import numpy as np

from .errors import InadmissibleActionError, InadmissibleQueryError

# Scan limit when locating the first r with g(r) underflowing to exactly 0.
_UNDERFLOW_SCAN_LIMIT = 8192


class Action(IntEnum):
    """Per-slot decisions; numeric order is also the argmin tie-break order."""

    IDLE = 0
    NEW_UPDATE = 1
    RETRANSMIT = 2

    @property
    def code(self) -> str:
        """One-letter code used in CSV output."""
        return "inx"[self.value]

    @property
    def transmits(self) -> bool:
        return self is not Action.IDLE


class State(NamedTuple):
    """Age of information and prior failed attempts of the current packet."""

    delta: int
    r: int


class TransitionEntry(NamedTuple):
    next: State
    prob: float


@dataclass(frozen=True)
class ChannelModel:
    """Decoding-error profile ``g(r) = p0 * lam**r`` with retransmission cap.

    ``r_max`` is the largest admissible attempt count; ``None`` leaves it
    unbounded (the solver truncation then supplies the cap).  If ``g(r)``
    underflows to exactly zero for some ``r``, success at that point is
    certain and ``r_max`` is tightened to the smallest such ``r``.
    """

    p0: float
    lam: float = 1.0
    r_max: int | None = 0

    def __post_init__(self):
        if not 0.0 < self.p0 < 1.0:
            raise ValueError(f"p0 must lie in (0, 1), got {self.p0}")
        if not 0.0 < self.lam <= 1.0:
            raise ValueError(f"lam must lie in (0, 1], got {self.lam}")
        if self.r_max is not None and self.r_max < 0:
            raise ValueError(f"r_max must be non-negative, got {self.r_max}")
        cap = self._underflow_cap()
        if cap is not None and (self.r_max is None or cap < self.r_max):
            object.__setattr__(self, "r_max", cap)

    def _underflow_cap(self) -> int | None:
        if self.lam == 1.0:
            return None
        bound = self.r_max if self.r_max is not None else _UNDERFLOW_SCAN_LIMIT
        # g is monotone in r, so the first zero can be found by bisection,
        # but the bound is small enough that a geometric probe suffices.
        if self.p0 * self.lam ** min(bound, _UNDERFLOW_SCAN_LIMIT) > 0.0:
            return None
        lo, hi = 0, min(bound, _UNDERFLOW_SCAN_LIMIT)
        while lo < hi:
            mid = (lo + hi) // 2
            if self.p0 * self.lam**mid > 0.0:
                lo = mid + 1
            else:
                hi = mid
        return lo

    def error_prob(self, r: int) -> float:
        """Decoding-error probability after ``r`` prior attempts."""
        if r < 0:
            raise InadmissibleQueryError(f"attempt count must be non-negative, got {r}")
        if self.r_max is not None and r > self.r_max:
            raise InadmissibleQueryError(
                f"attempt count {r} exceeds the model's r_max={self.r_max}"
            )
        return self.p0 * self.lam**r


@dataclass(frozen=True)
class Truncation:
    """Finite approximation bounds: age capped at ``n_max``, attempts at ``r_max``.

    Attempt counts are bounded by the age, so ``r_max`` is normalized to at
    most ``n_max - 1``; larger values would name states that cannot exist.
    """

    n_max: int
    r_max: int

    def __post_init__(self):
        if self.n_max < 2:
            raise ValueError(f"n_max must be at least 2, got {self.n_max}")
        if self.r_max < 0:
            raise ValueError(f"r_max must be non-negative, got {self.r_max}")
        if self.r_max >= self.n_max:
            object.__setattr__(self, "r_max", self.n_max - 1)


def effective_r_max(model: ChannelModel, trunc: Truncation) -> int:
    """Attempt-count cap actually in force: the tighter of model and truncation."""
    if model.r_max is None:
        return trunc.r_max
    return min(model.r_max, trunc.r_max)


def is_admissible_state(s: State, trunc: Truncation, r_cap: int) -> bool:
    return 1 <= s.delta <= trunc.n_max and 0 <= s.r < min(s.delta, r_cap + 1)


def admissible_actions(s: State, model: ChannelModel, trunc: Truncation) -> tuple[Action, ...]:
    """Actions allowed in ``s``.

    Retransmission requires a failed packet in flight (``r >= 1``) and room
    for one more combining attempt (``r < r_max``); it is forbidden at the
    cap so the error profile is never extrapolated.
    """
    if 1 <= s.r < effective_r_max(model, trunc):
        return (Action.IDLE, Action.NEW_UPDATE, Action.RETRANSMIT)
    return (Action.IDLE, Action.NEW_UPDATE)


def stage_cost(s: State, a: Action, eta: float) -> float:
    """Per-slot cost: the age plus ``eta`` whenever a transmission is made."""
    return float(s.delta) + (eta if a.transmits else 0.0)


def transitions(
    s: State, a: Action, model: ChannelModel, trunc: Truncation
) -> list[TransitionEntry]:
    """Exact transition support of ``(s, a)`` in the truncated chain.

    Ages exceeding ``n_max`` are clamped (self-loop in age); the attempt
    count never needs clamping except for a fresh update under ``r_max = 0``,
    where the failed-attempt marker collapses back to 0.
    """
    r_cap = effective_r_max(model, trunc)
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


class SlotOutcomes(NamedTuple):
    fail: np.ndarray  # probability that nothing is delivered, 1 when idling
    reset_age: np.ndarray  # age after a delivery
    fail_att: np.ndarray  # attempts after a slot without a delivery
    admissible: np.ndarray


def slot_outcomes(model: ChannelModel, width: int = 2) -> SlotOutcomes:
    """The slot rule of ``transitions`` as ``(action, attempts)`` arrays.

    The table covers the attempts below ``width``, or up to ``model.r_max``
    if that is fewer, and its last column acts as the attempt cap; the
    default suffices for fresh updates.  A failed fresh update leaves the
    marker 1 when retransmission is possible at all, else 0.  ``StateSpace``,
    the simulator, the periodic evaluation, ``SlotEnv`` and ``sarsa.train``
    read this table, widening it before the attempts reach a last column
    below the model's cap.
    """
    if model.r_max is not None:
        width = min(width, model.r_max + 1)
    top = width - 1
    # Python floats from the model, so the bits match transitions().
    g = [model.error_prob(r) for r in range(width)]
    # Nested lists: a table this small builds faster from them than by stacking.
    return SlotOutcomes(
        np.array([[1.0] * width, g[:1] * width, g]),
        # Idling delivers nothing; its age entry is never read.
        np.array([[0] * width, [1] * width, range(1, width + 1)], dtype=np.int64),
        np.array([[0] * width, [min(1, top)] * width, [min(k + 1, top) for k in range(width)]], dtype=np.int64),
        np.array([[True] * width, [True] * width, [1 <= k < top for k in range(width)]]),
    )


def enumerate_states(trunc: Truncation) -> list[State]:
    """All admissible states, row-major by age then attempt count."""
    return [
        State(delta, r)
        for delta in range(1, trunc.n_max + 1)
        for r in range(min(delta, trunc.r_max + 1))
    ]


class StateSpace:
    """Dense indexing of the truncated state set plus transition arrays.

    States are row-major in ``(delta, r)``: age ``delta`` holds the attempt
    counts ``0 .. min(delta, r_cap + 1) - 1``.  With row offsets
    ``off[delta] = sum(min(d, r_cap + 1) for d in 1 .. delta - 1)`` the state
    ``(delta, r)`` sits at index ``off[delta] + r``: state ``i`` is ``(age[i],
    r[i])`` and the renewal state (1, 0) is index 0.  The at-most-two
    successor indices and probabilities of every (state, action) are gathered
    from ``slot_outcomes`` by index arithmetic.  The solver's policy
    evaluations and the stationary-distribution builder read them;
    ``transitions`` is their per-state specification.  Unused successor
    slots hold index 0 with probability 0.
    """

    def __init__(self, model: ChannelModel, trunc: Truncation):
        self.trunc = trunc
        self.r_cap = r_cap = effective_r_max(model, trunc)
        n_max = trunc.n_max
        ages = np.arange(1, n_max + 1)
        width = np.minimum(ages, r_cap + 1)
        self.off = np.zeros(n_max + 2, dtype=np.int64)
        np.cumsum(width, out=self.off[2:])
        n = int(self.off[-1])
        self.age = age = np.repeat(ages, width)
        self.r = np.arange(n) - self.off[age]
        self.delta = age.astype(np.float64)

        out = slot_outcomes(model, r_cap + 1)
        up = self.off[np.minimum(age + 1, n_max)]  # index of (min(delta + 1, n_max), 0)
        self.succ_idx = np.zeros((n, len(Action), 2), dtype=np.int64)
        self.succ_prob = np.zeros((n, len(Action), 2), dtype=np.float64)
        self.admissible = out.admissible.T.take(self.r, axis=0)
        # Idling and fresh updates ignore the attempts; a delivered update lands on index 0.
        for a in (Action.IDLE, Action.NEW_UPDATE):
            self.succ_idx[:, a, 0] = up + out.fail_att[a, 0]
            self.succ_prob[:, a] = out.fail[a, 0], 1.0 - out.fail[a, 0]

        retx = np.flatnonzero(self.admissible[:, Action.RETRANSMIT])
        rr = self.r.take(retx)
        fail = out.fail[Action.RETRANSMIT].take(rr)
        self.succ_idx[retx, Action.RETRANSMIT, 0] = up.take(retx) + out.fail_att[Action.RETRANSMIT].take(rr)
        self.succ_idx[retx, Action.RETRANSMIT, 1] = self.off.take(out.reset_age[Action.RETRANSMIT].take(rr))
        self.succ_prob[retx, Action.RETRANSMIT, 0] = fail
        self.succ_prob[retx, Action.RETRANSMIT, 1] = 1.0 - fail
        # Far beyond the underflow scan limit g(r) can be exactly 0; transitions()
        # then drops the failure branch and success moves to the first slot.
        dead = retx[fail == 0.0]
        for arr in (self.succ_idx, self.succ_prob):
            arr[dead, Action.RETRANSMIT, 0] = arr[dead, Action.RETRANSMIT, 1]
            arr[dead, Action.RETRANSMIT, 1] = 0

    def __len__(self) -> int:
        return len(self.delta)
