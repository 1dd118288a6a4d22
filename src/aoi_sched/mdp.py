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

import sys
from dataclasses import dataclass
from enum import IntEnum
from functools import cached_property, lru_cache
from numbers import Integral
from typing import NamedTuple

import numpy as np

from ._lapack import dtbtrs, dtrtrs
from .errors import InadmissibleQueryError


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


@dataclass(frozen=True)
class ChannelModel:
    """Decoding-error profile ``g(r) = p0 * lam**r`` with retransmission cap.

    ``r_max`` is the largest admissible attempt count, a finite integer.  If
    ``g(r)`` underflows to exactly zero for some ``r <= r_max``, success at
    that point is certain and ``r_max`` is cut back to the smallest such
    ``r``; so a large ``r_max`` sets no practical cap.
    """

    p0: float
    lam: float = 1.0
    r_max: int = 0

    def __post_init__(self):
        if not 0.0 < self.p0 < 1.0:
            raise ValueError(f"p0 must lie in (0, 1), got {self.p0}")
        if not 0.0 < self.lam <= 1.0:
            raise ValueError(f"lam must lie in (0, 1], got {self.lam}")
        if not isinstance(self.r_max, Integral) or self.r_max < 0:
            raise ValueError(f"r_max must be a non-negative integer, got {self.r_max}")
        # g is non-increasing in r, so bisect for its first zero.  Every lam < 1
        # underflows before sys.maxsize, and below it lam**hi converts hi to a
        # float without overflow.
        lo, hi = 0, min(self.r_max, sys.maxsize)
        if self.p0 * self.lam**hi > 0.0:
            return
        while lo < hi:
            mid = (lo + hi) // 2
            if self.p0 * self.lam**mid > 0.0:
                lo = mid + 1
            else:
                hi = mid
        object.__setattr__(self, "r_max", lo)

    def error_prob(self, r: int) -> float:
        """Decoding-error probability after ``r`` prior attempts."""
        if r < 0:
            raise InadmissibleQueryError(f"attempt count must be non-negative, got {r}")
        if r > self.r_max:
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
        if not isinstance(self.n_max, Integral) or self.n_max < 2:
            raise ValueError(f"n_max must be an integer of at least 2, got {self.n_max}")
        if not isinstance(self.r_max, Integral) or self.r_max < 0:
            raise ValueError(f"r_max must be a non-negative integer, got {self.r_max}")
        if self.r_max >= self.n_max:
            object.__setattr__(self, "r_max", self.n_max - 1)


def effective_r_max(model: ChannelModel, trunc: Truncation) -> int:
    """Attempt-count cap actually in force: the tighter of model and truncation."""
    return min(model.r_max, trunc.r_max)


class SlotOutcomes(NamedTuple):
    fail: np.ndarray  # probability that nothing is delivered, 1 when idling
    reset_age: np.ndarray  # age after a delivery
    fail_att: np.ndarray  # attempts after a slot without a delivery
    admissible: np.ndarray


def slot_outcomes(model: ChannelModel, width: int = 2) -> SlotOutcomes:
    """The slot rule, as ``(action, attempts)`` arrays.

    Idling delivers nothing.  A fresh update fails with ``g(0)``.  A
    retransmission, allowed from ``r = 1`` to below the attempt cap so the
    error profile is never extrapolated, fails with ``g(r)`` and otherwise
    delivers information ``r + 1`` slots old.  A failure leaves 1 failed
    attempt after a fresh update, ``r + 1`` after a retransmission.

    The table covers the attempts below ``width``, or up to ``model.r_max``
    if that is fewer, and its last column acts as the attempt cap; the
    default suffices for fresh updates, and with one column a failed fresh
    update leaves 0.  ``StateSpace``, the simulator, the periodic
    evaluation, ``SlotEnv`` and ``sarsa.train`` read this table, each
    building it once, wide enough for every attempt count it can reach.
    ``tests/spec.py`` states the same rule state by state.
    """
    width = min(width, model.r_max + 1)
    top = width - 1
    # Python floats from the model, so the bits match a per-state g(r).
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


class ScatterPlan(NamedTuple):
    """Where each branch of ``StateSpace.succ_idx`` lands in ``BorderChain``'s blocks.

    The blocks lie end to end in one flat array: ``complement`` (border to
    border), ``p_lb`` (ladder to border), the band of ``P_LL`` in LAPACK
    upper band storage, and ``P_BL`` of the low border states, transposed
    (the right-hand side of ``z``).  The last two are laid out column by
    column, as LAPACK reads them, so its band solve copies neither.
    ``ends`` holds the end of each block.
    """

    pos: np.ndarray  # flat position of every branch, in succ_idx.ravel() order
    ends: tuple[int, int, int, int]
    width: int  # band width of I - P_LL


@lru_cache(maxsize=4)
def _layout(n_max: int, r_cap: int) -> tuple:
    """The arrays of every ``StateSpace`` with age cap ``n_max`` and attempt cap ``r_cap``, read-only.

    ``off``, ``age``, ``r``, ``delta``, ``succ_idx``, ``admissible``,
    ``on_border``, ``border``, ``ladder`` and ``scatter``, in that order.
    Of the slot table, only its failure probabilities depend on more than
    the attempt cap, so the table of any model of cap ``r_cap`` serves, and
    its failure probabilities are left out.
    """
    ages = np.arange(1, n_max + 1)
    width = np.minimum(ages, r_cap + 1)
    off = np.zeros(n_max + 2, dtype=np.int64)
    np.cumsum(width, out=off[2:])
    n = int(off[-1])
    age = np.repeat(ages, width)
    r = np.arange(n) - off[age]
    _, reset_age, fail_att, admissible = (
        x.T.take(r, axis=0) for x in slot_outcomes(ChannelModel(0.5, 1.0, r_cap), r_cap + 1)
    )
    up = off[np.minimum(age + 1, n_max)]  # index of (min(delta + 1, n_max), 0)
    succ_idx = np.stack([(up[:, None] + fail_att) * admissible, off[reset_age] * admissible], axis=2)

    # A delivery lands on (k, 0) with k <= max(1, r_cap), and the age stops
    # rising in the cap row age == n_max; every other state is entered only
    # from the age below.
    on_border = ((r == 0) & (age <= max(1, r_cap))) | (age == n_max)
    border, ladder = np.flatnonzero(on_border), np.flatnonzero(~on_border)

    # Only the border states below the cap row reach the ladder: a cap-row
    # state stays in the cap row or is delivered to a low border state.
    nb, m = len(border), len(ladder)
    n_low = nb - (r_cap + 1)
    slot = np.empty(n, dtype=np.int64)  # position within border or ladder
    slot[border] = np.arange(nb)
    slot[ladder] = np.arange(m)
    src = np.broadcast_to(np.arange(n)[:, None, None], succ_idx.shape)
    s, d = slot[src], slot[succ_idx]
    from_lad, to_lad = ~on_border[src], ~on_border[succ_idx]
    within = from_lad & to_lad
    step = d - s  # > 0 within the ladder: it only climbs
    band = int(step[within].max()) if within.any() else 0
    ends = tuple(int(e) for e in np.cumsum([nb * nb, m * nb, (band + 1) * m, m * n_low]))
    # LAPACK upper band storage: entry (i, j) of I - P_LL sits at
    # ab[band + i - j, j]; the unit diagonal (row band) is implicit.
    pos = np.where(
        from_lad,
        np.where(to_lad, ends[1] + d * (band + 1) + band - step, ends[0] + s * nb + d),
        np.where(to_lad, ends[2] + s * m + d, s * nb + d),
    )
    scatter = ScatterPlan(pos.ravel(), ends, band)

    arrays = (off, age, r, age.astype(np.float64), succ_idx, admissible, on_border, border, ladder)
    for a in (*arrays, scatter.pos):
        a.flags.writeable = False
    return (*arrays, scatter)


class StateSpace:
    """Dense indexing of the truncated state set plus transition arrays.

    States are row-major in ``(delta, r)``: age ``delta`` holds the attempt
    counts ``0 .. min(delta, r_cap + 1) - 1``.  With row offsets
    ``off[delta] = sum(min(d, r_cap + 1) for d in 1 .. delta - 1)`` the state
    ``(delta, r)`` sits at index ``off[delta] + r``: state ``i`` is ``(age[i],
    r[i])`` and the renewal state (1, 0) is index 0.  The successors of
    every (state, action) are one gather from the slot table: each array of
    ``slot_outcomes`` is read at column ``r[i]``.  A failure, with
    probability ``fail``, climbs to ``(min(delta + 1, n_max), fail_att)``, so
    the cap row loops on itself in age; a delivery lands on ``(reset_age,
    0)``.  An inadmissible action's branches, and an idle slot's delivery,
    hold index 0 with probability 0.  The solver's policy evaluations and
    the stationary-distribution builder read them.

    Only ``succ_prob`` depends on the model's failure probabilities.  Every
    other array, and the ``scatter`` plan of ``BorderChain``'s blocks, is
    set by ``(n_max, r_cap)`` alone: it is built once per such shape, kept
    for the last few shapes, shared by every space of that shape and
    read-only.  ``on_border`` marks the states a slot can enter other than
    by one age step up; ``border`` and ``ladder`` index the states on and
    off it in order, so (1, 0) is ``border[0]``.  A space records the
    ``model`` it was built for; a multiplier search builds one space and
    solves and evaluates every probe on it, and a sweep at one ``(n_max,
    r_cap)`` builds one layout.
    """

    def __init__(self, model: ChannelModel, trunc: Truncation):
        self.model = model
        self.trunc = trunc
        self.r_cap = r_cap = effective_r_max(model, trunc)
        (self.off, self.age, self.r, self.delta, self.succ_idx, self.admissible,
         self.on_border, self.border, self.ladder, self.scatter) = _layout(int(trunc.n_max), int(r_cap))
        fail = slot_outcomes(model, r_cap + 1).fail.T.take(self.r, axis=0)
        self.succ_prob = np.stack([fail * self.admissible, (1.0 - fail) * self.admissible], axis=2)

    def __len__(self) -> int:
        return len(self.delta)

    def fits(self, model: ChannelModel, trunc: Truncation) -> bool:
        """Whether this is the space ``StateSpace(model, trunc)`` would build."""
        return (
            self.model == model
            and self.trunc.n_max == trunc.n_max
            and self.r_cap == effective_r_max(model, trunc)
        )


class BorderChain:
    """A Markov chain on a ``StateSpace``, solved through its visits to the border.

    ``branch`` (kept) holds the chain's probability of every successor branch of
    ``space.succ_idx`` (states × actions × 2): under a policy that plays
    action ``a`` with probability ``p[i, a]`` it is ``p[:, :, None] *
    space.succ_prob``.  The branches are scattered into the blocks below by
    the space's ``scatter`` plan; branches with the same source and
    successor add up.  Off the border, on the *ladder*, a slot moves one age
    up or lands on the border, so in ``StateSpace`` order ``I - P_LL`` is
    unit upper triangular with a band at most ``r_cap + 2`` wide: never
    singular, and solved by banded substitution.  Eliminating the ladder
    leaves the stochastic complement ``complement = P_BB + P_BL (I -
    P_LL)^-1 P_LB`` (Meyer, SIAM Review 31, 1989), the chain seen only at its
    border visits.  Only the border states below the cap row reach the
    ladder, so ``z`` holds the rows ``P_BL (I - P_LL)^-1`` of those
    ``n_low`` states: the expected ladder visits before the chain returns to
    the border.

    Both answers cover every state of the space, so no caller needs the
    split, and both rest on one subtraction-free elimination of the border
    per chain.  ``values`` returns each cost's gain and differential
    values, 0 at (1, 0): its costs ride through the elimination, towards
    ``(n_max, 0)`` when the chain idles surely there (``idles_at_cap``)
    and towards (1, 0) otherwise, and one banded substitution carries the
    border values to the ladder.  It returns None for a chain with two
    closed classes, (1, 0)'s and ``{(n_max, 0)}`` (``reached``).
    ``stationary`` returns the masses of the class (1, 0) reaches, read off
    the elimination towards (1, 0) by one triangular solve and carried to
    the ladder by ``z``.  It reuses the elimination ``values`` has made,
    and eliminates by itself only when ``values`` has not; a chain that
    idles surely at the cap eliminates only the class (1, 0) reaches.
    """

    def __init__(self, space: StateSpace, branch: np.ndarray):
        self.space, self.branch = space, branch
        nb, m = len(space.border), len(space.ladder)
        self.n_low = n_low = nb - (space.r_cap + 1)  # the cap row closes the border
        plan = space.scatter
        e0, e1, e2, e3 = plan.ends
        blocks = np.bincount(plan.pos, branch.ravel(), e3)
        self.complement = blocks[:e0].reshape(nb, nb)
        self.p_lb = blocks[e0:e1].reshape(m, nb)
        # The band of I - P_LL off its diagonal, negated in place; 0.0 - x keeps empty entries at +0.0.
        self.ab = blocks[e1:e2].reshape(m, plan.width + 1).T
        np.subtract(0.0, self.ab, out=self.ab)
        # Solved in place: the right-hand side is this chain's own.  LAPACK returns an
        # empty one (a space without a ladder) as it is, here and in ``values``.
        rhs = blocks[e2:].reshape(n_low, m).T
        self.z = dtbtrs(self.ab, rhs, uplo="U", trans="T", diag="U", overwrite_b=1)[0].T
        self.complement[:n_low] += self.z @ self.p_lb
        self._towards_renewal = None  # (order, weights, out) of values' elimination towards (1, 0)

    @cached_property
    def idles_at_cap(self) -> bool:
        """Whether no weight leaves ``(n_max, 0)``, border position ``n_low``: the chain idles surely there."""
        return not np.delete(self.complement[self.n_low], self.n_low).any()

    @cached_property
    def reached(self) -> np.ndarray:
        """Border positions reachable from (1, 0), position 0, sorted.

        The closed classes of any policy's chain, randomized or not, are the
        one holding (1, 0) and ``{(n_max, 0)}`` if the policy idles there
        surely.  Every state has a successor ``(k, 0)``.  Idling lands on
        one.  A fresh update succeeds with probability ``1 - g(0) > 0`` and
        lands on (1, 0); a retransmission after ``r`` attempts succeeds with
        ``1 - g(r) > 0`` and lands on ``(r + 1, 0)``.  So a closed class
        holds some ``(k, 0)``, and (1, 0) if it sends fresh updates.  One
        that does not idles at ``(k, 0)``, where retransmitting is
        inadmissible, and so climbs to ``(n_max, 0)``, which idling keeps.
        These positions are therefore the recurrent class, or (1, 0) is
        transient and they hold ``(n_max, 0)``.  A transition the chain
        cannot make stays exactly 0 in the complement.
        """
        rows = (self.complement > 0.0).tolist()  # a few states: lists beat numpy calls
        seen, todo = [True] + [False] * (len(rows) - 1), [0]
        for i in todo:  # breadth first; todo grows as it is read
            for j, edge in enumerate(rows[i]):
                if edge and not seen[j]:
                    seen[j] = True
                    todo.append(j)
        return np.flatnonzero(seen)

    def _reduce(self, order: np.ndarray, rhs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Eliminate the border positions ``order[1:]``, last first, without subtractions.

        Grassmann-Taksar-Heyman elimination (Operations Research 33, 1985):
        a position's diagonal is the sum of its remaining off-diagonal
        weights rather than one minus its self-loop, so an exit far below
        rounding keeps its relative accuracy.  The columns of ``rhs``, one
        row per entry of ``order``, ride along in front of the weights.
        Returns the reduced ``[rhs | weights]`` in ``order``, whose weight
        column ``k`` above row ``k`` is scaled by ``1 / out[k]``, and
        ``out[k]``, the weight from ``order[k]`` to ``order[:k]``.  Stops at
        the first ``out[k]`` of 0, a position that cannot reach ``order[0]``.
        """
        nb, r = len(order), rhs.shape[1]
        w = np.empty((nb, r + nb))
        w[:, :r] = rhs
        w[:, r:] = self.complement.take(order, 0).take(order, 1)
        out = np.zeros(nb)
        for k in range(nb - 1, 0, -1):
            row = w[k, : r + k]
            out[k] = total = row[r:].sum()
            if total == 0.0:
                break
            col = w[:k, r + k]
            col /= total
            w[:k, : r + k] += col[:, None] * row
        return w, out

    def stationary(self) -> np.ndarray:
        """Stationary masses of every state, 1 at (1, 0): the expected visits per visit to (1, 0).

        Nonzero exactly on the class (1, 0) reaches; all zero when (1, 0) is
        transient, where the chain ends idling at ``(n_max, 0)``.  Unless
        the chain idles surely there, every border position reaches (1, 0),
        so the elimination towards (1, 0) covers the whole border, and a
        position (1, 0) does not reach gets exactly 0: no weight runs from
        the class (1, 0) reaches to it, before or after any elimination.
        ``values`` has made that elimination already when its chain does
        not idle at the cap; the same weights come out bit for bit without
        its costs.  A chain that idles surely at the cap eliminates
        ``reached`` alone.  A ladder state's mass is the border masses
        times the expected ladder visits per border visit, ``z``.
        """
        space = self.space
        if self._towards_renewal is not None:
            order, w, out = self._towards_renewal
        else:
            order = self.reached if self.idles_at_cap else np.arange(len(space.border))
            w, out = self._reduce(order, np.empty((len(order), 0)))
        if not (out[1:] > 0.0).all():  # some position cannot reach (1, 0)
            return np.zeros(len(space))
        pi = np.zeros(len(space))
        pi[0] = 1.0
        if len(order) > 1:
            # pi[k] = sum over i < k of pi[i] w[i, k]: a unit triangular solve of sums.
            pi[space.border[order[1:]]] = dtrtrs(np.negative(w[1:, 1:], order="F"), w[0, 1:], lower=0, trans=1, unitdiag=1)[0]
        pi[space.ladder] = pi[space.border[: self.n_low]] @ self.z
        return pi

    def values(self, costs: tuple[np.ndarray, ...]) -> list[tuple[float, np.ndarray]] | None:
        """Gain and differential values on every state (0 at (1, 0)) of each per-state cost in ``costs``.

        Watched at its border visits the chain is semi-Markov: a visit to a
        low border state ``b`` lasts ``1 + z[b].sum()`` slots and costs
        ``cost[b] + z[b] @ cost_L`` until the next one.  The border values
        solve ``h_b = visit cost - g * visit slots + sum_j C[b, j] h_j``,
        with ``(n_max, 0)`` eliminated last when no weight leaves it in
        ``complement``, the chain idling there surely, else (1, 0), and the
        weights of an elimination towards (1, 0) are kept for
        ``stationary``.  By
        ``reached`` only that cap closes a class without (1, 0), so every
        position reaches the state eliminated last unless the chain has
        both closed classes, (1, 0)'s and ``{(n_max, 0)}``; then the
        elimination stops and ``values`` returns None.  The ladder values
        solve ``(I - P_LL) h_L = cost_L - g + P_LB h_B``.  The costs ride
        through one elimination and one banded solve, which treats each column
        alone, but each takes its own matrix-vector products and triangular
        solve: a triangular solve with several right-hand sides rounds each
        column differently from a solve with that column alone.
        """
        space = self.space
        nb, k = len(space.border), len(costs)
        visit = np.ones((nb, k + 1))  # the visit slots, then the visit cost of each of costs
        visit[: self.n_low, 0] += self.z.sum(axis=1)
        for j, cost in enumerate(costs, 1):
            visit[:, j] = cost[space.border]
            visit[: self.n_low, j] += self.z @ cost[space.ladder]
        anchor = self.n_low if self.idles_at_cap else 0
        order = np.arange(nb)
        order[0], order[anchor] = anchor, 0
        w, out = self._reduce(order, visit[order])
        if anchor == 0:
            self._towards_renewal = order, w[:, k + 1 :], out
        if not (out[1:] > 0.0).all():
            return None
        # h[k] = (cost - g slots + sum over 0 < j < k of weight[k, j] h[j]) / out[k], h[0] = 0.
        # LAPACK reads only the lower triangle, so the weights above it need no masking.
        lower = np.negative(w[1:, k + 2 :], order="F")
        np.fill_diagonal(lower, out[1:])
        solved = []
        rhs = np.empty((len(space.ladder), k), order="F")
        for j, cost in enumerate(costs, 1):
            g = w[0, j] / w[0, 0]
            h_border = np.zeros(nb)
            h_border[order[1:]] = dtrtrs(lower, w[1:, j] - g * w[1:, 0], lower=1)[0]
            h_border -= h_border[0]
            rhs[:, j - 1] = cost[space.ladder] - g + self.p_lb @ h_border
            h = np.empty(len(space))
            h[space.border] = h_border
            solved.append((float(g), h))
        ladder = dtbtrs(self.ab, rhs, uplo="U", trans="N", diag="U")[0]
        for j, (_, h) in enumerate(solved):
            h[space.ladder] = ladder[:, j]
        return solved
