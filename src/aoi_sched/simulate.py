"""Slotted simulation of the source-channel-destination loop with ACK/NACK feedback.

One run executes a policy against the channel from the synchronized start
state (1, 0).  The age is never truncated here; simulation is the ground
truth against which solver truncation error is measured.  The attempt count
never passes the model's cap, so a run builds its ``mdp.slot_outcomes``
table once, before the first slot.

Stationary policies and renewal mixtures run as lockstep renewal cycles, the
regenerative method of Crane & Iglehart (1975).  Every visit to (1, 0) starts
a cycle independent of and distributed as every other, so ``_LANES`` lanes
each start at (1, 0) and advance together, one vectorized step per decision
slot.  A lane with no packet in flight first jumps over the ages at which its
policy's table idles surely, adding their slots and ages in closed form, and
then draws its action and channel outcome at the next age; a lane whose
table idles surely from its age on jumps past any horizon.  Cycle ``i`` of
the run is cycle ``i // _LANES`` of lane ``i % _LANES``.  The cycles are
joined in that order and cut at exactly ``horizon`` slots, the last one
possibly partial, even inside a jump; a lane that never renews contributes
one endless partial cycle.  The order does not depend on any outcome, so the
joined timeline is distributed as one long run.  Uniforms are drawn in
blocks of ``_BLOCK`` steps for all lanes (action, channel and mixture
component per lane and step; a jumped sure idle draws none), so no lane's
path depends on the horizon: the first ``n`` slots of a run are the run of
``n`` slots on the same generator.

The open-loop periodic baseline acts on the slot number, not on renewals; a
closed-form pass over its transmission slots simulates it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ProtocolViolationError
from .mdp import Action, ChannelModel, State, slot_outcomes
from .policies import PeriodicPolicy, Policy, RenewalMixture

_LANES = 256  # renewal-cycle lanes advanced in lockstep
_BLOCK = 32  # steps per block of uniforms
_NEVER = 2**62  # an age or step no run reaches, with room to count past it
_ACTIONS = tuple(Action)


@dataclass(frozen=True)
class SlotRecord:
    t: int
    state_before: State
    action: Action
    success: bool | None
    state_after: State


@dataclass(frozen=True)
class RunStats:
    """Time-averaged age and transmission rate, aggregated across replications."""

    mean_aoi: float
    mean_cost: float
    var_aoi: float
    var_cost: float
    aoi_per_rep: tuple[float, ...]
    cost_per_rep: tuple[float, ...]

    @classmethod
    def from_reps(cls, aois, costs) -> "RunStats":
        a = np.asarray(aois, dtype=np.float64)
        c = np.asarray(costs, dtype=np.float64)
        var_a = float(a.var(ddof=1)) if len(a) > 1 else 0.0
        var_c = float(c.var(ddof=1)) if len(c) > 1 else 0.0
        return cls(float(a.mean()), float(c.mean()), var_a, var_c, tuple(a), tuple(c))


def baseline_periodic(c_max: float) -> PeriodicPolicy:
    """No-feedback baseline: fresh update every ceil(1/c_max) slots."""
    if not 0.0 < c_max <= 1.0:
        raise ValueError(f"budget must lie in (0, 1], got {c_max}")
    return PeriodicPolicy(math.ceil(1.0 / c_max - 1e-12))


def _kernel_tables(policy: Policy):
    """Flat tables of the kernel, indexed by ``(component, attempts, age)``.

    Components are padded to the largest age and attempt count among them by
    repeating their last row and column, which keeps each one's clamping; the
    kernel clamps ages and attempts to the padded table, so the tables have
    the policy's size whatever the model's attempt cap.  A uniform ``u``
    selects action ``(u >= e0) + (u >= e1)``.  In column 0, ``jump`` is the
    first age from the row's own on whose row is not a sure idle (a clamped
    age reads the last row), or ``_NEVER`` when the last row idles surely; in
    the other columns it is the row's own age.  ``row`` is the flat index of
    the row at age ``jump``, clamped.  A stationary policy is a one-component
    mixture.
    """
    mixture = isinstance(policy, RenewalMixture)
    parts = [p.table for p in ((policy.first, policy.second) if mixture else (policy,))]
    n_age = max(p.shape[0] for p in parts)
    n_att = max(p.shape[1] for p in parts)
    probs = np.stack(
        [np.pad(p, ((0, n_age - p.shape[0]), (0, n_att - p.shape[1]), (0, 0)), mode="edge") for p in parts]
    ).transpose(0, 2, 1, 3)
    # An edge with no probability beyond it is never crossed, whatever the
    # rounding of the cumulative sum; a sure idle has e0 = inf.
    beyond = np.cumsum(probs[..., ::-1], axis=-1)[..., -2::-1]
    edges = np.where(beyond > 0.0, np.cumsum(probs, axis=-1)[..., :-1], np.inf)
    age = np.broadcast_to(np.arange(n_age), edges.shape[:-1])
    jump = age.copy()
    decides = np.where(edges[:, 0, :, 0] < np.inf, age[:, 0], _NEVER)
    jump[:, 0] = np.minimum.accumulate(decides[:, ::-1], axis=1)[:, ::-1]
    row = np.arange(age.size).reshape(age.shape) - age + np.minimum(jump, n_age - 1)
    return edges[..., 0].ravel(), edges[..., 1].ravel(), jump.ravel(), row.ravel(), n_age, n_att


def _grow(a: np.ndarray, rows: int) -> np.ndarray:
    out = np.empty((rows,) + a.shape[1:], a.dtype)
    out[: len(a)] = a
    return out


def _cycles(policy: Policy, model: ChannelModel, horizon: int, rng: np.random.Generator, trace: bool):
    """Lockstep renewal-cycle kernel for stationary policies and renewal mixtures.

    Returns the age sum and transmission count of the joined timeline's first
    ``horizon`` slots and, when ``trace`` is set, its per-slot age,
    attempts, action, and next age and attempts.
    """
    mixture = isinstance(policy, RenewalMixture)
    weight = policy.weight_first if mixture else 1.0
    lanes = np.arange(_LANES)

    # Per-lane history, row t = state before step t: age, attempts, action of
    # its decision slot, and the slots of the steps before it.  Room for about
    # 0.625 * horizon / _LANES steps, as a threshold-shaped policy decides in
    # under half of its slots, grown when a run needs more.
    cap = (horizon // (_LANES * _BLOCK) * 5 // 8 + 2) * _BLOCK
    hd = np.empty((cap + 1, _LANES), np.int64)
    hr = np.empty((cap + 1, _LANES), np.int64)
    ha = np.empty((cap, _LANES), np.uint8)
    hs = np.empty((cap + 1, _LANES), np.int64)
    hd[0], hr[0], hs[0] = 1, 0, 0
    he = np.empty((_BLOCK, _LANES), np.int64)  # decision age of each step of a block
    # starts[l, c]: the step at which lane l's cycle c begins.
    starts = np.full((_LANES, 8), _NEVER)
    starts[:, 0] = 0
    done = np.zeros(_LANES, np.int64)  # complete cycles per lane
    comp = np.zeros(_LANES, np.int64)  # table offset of each lane's mixture component
    idx, j, tmp = (np.empty(_LANES, np.int64) for _ in range(3))
    edge = np.empty(_LANES)
    lo, hi, renew = (np.empty(_LANES, bool) for _ in range(3))
    lo8, hi8 = lo.view(np.uint8), hi.view(np.uint8)
    # Array operands: ufuncs convert a Python scalar operand on every call.
    one, zero = np.ones(_LANES, np.int64), np.zeros(_LANES, np.int64)
    u = np.empty((3, _BLOCK, _LANES))
    u_act, u_chan, u_mix = u
    # Indexed by action * width + attempts.  Attempts never pass the model's cap,
    # not even by a retransmission there, where the run raises ProtocolViolationError.
    width = model.r_max + 1
    out = slot_outcomes(model, width)
    fail, reset_age, fail_att = (x.ravel() for x in out[:3])
    e0, e1, jump, row, n_age, n_att = _kernel_tables(policy)
    stride = n_age * n_att
    column = np.minimum(np.arange(width), n_att - 1) * n_age  # table offset of each attempt count
    age_top, out_width = np.full(_LANES, n_age - 1), np.full(_LANES, width)

    steps = scanned = 0
    while True:
        if steps + _BLOCK > cap:
            cap += cap // 2 + _BLOCK
            hd, hr, ha, hs = _grow(hd, cap + 1), _grow(hr, cap + 1), _grow(ha, cap), _grow(hs, cap + 1)
        rng.random(out=u)
        draw = (u_mix >= weight) * stride
        block = zip(hd[steps:], hr[steps:], ha[steps:], he, hd[steps + 1 :], hr[steps + 1 :], u_act, u_chan, draw)
        for d, r, a, e, dn, rn, ua, uc, new_comp in block:
            column.take(r, out=idx, mode="clip")
            if mixture:
                np.equal(d, one, out=renew)
                np.putmask(comp, renew, new_comp)  # redrawn at every visit to (1, 0)
                idx += comp
            np.minimum(d, age_top, out=tmp)
            idx += tmp
            # Idle surely up to the decision age e, then decide in its row.
            jump.take(idx, out=e, mode="clip")
            np.maximum(e, d, out=e)
            row.take(idx, out=idx, mode="clip")
            e0.take(idx, out=edge, mode="clip")
            np.greater_equal(ua, edge, out=lo)
            e1.take(idx, out=edge, mode="clip")
            np.greater_equal(ua, edge, out=hi)
            np.add(lo8, hi8, out=a)
            np.copyto(j, a)
            j *= out_width
            j += r
            fail.take(j, out=edge, mode="clip")
            np.greater_equal(uc, edge, out=hi)  # delivered
            reset_age.take(j, out=tmp, mode="clip")
            np.add(e, one, out=dn)
            np.putmask(dn, hi, tmp)
            fail_att.take(j, out=rn, mode="clip")
            np.putmask(rn, hi, zero)
        # A step covers its jumped ages d .. e - 1 and its decision slot.
        covered = hs[steps + 1 : steps + _BLOCK + 1]
        np.cumsum(he - hd[steps : steps + _BLOCK] + 1, axis=0, out=covered)
        covered += hs[steps]

        steps += _BLOCK
        if np.minimum(hs[steps], horizon).sum() < horizon:
            continue  # too few lane slots to cover the horizon yet
        # Cycles begun since the last scan: age 1 after a step.
        lane_of, step_of = np.nonzero(hd[scanned + 1 : steps + 1].T == 1)
        if len(lane_of):
            count = np.bincount(lane_of, minlength=_LANES)
            col = done[lane_of] + 1 + np.arange(len(lane_of)) - np.repeat(np.cumsum(count) - count, count)
            if col.max() + 2 > starts.shape[1]:
                wider = np.full((_LANES, 2 * (col.max() + 2)), _NEVER)
                wider[:, : starts.shape[1]] = starts
                starts = wider
            starts[lane_of, col] = step_of + scanned + 1
            done += count
        scanned = steps
        # The joined timeline is covered up to the first cycle still running,
        # plus that cycle's progress; a lane that idles surely forever has
        # covered about _NEVER slots.
        first = int((done * _LANES + lanes).min())
        q, lane = divmod(first, _LANES)
        before = hs[starts[lanes, q + (lanes < lane)], lanes]
        if before.sum() - before[lane] + hs[steps, lane] >= horizon:
            break

    # Slot of each lane at which its cycles begin; cycles not begun read the last.
    at = hs[np.minimum(starts[:, : q + 2], steps), lanes[:, None]]
    ends = np.cumsum(np.diff(at, axis=1).T.ravel()[:first])
    m = int(np.searchsorted(ends, horizon))  # the cycle holding the last slot
    begins = np.concatenate(([0], ends[:m]))  # first slot of each cycle, minus one
    q, lane = divmod(m, _LANES)
    cut = at[lanes, q + (lanes < lane)]
    cut[lane] += horizon - begins[m]
    # Slots of each step inside the first horizon slots, and whether its
    # decision slot, its last, is one of them.
    kept = np.minimum(hs[1 : steps + 1], cut)
    kept -= hs[:steps]
    np.maximum(kept, 0, out=kept)
    decided = hs[1 : steps + 1] <= cut

    bad = decided & (ha[:steps] == Action.RETRANSMIT)
    bad &= ~out.admissible[Action.RETRANSMIT].take(hr[:steps], mode="clip")
    if bad.any():
        step_of, lane_of = np.nonzero(bad)
        cyc = (starts[lane_of] <= step_of[:, None]).sum(axis=1) - 1
        slot = begins[cyc * _LANES + lane_of] + hs[step_of + 1, lane_of] - hs[starts[lane_of, cyc], lane_of]
        k = int(slot.argmin())
        r_bad = int(hr[step_of[k], lane_of[k]])
        if r_bad < 1:
            raise ProtocolViolationError(int(slot[k]), "retransmit with no failed packet in flight")
        raise ProtocolViolationError(int(slot[k]), f"retransmit at the attempt cap r={r_bad}")

    # A step's kept slots have ages d, d + 1, ..., d + kept - 1.
    aoi_sum = int(np.vdot(kept, hd[:steps])) + (int(np.vdot(kept, kept)) - int(kept.sum())) // 2
    n_tx = int(np.count_nonzero(ha[:steps] * decided))
    rows = None
    if trace:
        # Steps of the timeline in order, then their kept slots.
        order = np.arange(m + 1)
        lane_c, col_c = order % _LANES, order // _LANES
        first_step = starts[lane_c, col_c]
        n = np.minimum(starts[lane_c, col_c + 1], steps) - first_step
        step_t = np.repeat(first_step - (np.cumsum(n) - n), n) + np.arange(n.sum())
        flat = step_t * _LANES + np.repeat(lane_c, n)
        count = kept.ravel()[flat]
        f = np.repeat(flat, count)
        offset = np.arange(horizon) - np.repeat(np.cumsum(count) - count, count)
        d, r, s = (x[: steps + 1].ravel() for x in (hd, hr, hs))
        last = offset == s[f + _LANES] - s[f] - 1  # the decision slot; the others idle
        ages = d[f] + offset
        rows = (ages, r[f], ha[:steps].ravel()[f] * last, np.where(last, d[f + _LANES], ages + 1), r[f + _LANES] * last)
    return aoi_sum, n_tx, rows


def _periodic(policy: PeriodicPolicy, model: ChannelModel, horizon: int, rng: np.random.Generator, trace: bool):
    """Closed-form pass over the periodic baseline's transmission slots.

    One channel uniform per transmission slot, in slot order.  The age climbs
    by one per slot from 1 at slot 1 and is 1 again in the slot after a
    delivery, so the ages between deliveries are arithmetic series.
    """
    k = policy.period
    tx_slot = 1 + k * np.arange((horizon - 1) // k + 1)
    out = slot_outcomes(model)
    delivered = rng.random(len(tx_slot)) >= out.fail[Action.NEW_UPDATE, 0]
    gaps = np.diff(np.concatenate(([0], tx_slot[delivered], [horizon])))
    aoi_sum = int((gaps * (gaps + 1) // 2).sum())
    rows = None
    if trace:
        last = np.zeros(horizon + 1, np.int64)  # last delivery slot up to t
        last[tx_slot[delivered]] = tx_slot[delivered]
        np.maximum.accumulate(last, out=last)
        ages = np.arange(1, horizon + 2) - last
        attempts = np.zeros(horizon + 1, np.int64)  # a failed fresh update marks the next slot
        attempts[tx_slot[~delivered]] = out.fail_att[Action.NEW_UPDATE, 0]
        actions = np.zeros(horizon, np.int8)
        actions[tx_slot - 1] = Action.NEW_UPDATE
        rows = (ages[:-1], attempts[:-1], actions, ages[1:], attempts[1:])
    return aoi_sum, len(tx_slot), rows


def _records(ages, attempts, actions, next_ages, next_attempts) -> list[SlotRecord]:
    # A delivery never raises the age; a failure or an idle slot raises it by one.
    return [
        SlotRecord(t, State(d, r), _ACTIONS[a], None if a == 0 else d1 <= d, State(d1, r1))
        for t, (d, r, a, d1, r1) in enumerate(
            zip(*(x.tolist() for x in (ages, attempts, actions, next_ages, next_attempts))), start=1
        )
    ]


def run(
    policy: Policy,
    model: ChannelModel,
    horizon: int,
    seed=0,
    *,
    collect_trace: bool = False,
) -> tuple[RunStats, list[SlotRecord] | None]:
    """Simulate ``horizon`` slots from (1, 0); deterministic given the seed.

    ``seed`` is anything ``np.random.default_rng`` takes, a ``Generator``
    included, which is used as it is.  Returns the single-replication time
    averages and, when requested, the full slot trace.  The trace of ``n``
    slots is the start of every longer run on the same stream.
    """
    if horizon < 1:
        raise ValueError(f"horizon must be at least 1, got {horizon}")
    rng = np.random.default_rng(seed)
    simulate = _periodic if isinstance(policy, PeriodicPolicy) else _cycles
    aoi_sum, n_tx, rows = simulate(policy, model, horizon, rng, collect_trace)
    stats = RunStats.from_reps([aoi_sum / horizon], [n_tx / horizon])
    return stats, (_records(*rows) if collect_trace else None)


def evaluate_simulated(
    policy: Policy,
    model: ChannelModel,
    horizon: int,
    replications: int,
    seed=0,
) -> RunStats:
    """Independent replications with per-replication streams derived from (seed, index)."""
    if replications < 1:
        raise ValueError(f"replications must be at least 1, got {replications}")
    aois, costs = [], []
    for rep in range(replications):
        stats, _ = run(policy, model, horizon, np.random.default_rng([seed, rep]))
        aois.append(stats.mean_aoi)
        costs.append(stats.mean_cost)
    return RunStats.from_reps(aois, costs)


class SlotEnv:
    """Minimal slot interface for learners: hides the error profile.

    ``step`` applies an action to the true (untruncated) state and reports
    the next state and the transmission outcome from ``mdp.slot_outcomes``,
    loaded once up to the model's attempt cap.  With ``sarsa.step`` it is the
    per-slot specification of ``sarsa.train``, which runs the same slots on
    list copies of the table.
    """

    def __init__(self, model: ChannelModel, rng: np.random.Generator):
        self.rng = rng
        self.state = State(1, 0)
        # Nested lists: a Python lookup per slot is far cheaper than a numpy one.
        out = slot_outcomes(model, model.r_max + 1)
        self._fail, self._reset_age, self._fail_att, self._admissible = (x.tolist() for x in out)

    def reset(self) -> State:
        self.state = State(1, 0)
        return self.state

    def admissible(self, a: Action) -> bool:
        return self._admissible[a][self.state.r]

    def step(self, a: Action) -> tuple[State, bool | None]:
        if not self.admissible(a):
            raise ProtocolViolationError(0, f"inadmissible action {a.name} in state {self.state}")
        delta, r = self.state
        # Idling never delivers, so it draws no uniform.
        if a is not Action.IDLE and self.rng.random() >= self._fail[a][r]:
            self.state = State(self._reset_age[a][r], 0)
            return self.state, True
        self.state = State(delta + 1, self._fail_att[a][r])
        return self.state, None if a is Action.IDLE else False
