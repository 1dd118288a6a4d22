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
``n`` slots on the same generator.  The bookkeeping keeps, per lane and
step, the age, attempts, action and slots, and per block of steps each
lane's slots and renewals; the coverage check and the cut look up the few
cycles they need from those, and the kept steps are summed in one pass.

The open-loop periodic baseline acts on the slot number, not on renewals; a
closed-form pass over its transmission slots simulates it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import ProtocolViolationError
from .mdp import Action, ChannelModel, State, slot_outcomes
from .policies import PeriodicPolicy, Policy, RenewalMixture

_LANES = 256  # renewal-cycle lanes advanced in lockstep
_BLOCK = 32  # steps per block of uniforms
_NEVER = 2**62  # an age or step no run reaches, with room to count past it
_BLOCK_STEPS = np.arange(_BLOCK)[:, None] * _LANES + np.arange(_LANES)  # flat history index of a block's steps


class SlotTrace(NamedTuple):
    """A run's slots as columns: slot ``t``, at index ``t - 1``, begins in ``(delta, r)``,
    takes ``action`` and ends in ``(next_delta, next_r)``.  Actions are uint8, the rest int64."""

    delta: np.ndarray
    r: np.ndarray
    action: np.ndarray
    next_delta: np.ndarray
    next_r: np.ndarray

    @property
    def delivered(self) -> np.ndarray:
        """Whether each slot delivers: it transmits and the age does not rise (a failure raises it)."""
        return (self.action != Action.IDLE) & (self.next_delta <= self.delta)


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


def _cycle_starts(c, renewals, before, hd, hn):
    """Row at which cycle ``c[..., l]`` of each lane ``l`` begins, and the lane's slots before it.

    ``renewals[k]`` counts each lane's renewals in blocks ``0 .. k`` of the
    history ``hd`` (ages) and ``hn`` (slots per step), ``before[k]`` its
    slots before block ``k``; every cycle asked for has begun.
    """
    lanes = np.arange(_LANES)
    k = np.count_nonzero(renewals[(slice(None),) + (None,) * (c.ndim - 1)] < c, axis=0)  # the block of the renewal
    rank = c - np.where(k > 0, renewals[k - 1, lanes], 0)
    at = k * (_BLOCK * _LANES) + _BLOCK_STEPS.reshape((_BLOCK,) + (1,) * (c.ndim - 1) + (_LANES,))
    earlier = np.cumsum(hd[1:].ravel().take(at) == 1, axis=0, dtype=np.int8) < rank  # steps before the renewal
    s = np.count_nonzero(earlier, axis=0)  # the renewal's step in the block
    steps = hn.ravel().take(at)
    slots = before[k, lanes] + (steps * earlier).sum(axis=0) + np.take_along_axis(steps, s[None], axis=0)[0]
    return np.where(c > 0, k * _BLOCK + s + 1, 0), np.where(c > 0, slots, 0)


def _cycle_table(hd, steps):
    """Row at which each cycle begins, ``[lane, cycle]``, or ``_NEVER`` before it begins."""
    lane_of, row = np.nonzero(hd[1 : steps + 1].T == 1)
    count = np.bincount(lane_of, minlength=_LANES)
    table = np.full((_LANES, count.max() + 2), _NEVER)
    table[:, 0] = 0
    table[lane_of, np.arange(1, len(row) + 1) - np.repeat(np.cumsum(count) - count, count)] = row + 1
    return table


def _cycles(policy: Policy, model: ChannelModel, horizon: int, rng: np.random.Generator, trace: bool):
    """Lockstep renewal-cycle kernel for stationary policies and renewal mixtures.

    Returns the age sum and transmission count of the joined timeline's first
    ``horizon`` slots and, when ``trace`` is set, its ``SlotTrace``.

    The lanes advance one block of ``_BLOCK`` steps at a time, and each block
    is booked once, on its own rows: its decision ages become its steps'
    slot counts, and each lane's slots before the block and renewals (age 1
    after a step) in it are kept.  A cycle's first step and the lane's slots
    before it are then found by reading one block per lane
    (``_cycle_starts``), which the coverage check does only once a cheap
    bound from the per-block counts allows the horizon to be covered, and
    the cut for the rounds around it.  The kept steps are every lane's steps
    before its cut, so one pass over the kept rows sums the ages and
    transmissions.  Only a table that can retransmit where the model admits
    no retransmission has its retransmissions checked, and only the trace
    and a violation need every cycle's first step (``_cycle_table``).
    """
    mixture = isinstance(policy, RenewalMixture)
    weight = policy.weight_first if mixture else 1.0
    lanes = np.arange(_LANES)

    # Per-lane history, row t = step t: age and three times the attempts
    # before it, the action of its decision slot, and its slots (the loop
    # writes the decision age there, the booking the slot count).  Room for
    # about 0.625 * horizon / _LANES steps, as a threshold-shaped policy
    # decides in under half of its slots, grown to a run's pace if it needs more.
    cap = (horizon // (_LANES * _BLOCK) * 5 // 8 + 2) * _BLOCK
    hd = np.empty((cap + 1, _LANES), np.int64)
    hr = np.empty((cap + 1, _LANES), np.int64)
    ha = np.empty((cap, _LANES), np.uint8)
    hn = np.empty((cap, _LANES), np.int64)
    hd[0], hr[0] = 1, 0
    # Per block: each lane's slots before it and its renewals (age 1 after
    # a step) in it.
    total = np.zeros(_LANES, np.int64)
    before, renewals = [], []
    comp = np.zeros(_LANES, np.int64)  # table offset of each lane's mixture component
    idx, j, tmp = (np.empty(_LANES, np.int64) for _ in range(3))
    edge = np.empty(_LANES)
    lo, hi, renew = (np.empty(_LANES, bool) for _ in range(3))
    lo8, hi8 = lo.view(np.uint8), hi.view(np.uint8)
    # Array operands: ufuncs convert a Python scalar operand on every call.
    one, zero = np.ones(_LANES, np.int64), np.zeros(_LANES, np.int64)
    u = np.empty((3, _BLOCK, _LANES))
    act_rows, chan_rows = list(u[0]), list(u[1])
    pick = np.empty((_BLOCK, _LANES), bool)
    draw = np.empty((_BLOCK, _LANES), np.int64)
    draw_rows = list(draw)
    # Indexed by 3 * attempts + action, so that a step's index is one add.
    # Attempts never pass the model's cap, not even by a retransmission
    # there, where the run raises ProtocolViolationError.
    width = model.r_max + 1
    out = slot_outcomes(model, width)
    fail, reset_age, fail_att = (x.T.ravel() for x in out[:3])
    fail_att = 3 * fail_att
    e0, e1, jump, row, n_age, n_att = _kernel_tables(policy)
    e0, e1 = e0[row], e1[row]  # the edges of the row a lane decides in, by its index before the jump
    stride = n_age * n_att
    column = np.repeat(np.minimum(np.arange(width), n_att - 1) * n_age, 3)  # table offset of 3 * attempts
    age_top = np.full(_LANES, n_age - 1)
    # Local names: the step loop looks up no global or attribute.
    add, equal, greater_equal, maximum, minimum, putmask = np.add, np.equal, np.greater_equal, np.maximum, np.minimum, np.putmask
    take_column, take_jump, take_e0, take_e1 = column.take, jump.take, e0.take, e1.take
    take_fail, take_reset_age, take_fail_att = fail.take, reset_age.take, fail_att.take

    t = reach = 0
    while True:
        if t + _BLOCK > cap:
            # The pace so far with a tenth to spare.  Dropping the row views
            # lets each old array go as soon as it is copied.
            pace = t * horizon // max(reach, 1) * 11 // 10 + 2 * _BLOCK
            cap = -(-max(pace, cap + cap // 4 + _BLOCK) // _BLOCK) * _BLOCK
            ages = attempts = actions = decision_ages = d = r = a = e = dn = rn = n = None
            hd = _grow(hd, cap + 1)
            hr = _grow(hr, cap + 1)
            ha = _grow(ha, cap)
            hn = _grow(hn, cap)
        rng.random(out=u)
        if mixture:
            np.greater_equal(u[2], weight, out=pick)
            np.multiply(pick, stride, out=draw)
        t0 = t
        ages, attempts = list(hd[t : t + _BLOCK + 1]), list(hr[t : t + _BLOCK + 1])
        actions, decision_ages = list(ha[t : t + _BLOCK]), list(hn[t : t + _BLOCK])
        for s in range(_BLOCK):
            d, r, a, e, dn, rn = ages[s], attempts[s], actions[s], decision_ages[s], ages[s + 1], attempts[s + 1]
            take_column(r, out=idx, mode="clip")
            if mixture:
                equal(d, one, out=renew)
                putmask(comp, renew, draw_rows[s])  # redrawn at every visit to (1, 0)
                add(idx, comp, out=idx)
            minimum(d, age_top, out=tmp)
            add(idx, tmp, out=idx)
            # Idle surely up to the decision age e, then decide in its row.
            take_jump(idx, out=e, mode="clip")
            maximum(e, d, out=e)
            ua = act_rows[s]
            take_e0(idx, out=edge, mode="clip")
            greater_equal(ua, edge, out=lo)
            take_e1(idx, out=edge, mode="clip")
            greater_equal(ua, edge, out=hi)
            add(lo8, hi8, out=a)
            add(r, a, out=j)
            take_fail(j, out=edge, mode="clip")
            greater_equal(chan_rows[s], edge, out=hi)  # delivered
            take_reset_age(j, out=tmp, mode="clip")
            add(e, one, out=dn)
            putmask(dn, hi, tmp)
            take_fail_att(j, out=rn, mode="clip")
            putmask(rn, hi, zero)
        t += _BLOCK

        # Book the block.  A step covers its jumped ages d .. e - 1 and its
        # decision slot.
        n = hn[t0:t]
        n -= hd[t0:t]
        n += 1
        before.append(total.copy())
        total += n.sum(axis=0)
        renewals.append(np.count_nonzero(hd[t0 + 1 : t + 1] == 1, axis=0))
        # The joined timeline is covered up to the first cycle still running,
        # plus that cycle's progress; a lane that idles surely forever has
        # covered about _NEVER slots.
        reach = int(np.minimum(total, horizon).sum())
        if reach >= horizon:
            blocks = np.cumsum(renewals, axis=0), np.stack(before + [total]), hd, hn
            first = int((blocks[0][-1] * _LANES + lanes).min())
            q, lane = divmod(first, _LANES)
            cycle = q + (lanes < lane)
            # At most the lanes' slots after the blocks in which these cycles
            # begin, each taken up to the horizon.
            most = np.minimum(blocks[1][np.count_nonzero(blocks[0] < cycle, axis=0) + 1, lanes], horizon)
            if most.sum() - most[lane] + min(total[lane], horizon) >= horizon:
                cycle_rows, cycle_slots = _cycle_starts(cycle, *blocks)
                if cycle_slots.sum() - cycle_slots[lane] + total[lane] >= horizon:
                    break

    # The cut.  Round c is cycle c of every lane; rounds before q are
    # complete, and so is round q up to the first cycle still running.  Find
    # the last round c that begins inside the horizon, from the round that
    # the pace so far points at, looking up rounds c and c + 1 together
    # (round q + 1 only for the lanes before ``lane``, from the check);
    # then the lane whose cycle in round c holds the last slot.
    c = min(q, q * horizon // max(int(cycle_slots.sum() - cycle_slots[lane]), 1))
    while True:
        if c < q:
            (rows_c, upper_rows), (at_c, upper) = _cycle_starts(np.full((2, _LANES), [[c], [c + 1]]), *blocks)
        else:
            rows_c, at_c = _cycle_starts(np.full(_LANES, q), *blocks)
            upper_rows, upper = cycle_rows, cycle_slots
        if at_c.sum() >= horizon:
            c -= 1
        elif c < q and upper.sum() < horizon:
            c += 1
        else:
            break
    lead = int(at_c.sum())
    width = lane if c == q else _LANES
    ends = lead + np.cumsum(upper[:width] - at_c[:width])
    lane = int(np.searchsorted(ends, horizon))
    m = c * _LANES + lane  # the cycle that holds the last slot
    rem = horizon - int(ends[lane - 1] if lane else lead)  # its slots inside the horizon
    # Steps inside the horizon per lane: every step of the other lanes'
    # cycles before m, and the steps of cycle m that end inside it.  The
    # step of cycle m that the cut ends, if any, keeps ``part`` of its
    # jumped slots and not its decision slot.
    full = np.where(lanes < lane, upper_rows, rows_c)
    inside = np.cumsum(hn[full[lane] : t, lane])
    k = int(np.searchsorted(inside, rem, "right"))
    part = rem - (int(inside[k - 1]) if k else 0)
    full[lane] += k
    # Rows below every lane's cut are kept whole; the band above keeps each
    # lane's steps before its cut, and ``part`` of the step the cut ends.
    low, depth = int(full.min()), min(int(full.max()) + 1, t)
    band = np.arange(low, depth)[:, None] < full
    np.multiply(hn[low:depth], band, out=hn[low:depth])
    if part:
        hn[full[lane], lane] = part
    kept = hn[:depth]

    # A step's kept slots have ages d, d + 1, ..., d + kept - 1.
    aoi_sum = int(np.einsum("ij,ij->", kept, hd[:depth])) + (int(np.einsum("ij,ij->", kept, kept)) - horizon) // 2
    n_tx = int(np.count_nonzero(ha[:low]) + np.count_nonzero(np.logical_and(ha[low:depth], band)))
    # The model admits no retransmission without a failed packet in flight
    # or at its attempt cap; only a table that retransmits in one of those
    # attempt columns can send one.  ``bad`` holds such decided steps.
    bad = []
    if np.isfinite(e1.reshape(-1, n_att, n_age)[:, [0, min(model.r_max, n_att - 1)]]).any():
        retx = ha[:depth] == Action.RETRANSMIT
        retx[low:] &= band
        f = np.flatnonzero(retx)
        bad = f[~out.admissible[Action.RETRANSMIT][hr[:depth].ravel()[f] // 3]]
    if not (trace or len(bad)):
        return aoi_sum, n_tx, None

    # The timeline's steps in order, as flat history indices, and their kept slots.
    c_step = _cycle_table(hd, t)
    order = np.arange(m + 1)
    lane_c, col_c = order % _LANES, order // _LANES
    first_step = c_step[lane_c, col_c]
    n = np.minimum(c_step[lane_c, col_c + 1], depth) - first_step
    step_t = np.repeat(first_step - (np.cumsum(n) - n), n) + np.arange(n.sum())
    flat = step_t * _LANES + np.repeat(lane_c, n)
    count = kept.ravel()[flat]
    if len(bad):
        # A decided step's decision slot is the last of its kept slots.
        position = np.empty(depth * _LANES, np.int64)
        position[flat] = np.arange(len(flat))
        slots = np.cumsum(count)[position[bad]]
        i = int(slots.argmin())
        r_bad = int(hr.ravel()[bad[i]]) // 3
        if r_bad < 1:
            raise ProtocolViolationError(int(slots[i]), "retransmit with no failed packet in flight")
        raise ProtocolViolationError(int(slots[i]), f"retransmit at the attempt cap r={r_bad}")
    f = np.repeat(flat, count)
    offset = np.arange(horizon) - np.repeat(np.cumsum(count) - count, count)
    d, r = hd[: depth + 1].ravel(), hr[: depth + 1].ravel() // 3
    decided = (np.arange(depth)[:, None] < full).ravel()[f]
    last = decided & (offset == np.repeat(count, count) - 1)  # the decision slot; the others idle
    ages = d[f] + offset
    return aoi_sum, n_tx, SlotTrace(
        ages, r[f], ha[:depth].ravel()[f] * last, np.where(last, d[f + _LANES], ages + 1), r[f + _LANES] * last
    )


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
    if not trace:
        return aoi_sum, len(tx_slot), None
    last = np.zeros(horizon + 1, np.int64)  # last delivery slot up to t
    last[tx_slot[delivered]] = tx_slot[delivered]
    np.maximum.accumulate(last, out=last)
    ages = np.arange(1, horizon + 2) - last
    attempts = np.zeros(horizon + 1, np.int64)  # a failed fresh update marks the next slot
    attempts[tx_slot[~delivered]] = out.fail_att[Action.NEW_UPDATE, 0]
    actions = np.zeros(horizon, np.uint8)
    actions[tx_slot - 1] = Action.NEW_UPDATE
    return aoi_sum, len(tx_slot), SlotTrace(ages[:-1], attempts[:-1], actions, ages[1:], attempts[1:])


def run(
    policy: Policy,
    model: ChannelModel,
    horizon: int,
    seed=0,
    *,
    collect_trace: bool = False,
) -> tuple[RunStats, SlotTrace | None]:
    """Simulate ``horizon`` slots from (1, 0); deterministic given the seed.

    ``seed`` is anything ``np.random.default_rng`` takes, a ``Generator``
    included, which is used as it is.  Returns the single-replication time
    averages and, when requested, the run's ``SlotTrace``.  The trace of
    ``n`` slots is the start of every longer run on the same stream.
    """
    if horizon < 1:
        raise ValueError(f"horizon must be at least 1, got {horizon}")
    rng = np.random.default_rng(seed)
    simulate = _periodic if isinstance(policy, PeriodicPolicy) else _cycles
    aoi_sum, n_tx, trace = simulate(policy, model, horizon, rng, collect_trace)
    return RunStats.from_reps([aoi_sum / horizon], [n_tx / horizon]), trace


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
