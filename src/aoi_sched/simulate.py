"""Slotted simulation of the source-channel-destination loop with ACK/NACK feedback.

One run executes a policy against the channel from the synchronized start
state (1, 0).  The age is never truncated here; simulation is the ground
truth against which solver truncation error is measured.  What a call of
``run`` or ``evaluate_simulated`` reads of its policy, model, horizon and
replication count is a ``Kernel``, built once per call for all its
replications.  The attempt count never passes the model's cap, and before
slot ``t`` it is at most ``t - 1``, so the kernel's ``mdp.slot_outcomes``
table has ``min(r_max, horizon) + 1`` columns.

Stationary policies and renewal mixtures run as lockstep renewal cycles, the
regenerative method of Crane & Iglehart (1975).  Every visit to (1, 0) starts
a cycle independent of and distributed as every other, so ``_LANES`` lanes
each start at (1, 0) and advance together, one vectorized step per decision
slot.  A lane with no packet in flight first jumps over the ages at which its
policy's table idles surely, adding their slots and ages in closed form, and
then draws its action and channel outcome at the next age; a lane whose
table idles surely from its age on jumps past any horizon.  Cycle ``i`` of
the run is cycle ``i // _LANES`` of lane ``i % _LANES``, and round ``c`` is
cycle ``c`` of every lane.  The cycles are joined in that order and cut at
exactly ``horizon`` slots, the last one possibly partial, even inside a
jump; a lane that never renews contributes one endless partial cycle.  The
order does not depend on any outcome, so the joined timeline is distributed
as one long run.  Uniforms are drawn in blocks of ``_BLOCK`` steps for all
lanes (action, channel and mixture component per lane and step; a jumped
sure idle draws none), so no lane's path depends on the horizon: the first
``n`` slots of a run are the run of ``n`` slots on the same generator.  A
block's rows that the kernel does not read (the mixture component of a
stationary policy, the action of a policy that decides surely) are skipped
on a PCG64 stream, which leaves it where drawing them would.  The lanes
step a segment of whole runs at a time on block-local int64 rows of ages,
actions and decision ages, so its adds and lookups mix no dtypes (a drawn
action is the sum of two bool comparisons).  Its booking writes the rows
once into the history, per lane and step the age, action and slots, and
appends to a table of cycle starts, per lane and cycle the step at which
the cycle begins and the lane's slots before it.  The loop stops at the
first segment end at which the joined cycles cover the horizon, which the
table gives exactly; the cut reads the rounds it needs from the same
table, and sums the kept steps of the whole batch in one pass.  The
attempts are kept for the step at hand only, and rebuilt from the ages and
actions where the trace or a violation needs them.

``evaluate_simulated`` steps its replications in batches, side by side: a
batch of ``B`` replications is one step loop over ``(B, _LANES)`` lanes.
Each replication keeps its own generator, ``default_rng([seed, i])``, its
own blocks of uniforms and skips, its own rows of the table of cycle
starts, coverage check and cut; one that is covered steps on, unread, until
the whole batch is.  So every replication equals ``run`` on its stream
alone, and ``run`` is a batch of one.  A step costs numpy's per-call
overhead more than its width, so wider steps are cheaper per lane.  ``B``
is as many replications as ``_BUDGET`` lane-steps of history hold at the
steps the horizon is expected to take (``_history_steps``), at least one:
15 up to 16,383 slots, 3 at 100,000, and 1 from 188,416; the history starts
with room for at most the budget and grows at the pace of the slowest
replication.  A batch's history grows with ``B``, so it is kept narrow:
below ``_NARROW`` slots the ages and slot counts are int32, 9 bytes per
lane and step with the action, and above it int64.  No age or slot count
of a run of fewer slots reaches 2**31, which the casting copies from the
int64 rows would wrap silently.

The open-loop periodic baseline acts on the slot number, not on renewals; a
closed-form pass over its transmission slots simulates it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from numbers import Integral
from typing import NamedTuple

import numpy as np

from .errors import ProtocolViolationError
from .mdp import Action, ChannelModel, State, slot_outcomes
from .policies import PeriodicPolicy, Policy, RenewalMixture, action_edges, clamped_rows

_LANES = 256  # renewal-cycle lanes advanced in lockstep
_BLOCK = 32  # steps per block of uniforms
_NEVER = 2**62  # an age or step no run reaches, with room to count past it
_SUB = 8  # steps per run: a segment, booked and checked for coverage at its end, is whole runs
_BUDGET = 15 * 2**14  # lane-steps of history a batch starts with: 3 replications of 100k slots, 15 of 2,000
_NARROW = 2**29  # horizons below it keep ages and slot counts as int32
_LANE_IDS = np.arange(_LANES)

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


@dataclass(frozen=True, eq=False)
class RunStats:
    """Time-averaged age and transmission rate, aggregated across replications.

    ``aoi_per_rep`` and ``cost_per_rep`` hold each replication's averages as
    read-only float64 arrays.  Stats compare by identity, as an array field
    has no single truth value.
    """

    mean_aoi: float
    mean_cost: float
    var_aoi: float
    var_cost: float
    aoi_per_rep: np.ndarray
    cost_per_rep: np.ndarray

    @classmethod
    def from_reps(cls, aois, costs) -> "RunStats":
        a = np.array(aois, dtype=np.float64)
        c = np.array(costs, dtype=np.float64)
        a.flags.writeable = c.flags.writeable = False
        var_a = float(a.var(ddof=1)) if len(a) > 1 else 0.0
        var_c = float(c.var(ddof=1)) if len(c) > 1 else 0.0
        return cls(float(a.mean()), float(c.mean()), var_a, var_c, a, c)


def baseline_periodic(c_max: float) -> PeriodicPolicy:
    """No-feedback baseline: fresh update every ceil(1/c_max) slots."""
    if not 0.0 < c_max <= 1.0:
        raise ValueError(f"budget must lie in (0, 1], got {c_max}")
    return PeriodicPolicy(math.ceil(1.0 / c_max - 1e-12))


def _kernel_tables(policy: Policy):
    """Flat tables of the kernel, indexed by ``(component, attempts, age)``.

    Each component is read by ``clamped_rows`` at the largest age and
    attempt count among them, which keeps its clamping; the kernel clamps
    ages and attempts to these tables, so they have the policy's size
    whatever the model's attempt cap.  ``e0`` and ``e1`` are the rows'
    ``action_edges``: a uniform ``u`` selects action ``(u >= e0) + (u >=
    e1)``.  In column 0, ``jump`` is the first age from the row's own on
    whose row is not a sure idle (a clamped age reads the last row), or
    ``_NEVER`` when the last row idles surely; in the other columns it is the
    row's own age.  ``row`` is the flat index of the row at age ``jump``,
    clamped.  A stationary policy is a one-component mixture.
    """
    mixture = isinstance(policy, RenewalMixture)
    parts = [p.table for p in ((policy.first, policy.second) if mixture else (policy,))]
    n_age = max(p.shape[0] for p in parts)
    n_att = max(p.shape[1] for p in parts)
    edges = action_edges(np.stack([clamped_rows(p, *np.ogrid[:n_age, :n_att]) for p in parts]).transpose(0, 2, 1, 3))
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


class Kernel:
    """What every batch of one ``run`` or ``evaluate_simulated`` call reads, decided once.

    The call's ``horizon`` and its batch size ``size`` (``_batch_size``),
    both checked here.  For stationary policies and renewal mixtures: the
    policy's tables (``_kernel_tables``) and whether it decides surely, the
    model's ``slot_outcomes`` arrays up to ``min(r_max, horizon)`` attempts,
    indexed by ``3 * attempts + action``, the table offset of each attempt
    count, the history's dtype and its starting length ``cap`` in steps, and
    the work arrays.  For the periodic baseline: its outcome table.  The
    work arrays (the history, the block-local rows of ``_cycles`` and the
    block of uniforms) are flat and have room for the first batch, the
    largest; every batch steps on the head of each (``_head``), so a kernel
    serves one batch at a time.
    """

    def __init__(self, policy: Policy, model: ChannelModel, horizon: int, replications: int):
        for name, value in (("horizon", horizon), ("replications", replications)):
            if not isinstance(value, Integral) or value < 1:
                raise ValueError(f"{name} must be an integer of at least 1, got {value}")
        self.policy, self.horizon = policy, horizon
        self.size = _batch_size(horizon, replications)
        self.periodic = isinstance(policy, PeriodicPolicy)
        if self.periodic:
            self.outcomes = slot_outcomes(model)
            return
        self.mixture = isinstance(policy, RenewalMixture)
        self.weight = policy.weight_first if self.mixture else 1.0
        # Indexed by 3 * attempts + action, so that a step's index is one add.
        # Attempts never pass the model's cap, not even by a retransmission
        # there, where the run raises ProtocolViolationError.  Before its slot
        # t a lane has made at most t - 1 attempts, and a lane keeps at most
        # ``horizon`` slots, so the kept slots read no column past ``horizon``.
        width = min(model.r_max, horizon) + 1
        out = slot_outcomes(model, width)
        self.fail, self.reset_age, fail_att = (x.T.ravel() for x in out[:3])
        self.fail_att = 3 * fail_att
        self.retransmit_ok = out.admissible[Action.RETRANSMIT]
        # Below _NARROW slots the history is int32, and no age passes 2**30 plus
        # the steps, at most the horizon and a block: the age that never comes
        # is 2**30.  An age beyond a policy's table clamps to it.
        self.dtype, never = (np.int32, 2**30) if horizon < _NARROW else (np.int64, _NEVER)
        e0, e1, jump, row, n_age, n_att = _kernel_tables(policy)
        self.jump = np.minimum(jump, never)
        self.e0, self.e1 = e0[row], e1[row]  # the edges of the row a lane decides in, by its index before the jump
        self.stride, self.n_age = n_age * n_att, n_age
        served = np.minimum(np.arange(width), n_att - 1)  # the table column of each attempt count
        self.column = np.repeat(served * n_age, 3)  # table offset of 3 * attempts
        # Only a table that retransmits in a column serving an attempt count
        # the model refuses a retransmission at can send one.
        self.may_violate = bool(np.isfinite(self.e1.reshape(-1, n_att, n_age)[:, served[~self.retransmit_ok]]).any())
        # A uniform in [0, 1) crosses every edge at or below 0 and none at
        # or above 1.  A table whose edges all lie there decides surely: its
        # action is ``sure``, and it reads no action uniforms.
        e0, e1 = self.e0, self.e1
        surely = (((e0 <= 0.0) | (e0 >= 1.0)) & ((e1 <= 0.0) | (e1 >= 1.0))).all()
        self.sure = np.add(e0 <= 0.0, e1 <= 0.0, dtype=np.int64) if surely else None
        # The rows of each block of uniforms (action, channel and mixture
        # component) that the runs read.
        self.rows = slice(0 if self.sure is None else 1, 3 if self.mixture else 2)
        # The history's starting length: the steps the horizon is expected to
        # take, at most _BUDGET lane-steps.
        self.cap = min(_history_steps(horizon), max(_BUDGET // (self.size * _LANES * _BLOCK), 1) * _BLOCK)
        # Work arrays that every batch reuses: a fresh array per batch costs
        # more in page faults than the bookkeeping of a run's steps.  Per step
        # and lane, the history's ages (one row more), actions and slots.
        w = self.size * _LANES
        self.hd = np.empty((self.cap + 1) * w, self.dtype)
        self.ha = np.empty(self.cap * w, np.uint8)
        self.hn = np.empty(self.cap * w, self.dtype)
        self.loc = np.empty(3 * (_BLOCK + 1) * w, np.int64)
        self.u = np.empty((self.rows.stop - self.rows.start) * _BLOCK * w)


def _head(a: np.ndarray, *shape: int) -> np.ndarray:
    """The head of the flat work array ``a`` as a view of ``shape``; one larger than ``a`` fails to reshape."""
    return a[: math.prod(shape)].reshape(shape)


def _book(loc: np.ndarray, hd, ha, hn, a: int, b: int, slots: np.ndarray, last: np.ndarray, table: np.ndarray):
    """Book steps ``a .. b - 1`` once, when they have run; return the table of cycle starts.

    ``loc`` holds them in the int64 rows of ``_cycles``: ages, actions and
    decision ages.  A step covers its jumped ages d .. e - 1 and its decision
    slot, so its decision age becomes its slot count; the rows go into the
    history by one casting copy per array.  A step after which a lane's age
    is 1 is a renewal: it begins the lane's next cycle, whose first step and
    the lane's slots before it are appended to ``table[cycle, :, rep,
    lane]``, at flat index ``cycle * 2 * width + rep * _LANES + lane`` for
    ``width`` lanes in all; ``last`` holds that index of each lane's latest
    cycle.  Row 0 of ``slots``, ``last`` and the ages is each lane's before
    the steps, row ``i + 1`` after step ``a + i``, and row 0 again after them
    all.  The table has a row for every cycle begun and the one after; it
    is grown to keep them.
    """
    d, acts, n = loc[0, : b - a + 1], loc[1, : b - a], loc[2, : b - a]
    n -= d[:-1]
    n += 1
    hd[a + 1 : b + 1], ha[a:b], hn[a:b] = d[1:], acts, n
    width = n[0].size
    renew = d[1:] == 1
    on = np.multiply(renew, 2 * width, out=acts)  # how far each step moves ``last``, in the booked action rows
    for i, count in enumerate(hn[a:b]):
        np.add(slots[i], count, out=slots[i + 1])
        np.add(last[i], on[i], out=last[i + 1])
    rows = int(last[b - a].max()) // (2 * width) + 2
    if rows > len(table):
        table = _grow(table, max(rows, len(table) * 5 // 4))
    at = np.flatnonzero(renew)
    where = last[1:].take(at)
    flat = table.reshape(-1)
    # Values of the table's dtype: a fancy assignment that casts costs twice one that does not.
    flat[where] = (at // width).astype(table.dtype) + (a + 1)
    flat[where + width] = slots[1:].take(at)
    slots[0], last[0], d[0] = slots[b - a], last[b - a], d[b - a]
    return table


def _history_steps(horizon: int) -> int:
    """The steps a run of ``horizon`` slots is expected to take: about 0.625 * horizon / _LANES,
    as a threshold-shaped policy decides in under half of its slots."""
    return (horizon // (_LANES * _BLOCK) * 5 // 8 + 2) * _BLOCK


def _batch_size(horizon: int, replications: int) -> int:
    """Replications stepped side by side: as many as ``_BUDGET`` holds at the expected steps."""
    return max(1, min(replications, _BUDGET // (_LANES * _history_steps(horizon))))


def _cycles(k: Kernel, rngs: list[np.random.Generator], trace: bool):
    """Lockstep renewal-cycle kernel for stationary policies and renewal mixtures.

    Steps a batch of replications side by side: replication ``b`` runs on
    the generator ``rngs[b]`` and on the lanes ``[b]`` of every per-lane
    array, and is what it would be alone.  Returns per replication the age
    sum and transmission count of its joined timeline's first ``horizon``
    slots and, when ``trace`` is set, its ``SlotTrace``.

    Each block of ``_BLOCK`` steps draws its uniforms first, the rows that
    the kernel reads, each replication from its own generator.  The lanes
    then step through it on block-local int64 rows, in segments of whole
    runs of ``_SUB`` steps, each booked once (``_book``) into the history and
    the table of cycle starts.  After a segment, the table gives each
    replication's coverage exactly: the joined timeline is covered up to the
    first cycle still running, round ``q`` of the first lane ``l0`` with the
    fewest renewals, ``q``; that is the slots before round ``q + 1`` of the
    lanes before ``l0``, before round ``q`` of the lanes after it, and all of
    lane ``l0``'s slots.  A replication is covered at the first segment end
    at which the horizon is; it draws no more uniforms, and its lanes step
    on, unread, until the whole batch is covered, which is then cut
    (``_cut``).  A segment runs to the end of its block unless every open
    replication's coverage still missing is run before, at the pace of its
    lanes' slots so far; then it runs to the run in which the last of them
    is.  The history starts in the kernel's work arrays, with room for
    ``k.cap`` steps; a batch that outgrows it grows a copy of its own, at the
    pace of the slowest open replication's lanes.
    """
    horizon, cap, dtype, reps = k.horizon, k.cap, k.dtype, len(rngs)
    lanes, shape = _LANE_IDS, (reps, _LANES)
    # Per step t and lane: the age before it, the action of its decision slot, and its slots.
    hd, ha, hn = _head(k.hd, cap + 1, *shape), _head(k.ha, cap, *shape), _head(k.hn, cap, *shape)
    hd[0] = 1
    # The segment at hand steps on int64 rows, so that no add or lookup of the
    # loop mixes dtypes: ages (row 0 before the segment), actions and decision ages.
    loc = _head(k.loc, 3, _BLOCK + 1, *shape)
    ages, actions, decided = (list(x) for x in loc)
    loc[0, 0] = 1
    # The table of cycle starts, ``[cycle, (step, slots), replication,
    # lane]``: the step at which each cycle begins and the lane's slots
    # before it.  Cycle 0 begins at step 0; a cycle not begun is not written.
    table = np.empty((cap // 2 + 2, 2, reps, _LANES), dtype)
    table[0] = 0
    # Each lane's latest cycle and slots (``_book``) so far in row 0, and
    # after each step of the segment being booked in the rows below it.
    slots, last = np.zeros((_BLOCK + 1,) + shape, dtype), np.empty((_BLOCK + 1,) + shape, np.int64)
    last[0] = np.arange(reps * _LANES).reshape(shape)
    comp = np.zeros(shape, np.int64)  # table offset of each lane's mixture component
    idx, j, tmp = (np.empty(shape, np.int64) for _ in range(3))
    # Three times the attempts before step i, at i % 2: kept for the step at hand only.
    attempts = [np.zeros(shape, np.int64), np.empty(shape, np.int64)] * (_BLOCK // 2 + 1)
    edge = np.empty(shape)
    lo, hi, renew = (np.empty(shape, bool) for _ in range(3))
    lo8, hi8 = lo.view(np.uint8), hi.view(np.uint8)
    # Array operands: ufuncs convert a Python scalar operand on every call.
    one, zero, age_top = np.ones(shape, np.int64), np.zeros(shape, np.int64), np.full(shape, k.n_age - 1, np.int64)
    # The rows of each replication's block of uniforms that the kernel reads.
    rows = k.rows
    u = _head(k.u, reps, rows.stop - rows.start, _BLOCK, _LANES)
    block = {row: list(u[:, row - rows.start].swapaxes(0, 1)) for row in range(rows.start, rows.stop)}
    act_rows, chan_rows = block.get(0), block[1]
    mixture = k.mixture
    if mixture:
        pick = np.empty((_BLOCK,) + shape, bool)
        draw = np.empty((_BLOCK,) + shape, np.int64)
        draw_rows = list(draw)
    # A PCG64 stream skips the rows of a block that the kernel does not read
    # exactly as drawing them would pass them, unless a half-used 64-bit
    # output is buffered, which skipping would drop; other streams draw them.
    skips = [
        bits.advance if type(bits) in (np.random.PCG64, np.random.PCG64DXSM) and not bits.state["has_uint32"]
        else rng.random
        for rng, bits in ((rng, rng.bit_generator) for rng in rngs)
    ]
    weight, stride, sure = k.weight, k.stride, k.sure is not None
    # Local names: the step loop looks up no global or attribute.
    add, equal, greater_equal, maximum, minimum, putmask = np.add, np.equal, np.greater_equal, np.maximum, np.minimum, np.putmask
    take_column, take_jump = k.column.take, k.jump.take
    take_e0, take_e1, take_fail = k.e0.take, k.e1.take, k.fail.take
    take_reset_age, take_fail_att = k.reset_age.take, k.fail_att.take
    take_sure = getattr(k.sure, "take", None)

    # Steps until the last open replication's coverage reaches the horizon
    # at the pace of its lanes, at first four slots per lane and step.
    t, need = 0, horizon // (_LANES * 4)
    each = np.arange(reps)
    ran = [0] * reps  # each replication's lanes' slots so far, each up to the horizon
    ends = [None] * reps  # each covered replication's steps, and the round and lane running then
    open_ = list(range(reps))
    while open_:
        if t + _BLOCK > cap:
            # The pace so far with a tenth to spare.
            pace = t * horizon // max(min(ran[rep] for rep in open_), 1) * 11 // 10 + 2 * _BLOCK
            cap = -(-max(pace, cap + cap // 4 + _BLOCK) // _BLOCK) * _BLOCK
            hd = _grow(hd, cap + 1)
            ha = _grow(ha, cap)
            hn = _grow(hn, cap)
        for rep in open_:
            skips[rep](rows.start * _BLOCK * _LANES)
            rngs[rep].random(out=u[rep])
            skips[rep]((3 - rows.stop) * _BLOCK * _LANES)
        if mixture:
            np.greater_equal(u[:, 2 - rows.start].swapaxes(0, 1), weight, out=pick)
            np.multiply(pick, stride, out=draw)
        s = 0
        while s < _BLOCK and open_:
            stop = min(s + max(need // _SUB, 1) * _SUB, _BLOCK)
            for i in range(stop - s):
                d, r, a, e, dn, rn = ages[i], attempts[i], actions[i], decided[i], ages[i + 1], attempts[i + 1]
                take_column(r, out=idx, mode="clip")
                if mixture:
                    equal(d, one, out=renew)
                    putmask(comp, renew, draw_rows[s + i])  # redrawn at every visit to (1, 0)
                    add(idx, comp, out=idx)
                minimum(d, age_top, out=tmp)
                add(idx, tmp, out=idx)
                # Idle surely up to the decision age e, then decide in its row.
                take_jump(idx, out=e, mode="clip")
                maximum(e, d, out=e)
                if sure:
                    take_sure(idx, out=a, mode="clip")
                else:
                    ua = act_rows[s + i]
                    take_e0(idx, out=edge, mode="clip")
                    greater_equal(ua, edge, out=lo)
                    take_e1(idx, out=edge, mode="clip")
                    greater_equal(ua, edge, out=hi)
                    add(lo8, hi8, out=a)
                add(r, a, out=j)
                take_fail(j, out=edge, mode="clip")
                greater_equal(chan_rows[s + i], edge, out=hi)  # delivered
                take_reset_age(j, out=tmp, mode="clip")
                add(e, one, out=dn)
                putmask(dn, hi, tmp)
                take_fail_att(j, out=rn, mode="clip")
                putmask(rn, hi, zero)
            table = _book(loc, hd, ha, hn, t + s, t + stop, slots, last, table)
            s = stop
            # Each replication's coverage, exactly; a lane that idles surely
            # forever has run about ``never`` slots.
            lane = last[0].argmin(axis=1)  # the first lane with the fewest renewals
            q = last[0, each, lane] // (2 * reps * _LANES)
            at = table[q[:, None] + (lanes < lane[:, None]), 1, each[:, None], lanes]
            at[each, lane] = slots[0, each, lane]
            cover = at.sum(axis=1).tolist()
            ran = np.minimum(slots[0], horizon).sum(axis=1).tolist()
            for rep in [rep for rep in open_ if cover[rep] >= horizon]:
                ends[rep] = (t + s, int(q[rep]), int(lane[rep]))
                open_.remove(rep)
            # Steps that cover the others sooner are run anyway.
            need = max([(horizon - cover[rep]) * (t + s) // max(ran[rep], 1) for rep in open_], default=0)
        t += s
    return _cut(k, ends, table, hd, ha, hn, trace)


def _cut(k: Kernel, ends: list, starts: np.ndarray, hd, ha, hn, trace: bool) -> list:
    """Each replication's age sum, transmission count and, when ``trace`` is set, ``SlotTrace``,
    from the batch's history, whose first ``t`` steps cover replication ``rep``.

    ``ends[rep]`` is ``(t, q, lane)``: round ``q`` was running at lane ``lane`` when the steps
    were found to cover the horizon, so every lane has begun the rounds up to ``q``.  Searches over
    the rounds' totals, the slots before each, in the table of cycle starts ``starts``, ``[cycle,
    (step, slots), rep, lane]``, find for the whole batch the last round ``c`` that begins inside
    the horizon, the lane whose cycle in it holds the last slot and the step at which the cut
    falls; none reads a row past a lane's cycles begun.  The kept steps are every lane's steps
    before its cut, so one pass over the batch's ``(step, rep, lane)`` rows sums each
    replication's ages and transmissions.
    """
    horizon, each, lanes = k.horizon, np.arange(len(ends)), _LANE_IDS
    t, q, lane = (np.array(x) for x in zip(*ends))
    rows, slots = starts[:, 0], starts[:, 1]
    before = slots[: q.max() + 1].sum(axis=2)  # the slots before each round, up to q
    c = ((before < horizon) & (np.arange(len(before))[:, None] <= q)).sum(axis=0) - 1
    # The lane whose cycle in round c holds the last slot, among those that have ended it.
    at, ended = (c[:, None], each[:, None], lanes), lanes < np.where(c == q, lane, _LANES)[:, None]
    done = before[c, each][:, None] + np.cumsum(np.where(ended, slots[at[0] + 1, at[1], lanes] - slots[at], 0), axis=1)
    lane = ((done < horizon) & ended).sum(axis=1)
    rem = horizon - np.where(lane > 0, done[each, lane - 1], before[c, each])  # its slots inside the horizon
    # Every step of the other lanes' cycles before that one, and its steps that end inside
    # the horizon; the step the cut ends, if any, keeps ``part`` of its jumped slots.
    full = np.where(lanes < lane[:, None], rows[at[0] + 1, at[1], lanes], rows[at]).astype(np.int64)
    row = np.arange(t.max())[:, None]
    mine = (row >= full[each, lane]) & (row < t)
    inside = np.cumsum(np.where(mine, hn[: t.max(), each, lane], 0), axis=0)
    step = ((inside <= rem) & mine).sum(axis=0)
    part = rem - np.where(step > 0, inside[full[each, lane] + step - 1, each], 0)
    full[each, lane] += step
    depth = np.minimum(full.max(axis=1) + 1, t)
    # Only a table that can retransmit where the model admits none is checked.
    hrs = [_attempts(k, hd[:, rep], ha[:, rep], hn[:, rep], depth[rep]) for rep in each] if k.may_violate or trace else []
    # Rows below every lane's cut are kept whole; the band above keeps each
    # lane's steps before its cut, and ``part`` of the step the cut ends.
    low, deep = int(full.min()), int(depth.max())
    band = np.arange(low, deep)[:, None, None] < full
    np.multiply(hn[low:deep], band, out=hn[low:deep])
    np.multiply(ha[low:deep], band, out=ha[low:deep])
    hn[full[each, lane][part > 0], each[part > 0], lane[part > 0]] = part[part > 0]
    out = [None] * len(ends)
    for rep, hr in enumerate(hrs):  # cycle c * _LANES + lane holds the last slot
        own = (x[:, rep] for x in (rows, hd, ha, hn))
        out[rep] = _slots(k, c[rep] * _LANES + lane[rep], full[rep], depth[rep], hr, *own, trace)
    # A step's kept slots have ages d, d + 1, ..., d + kept - 1, which sum to
    # kept * (2 * d + kept - 1) / 2, and the kept slots to the horizon.  The
    # ages become 2 * d + kept in place, which wraps only where kept is 0.
    w = np.add(hd[:deep], hd[:deep], out=hd[:deep])
    w += hn[:deep]
    aoi_sums = (np.einsum("ijk,ijk->j", hn[:deep], w, dtype=np.int64) - horizon) // 2
    return [(int(aoi_sums[rep]), np.count_nonzero(ha[:deep, rep]), out[rep]) for rep in each]


def _attempts(k: Kernel, hd: np.ndarray, ha: np.ndarray, hn: np.ndarray, depth: int) -> np.ndarray:
    """Three times the attempt count before each of one replication's first ``depth + 1`` steps.

    Rebuilt from the booked history as the steps left them: a step fails
    when the age after it rises past its decision age (an idle always does),
    found for all steps in one pass, and then leaves ``fail_att`` of its
    attempts and action; a delivery leaves none.
    """
    hr = np.zeros((depth + 1, _LANES), np.int64)
    failed = hd[1 : depth + 1] - hd[:depth] >= hn[:depth]
    take = k.fail_att.take
    for i in range(depth):
        np.multiply(take(hr[i] + ha[i], mode="clip"), failed[i], out=hr[i + 1])
    return hr


def _slots(k: Kernel, m: int, full: np.ndarray, depth: int, hr, rows, hd, ha, kept, trace: bool):
    """One replication's ``SlotTrace`` when ``trace`` is set; raises ``ProtocolViolationError`` at its
    first inadmissible retransmission.  Cycle ``m`` holds the last slot, lane ``l`` decides in its first
    ``full[l]`` steps, ``kept`` holds each step's slots inside the horizon and ``hr`` its attempts."""
    decided = np.arange(depth)[:, None] < full
    # The timeline's steps in order, as flat history indices, and their kept slots.
    order = np.arange(m + 1)
    lane_c, col_c = order % _LANES, order // _LANES
    # Every cycle before m ends inside the horizon, so its lane has begun
    # the next; cycle m runs to the depth, past which nothing is kept.
    first_step = rows[col_c, lane_c]
    n = rows[col_c + 1, lane_c] - first_step
    n[-1] = depth - first_step[-1]
    step_t = np.repeat(first_step - (np.cumsum(n) - n), n) + np.arange(n.sum())
    flat = step_t * _LANES + np.repeat(lane_c, n)
    count = kept[:depth].ravel()[flat]
    f = np.repeat(flat, count)
    offset = np.arange(k.horizon) - np.repeat(np.cumsum(count) - count, count)
    d, r = hd[: depth + 1].astype(np.int64).ravel(), hr.ravel() // 3
    last = decided.ravel()[f] & (offset == np.repeat(count, count) - 1)  # the decision slot; the others idle
    ages = d[f] + offset
    out = SlotTrace(ages, r[f], ha[:depth].ravel()[f] * last, np.where(last, d[f + _LANES], ages + 1), r[f + _LANES] * last)
    if k.may_violate:
        bad = np.flatnonzero((out.action == Action.RETRANSMIT) & ~k.retransmit_ok[out.r])
        if len(bad):
            slot, r_bad = int(bad[0]) + 1, int(out.r[bad[0]])
            if r_bad < 1:
                raise ProtocolViolationError(slot, "retransmit with no failed packet in flight")
            raise ProtocolViolationError(slot, f"retransmit at the attempt cap r={r_bad}")
    return out if trace else None


def _periodic(k: Kernel, rng: np.random.Generator, trace: bool):
    """Closed-form pass over the periodic baseline's transmission slots.

    One channel uniform per transmission slot, in slot order.  The age climbs
    by one per slot from 1 at slot 1 and is 1 again in the slot after a
    delivery, so the ages between deliveries are arithmetic series.
    """
    horizon, period = k.horizon, k.policy.period
    tx_slot = 1 + period * np.arange((horizon - 1) // period + 1)
    out = k.outcomes
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
    policy: Policy, model: ChannelModel, horizon: int, seed=0, *, collect_trace: bool = False
) -> tuple[RunStats, SlotTrace | None]:
    """Simulate ``horizon`` slots from (1, 0); deterministic given the seed.

    ``seed`` is anything ``np.random.default_rng`` takes, a ``Generator``
    included, which is used as it is.  Returns the single-replication time
    averages and, when requested, the run's ``SlotTrace``.  The trace of
    ``n`` slots is the start of every longer run on the same stream.
    """
    kernel = Kernel(policy, model, horizon, 1)
    ((aoi_sum, n_tx, trace),) = _simulate(kernel, [np.random.default_rng(seed)], collect_trace)
    return RunStats.from_reps([aoi_sum / horizon], [n_tx / horizon]), trace


def evaluate_simulated(policy: Policy, model: ChannelModel, horizon: int, replications: int, seed=0) -> RunStats:
    """Independent replications with per-replication streams derived from (seed, index).

    The replications share one ``Kernel`` and run in batches of side-by-side
    replications (``_batch_size``); each equals ``run`` on its own stream.
    """
    kernel = Kernel(policy, model, horizon, replications)
    sums = []
    for first in range(0, replications, kernel.size):
        rngs = [np.random.default_rng([seed, rep]) for rep in range(first, min(first + kernel.size, replications))]
        sums += _simulate(kernel, rngs, False)
    return RunStats.from_reps([aoi / horizon for aoi, _, _ in sums], [n_tx / horizon for _, n_tx, _ in sums])


def _simulate(kernel: Kernel, rngs: list[np.random.Generator], trace: bool) -> list:
    """One replication per generator, as ``(age sum, transmissions, SlotTrace or None)``."""
    if kernel.periodic:
        return [_periodic(kernel, rng, trace) for rng in rngs]
    return _cycles(kernel, rngs, trace)


class SlotEnv:
    """Minimal slot interface for learners: hides the error profile.

    ``step`` applies an action to the true (untruncated) state and reports
    the next state and the transmission outcome from ``mdp.slot_outcomes``,
    loaded once up to the model's attempt cap.  With ``sarsa.step`` it is the
    per-slot specification of ``sarsa.train``, which runs the same slots on
    list copies of the table; the tests check its steps against the
    per-state slot rule of ``tests/spec.py``.
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
