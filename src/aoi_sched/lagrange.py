"""Multiplier search and construction of the budget-optimal randomized policy.

For a fixed deterministic policy the relaxed average cost ``J + eta * C``
(average age plus charged transmission rate) is linear in the charge ``eta``,
and the optimal gain is the lower envelope of those lines.  The budget-optimal
policy randomizes between the two deterministic policies that are adjacent on
that envelope at the critical charge ``eta*`` (Beutler & Ross 1985; Altman,
*Constrained Markov Decision Processes*, 1999).  The search walks the
envelope to that pair.  It brackets the budget with ``eta = 0`` and an upper
charge doubled from ``1 / c_max**2`` until its policy's cost is within budget
(phase ``"expand"``).  It then probes where the two endpoint lines cross,
``x = (J_hi - J_lo) / (C_lo - C_hi)``, and replaces the endpoint on the
probe's side of the budget (phase ``"walk"``).  When the probe at ``x``
returns an endpoint's ``(J, C)`` bit for bit, that endpoint is optimal at
``x`` (to the solver's tie bound), so no policy lies below the pair and
``eta* = x``.  Every ``J`` and ``C`` is read off the chain the solver built
for the probe's policy by ``evaluate_exact``'s stationary step, not from
its gain, so one table gives one ``(J, C)`` in every probe.  A
probe whose cost meets the budget exactly ends the search at once, so the
full budget ``c_max = 1``, which the uncharged policy meets by sending in
every slot, ends at ``eta* = 0`` after one probe.  A greedy policy that
idles forever once the age reaches the cap is the line ``n_max + eta * 0``;
if the budget needs it, the cap is too small and ``TruncationError`` says
which cap to use.  Each trace row also records the probe's policy
evaluations and solver residual.  The first probe's solve builds the
``StateSpace`` of ``(model, trunc)`` that every later probe and the final
mix reuse; a renewal mixture only combines the evaluations of its pair.
Each probe's solve starts from the previous probe's output (``rvi.solve``'s
``start``), whose values are exact at the new charge once shifted along
the charge; a probe whose previous policy is still optimal evaluates no
policy (0 in its trace row).  When a probe reads off the previous probe's
table, it has that probe's chain, so it reuses that probe's ``J`` and ``C``.

Mixing the two policies to meet the budget with equality yields the
constrained optimum: in a single state when the tables differ in exactly one,
otherwise by redrawing the active policy at every visit to the renewal state
(1, 0).

The reported mixture coefficient ``mu`` is the chord weight in cost space
between the two policies' (cost, age) points, which is also the weight
placing the achieved age on the lower convex hull of those points.  The
randomization probability actually executed is corrected for unequal
expected renewal-cycle lengths so that the exact stationary cost equals the
budget, not just its once-drawn expectation.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import NamedTuple

import numpy as np

from . import arq
from .errors import BracketingError, EtaSearchError, NoStationaryAoIError, TruncationError
from .exact import EvalResult, _evaluate_solved, _renewal_mix, arq_eval_truncation, evaluate_exact, renewal_mixture_weight
from .mdp import ChannelModel, State, Truncation
from .policies import (
    DeterministicTable,
    Policy,
    RandomizedTable,
    RenewalMixture,
    table_difference,
)
from .rvi import SolverOutput, solve

_HIT_TOL = 1e-9  # |cost - budget| at which a probe meets the budget exactly
_MAX_STEPS = 64  # probes per phase before the search gives up


@dataclass(frozen=True)
class TraceRow:
    step: int
    eta: float
    avg_cost: float
    avg_aoi: float
    gain: float
    phase: str
    iterations: int  # policy evaluations of the probe's solve
    residual: float  # the solve's final residual


@dataclass(frozen=True, eq=False)
class EtaSearchResult:
    """Critical charge and the two adjacent policies with their exact evaluations.

    ``low`` is over the budget and ``high`` within it; on an exact hit both
    are the probe that met the budget.
    """

    eta_star: float
    bracket: tuple[float, float]
    trace: tuple[TraceRow, ...]
    exact_hit: bool  # a multiplier with cost == budget (within _HIT_TOL) was found
    low: tuple[SolverOutput, EvalResult] = field(repr=False)
    high: tuple[SolverOutput, EvalResult] = field(repr=False)


class _Probe(NamedTuple):
    eta: float
    out: SolverOutput
    res: EvalResult | None  # None: the policy idles forever at the age cap
    aoi: float
    cost: float


@dataclass(frozen=True, eq=False)
class ConstrainedSolution:
    """Budget-optimal policy; ``tail_mass`` is the achieved policy's stationary
    mass at the age cap (``EvalResult.tail_mass``), reported, not checked."""

    eta_star: float
    policy_low: DeterministicTable
    policy_high: DeterministicTable
    mu: float
    mixed: Policy
    achieved_cost: float
    achieved_aoi: float
    tail_mass: float
    search: EtaSearchResult = field(repr=False)


def mixture_weight(c_low: float, c_high: float, c_max: float) -> float:
    """Chord weight on the costlier policy so the mixed cost meets the budget."""
    if c_low < c_high:
        raise BracketingError(f"expected c_low >= c_high, got {c_low} < {c_high}")
    if not c_high <= c_max <= c_low:
        raise BracketingError(f"budget {c_max} outside the policy costs [{c_high}, {c_low}]")
    if c_low == c_high:
        return 1.0
    return (c_max - c_high) / (c_low - c_high)


def search_eta_star(
    model: ChannelModel,
    trunc: Truncation,
    c_max: float,
) -> EtaSearchResult:
    """Walk the lower envelope of ``J + eta * C`` to the critical charge.

    Raises ``TruncationError`` when the budget needs the policy that idles
    forever at the age cap, and ``EtaSearchError`` when the budget does not
    bind at ``eta = 0`` or a phase runs out of steps.
    """
    if not 0.0 < c_max <= 1.0:
        raise ValueError(f"budget must lie in (0, 1], got {c_max}")
    trace: list[TraceRow] = []
    prev: _Probe | None = None
    start: SolverOutput | None = None  # prev's output with its chain, where the next solve starts

    def probe(eta: float, phase: str) -> _Probe:
        nonlocal prev, start
        out = solve(model, trunc, eta, start=start)
        if prev is not None and np.array_equal(out.policy.table, prev.out.policy.table):
            # The same table has the same chain, so the same J and C bit for bit.
            res, aoi, cost = prev.res, prev.aoi, prev.cost
        else:
            try:
                res = _evaluate_solved(out)
                aoi, cost = res.avg_aoi, res.avg_cost
            except NoStationaryAoIError:
                # Without transmissions the age climbs to the cap and stays there.
                res, aoi, cost = None, float(trunc.n_max), 0.0
        prev, start = _Probe(eta, replace(out, chain=None), res, aoi, cost), out  # the chain is read: drop it
        trace.append(TraceRow(len(trace), eta, cost, aoi, out.gain, phase, out.iterations, out.residual))
        return prev

    def meets(p: _Probe) -> bool:
        return p.res is not None and abs(p.cost - c_max) <= _HIT_TOL

    def result(eta: float, lo: _Probe, hi: _Probe, hit: bool) -> EtaSearchResult:
        if hi.res is None:
            needed = arq_eval_truncation(model.p0, arq.optimal_policy(model.p0, c_max).delta2).n_max
            raise TruncationError(
                f"age cap n_max={trunc.n_max} is too small for budget {c_max}: meeting it needs "
                f"the policy that idles forever at the cap; use about n_max={needed}"
            )
        return EtaSearchResult(
            eta, (lo.eta, hi.eta), tuple(trace), hit, (lo.out, lo.res), (hi.out, hi.res)
        )

    lo = probe(0.0, "expand")
    if lo.cost < c_max - _HIT_TOL:
        raise EtaSearchError(
            f"budget {c_max} does not bind: the uncharged policy transmits at rate {lo.cost}",
            tuple(trace),
        )
    hi = lo
    for k in range(_MAX_STEPS):
        if meets(hi):
            return result(hi.eta, hi, hi, True)
        if hi.cost < c_max:
            break
        lo, hi = hi, probe(2.0**k / c_max**2, "expand")
    else:
        raise EtaSearchError("could not bracket the budget", tuple(trace))

    for _ in range(_MAX_STEPS):
        x = (hi.aoi - lo.aoi) / (lo.cost - hi.cost)
        mid = probe(x, "walk")
        if meets(mid):
            return result(x, mid, mid, True)
        if (mid.aoi, mid.cost) in ((lo.aoi, lo.cost), (hi.aoi, hi.cost)):
            return result(x, lo, hi, False)  # an endpoint is optimal at x: its line meets g*(x)
        if mid.cost > c_max:
            lo = mid
        else:
            hi = mid
    raise EtaSearchError("envelope walk did not reach an adjacent pair", tuple(trace))


def _single_state_mix(
    policy_low: DeterministicTable,
    policy_high: DeterministicTable,
    res_low: EvalResult,
    res_high: EvalResult,
    diff_state: State,
    c_max: float,
) -> RandomizedTable:
    """Randomize the one differing state so the exact cost equals the budget.

    The tables agree everywhere else, so choosing the action anew at each
    visit to ``diff_state`` is a renewal mixture with that state as the
    regeneration point: the cost is linear-fractional in the weight, with
    cycle lengths ``1 / pi(diff_state)`` of the two pure policies.  The
    budget lies between their costs, as ``mixture_weight`` has checked.
    """
    w = renewal_mixture_weight(res_low, res_high, c_max, diff_state)
    table = policy_high.table.copy()
    table[diff_state] = w * policy_low.table[diff_state] + (1.0 - w) * table[diff_state]
    return RandomizedTable(table, policy_high.trunc)


def solve_constrained(
    model: ChannelModel,
    trunc: Truncation,
    c_max: float,
) -> ConstrainedSolution:
    """Budget-optimal policy: multiplier search plus a one-knob randomization."""
    search = search_eta_star(model, trunc, c_max)
    eta_star = search.eta_star
    (out_low, res_low), (out_high, res_high) = search.low, search.high
    policy_low, policy_high = out_low.policy, out_high.policy

    if search.exact_hit:  # low and high are the same probe
        mu, mixed, achieved = 1.0, policy_low, res_low
    else:
        mu = mixture_weight(res_low.avg_cost, res_high.avg_cost, c_max)
        # Without an exact hit the endpoints' costs differ, so their tables do too.
        diff = table_difference(policy_low, policy_high)
        if len(diff) == 1:  # another chain: evaluate it
            mixed: Policy = _single_state_mix(policy_low, policy_high, res_low, res_high, diff[0], c_max)
            achieved = evaluate_exact(mixed, model, trunc, space=out_low.space)
        else:  # the pair's own chains: combine their evaluations
            w = renewal_mixture_weight(res_low, res_high, c_max)
            mixed, achieved = RenewalMixture(policy_low, policy_high, w), _renewal_mix(res_low, res_high, w)
    return ConstrainedSolution(
        eta_star,
        policy_low,
        policy_high,
        mu,
        mixed,
        achieved.avg_cost,
        achieved.avg_aoi,
        achieved.tail_mass,
        search,
    )
