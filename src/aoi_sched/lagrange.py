"""Multiplier search and construction of the budget-optimal randomized policy.

For a fixed deterministic policy the relaxed average cost ``J + eta * C``
(average age plus charged transmission rate) is linear in the charge ``eta``,
and the optimal gain is the lower envelope of those lines.  The budget-optimal
policy randomizes between the two deterministic policies that are adjacent on
that envelope at the critical charge ``eta*`` (Beutler & Ross 1985; Altman,
*Constrained Markov Decision Processes*, 1999).  The search walks the
envelope to that pair.  It starts at the paper's ARQ multiplier for the
budget, ``arq.optimal_charge(p0, c_max)``, and doubles the charge while the
probe's cost is over the budget, or halves it while the cost is under, until
a probe lands on the other side (phase ``"expand"``).  It then probes where
the two endpoint lines cross, ``x = (J_hi - J_lo) / (C_lo - C_hi)``, and
replaces the endpoint on the probe's side of the budget (phase ``"walk"``).
When the probe at ``x`` returns an endpoint's ``(J, C)`` bit for bit, that
endpoint is optimal at ``x`` (to the solver's tie bound), so no policy lies
below the pair and ``eta* = x``.  Every ``J`` and ``C`` is the solver's
exact evaluation of the probe's policy (``SolverOutput.evaluation``), not its
gain, so one table gives one ``(J, C)`` in every probe.  A probe whose cost
meets the budget exactly ends the search at once, so the full budget
``c_max = 1``, whose ARQ multiplier is 0 and which the uncharged policy meets
by sending in every slot, ends at ``eta* = 0`` after one probe.
A greedy policy that idles forever once the age reaches the cap is the line
``n_max + eta * 0``; if the budget needs it, the cap is too small and
``TruncationError`` says which cap to use.  Each trace row also records the
probe's policy evaluations and solver residual.  The first probe's solve
builds the ``StateSpace`` of ``(model, trunc)`` that every later probe and the
final mix reuse.
Each probe's solve starts from the previous probe's output (``rvi.solve``'s
``start``), whose values are exact at the new charge once shifted along
the charge, unless the paper's ARQ threshold rule at the new charge has a
lower gain, in which case it starts from that rule's values; a probe whose
previous policy is still optimal evaluates no policy (0 in its trace row).

With one budget constraint an optimal policy needs to randomize in one state
only (Beutler & Ross 1985; Ross 1989), and the answer is such a table.  The
search's pair is narrowed to two tables one state apart.  The low table on
its chain's states, with the high table elsewhere, has the low table's ``J``
and ``C``.  The states where the pair differs and both chains go are
switched to the high action one by one; after the last switch the table has
the high table's ``J`` and ``C``, so only a table between the two ends is
evaluated.  The first switch whose cost meets the budget gives the two
tables.  They agree outside the switched state ``s``, so a visit to ``s``
that takes one table's action runs that table's excursion back to ``s``:
randomizing ``s`` is regenerative at ``s``, and its ``(C, J)`` lies on the
chord between the two tables' points.  That chord is the ``eta*`` line only
if both tables are optimal there.  A solved table's action in a state its
chain all but never visits (masses down to 1e-44 occur) is not held to the
line by its own ``J`` and ``C``, so the states switch in increasing order of
the low chain's mass over the high chain's: the table whose chain visits a
state relatively more gives its action there first.

The reported mixture coefficient ``mu`` is that chord weight in cost space,
which places the achieved age on the lower convex hull of the two points.
The probability executed at ``s`` is corrected for the two chains' unequal
expected cycle lengths between visits to ``s``, so that the exact stationary
cost equals the budget; the achieved averages are ``evaluate_exact`` of the
randomized table.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import arq
from .errors import BracketingError, EtaSearchError, TruncationError
from .exact import arq_eval_truncation, evaluate_exact, renewal_mixture_weight
from .mdp import ChannelModel, Truncation
from .policies import DeterministicTable, Policy, RandomizedTable
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
    """Critical charge and the solver outputs of the two adjacent policies.

    ``low`` is over the budget and ``high`` within it; on an exact hit both
    are the probe that met the budget.  Each carries its policy's exact
    evaluation, ``SolverOutput.evaluation``.
    """

    eta_star: float
    bracket: tuple[float, float]
    trace: tuple[TraceRow, ...]
    exact_hit: bool  # a multiplier with cost == budget (within _HIT_TOL) was found
    low: SolverOutput = field(repr=False)
    high: SolverOutput = field(repr=False)


class _Probe(NamedTuple):
    eta: float
    out: SolverOutput
    aoi: float
    cost: float


@dataclass(frozen=True, eq=False)
class ConstrainedSolution:
    """Budget-optimal policy, ``mixed``: a table randomized in one state.

    Off an exact hit, ``policy_low`` (over the budget) and ``policy_high``
    (within it) are deterministic tables that differ in that one state,
    which both visit, and ``mu`` is the chord weight on ``policy_low``; on
    a hit all three are the hit probe's table and ``mu`` is 1.  The
    achieved averages are ``evaluate_exact`` of ``mixed``; ``tail_mass`` is
    its stationary mass at the age cap (``EvalResult.tail_mass``), reported,
    not checked.
    """

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

    The first probe is at the paper's ARQ multiplier, which is the critical
    charge of ARQ and lies within a few doublings or halvings of it on HARQ.
    Halving brackets every budget: the uncharged policy minimises the age
    alone, so it sends in every slot, at a rate no budget exceeds.  Raises
    ``TruncationError`` when the budget needs the policy that idles forever
    at the age cap, and ``EtaSearchError`` only when a phase runs out of
    steps.
    """
    if not 0.0 < c_max <= 1.0:
        raise ValueError(f"budget must lie in (0, 1], got {c_max}")
    trace: list[TraceRow] = []
    prev: _Probe | None = None

    def probe(eta: float, phase: str) -> _Probe:
        nonlocal prev
        out = solve(model, trunc, eta, start=None if prev is None else prev.out)
        res = out.evaluation
        # Without transmissions the age climbs to the cap and stays there.
        aoi, cost = (float(trunc.n_max), 0.0) if res is None else (res.avg_aoi, res.avg_cost)
        prev = _Probe(eta, out, aoi, cost)
        trace.append(TraceRow(len(trace), eta, cost, aoi, out.gain, phase, out.iterations, out.residual))
        return prev

    def meets(p: _Probe) -> bool:
        return p.out.evaluation is not None and abs(p.cost - c_max) <= _HIT_TOL

    def result(eta: float, lo: _Probe, hi: _Probe, hit: bool) -> EtaSearchResult:
        if hi.out.evaluation is None:
            needed = arq_eval_truncation(model.p0, arq.optimal_policy(model.p0, c_max).delta2).n_max
            raise TruncationError(
                f"age cap n_max={trunc.n_max} is too small for budget {c_max}: meeting it needs "
                f"the policy that idles forever at the cap; use about n_max={needed}"
            )
        return EtaSearchResult(eta, (lo.eta, hi.eta), tuple(trace), hit, lo.out, hi.out)

    p = probe(arq.optimal_charge(model.p0, c_max), "expand")
    over = p.cost > c_max
    for _ in range(_MAX_STEPS):
        if meets(p):
            return result(p.eta, p, p, True)
        if (p.cost > c_max) != over:
            break
        last, p = p, probe(2.0 * p.eta if over else p.eta / 2.0, "expand")
    else:
        raise EtaSearchError("could not bracket the budget", tuple(trace))
    lo, hi = (last, p) if over else (p, last)

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


def solve_constrained(
    model: ChannelModel,
    trunc: Truncation,
    c_max: float,
) -> ConstrainedSolution:
    """Budget-optimal policy: multiplier search, then one randomized state.

    Off an exact hit, the search's pair narrows to two tables one state
    apart.  The walk starts from the low table on its chain's states and the
    high one elsewhere, and switches the states where the pair differs and
    both chains go to the high action, in increasing order of the ratio of
    the low chain's mass to the high chain's, until the cost meets the
    budget.  Its start has the low table's evaluation and its end the
    high one's, so only a table between them is evaluated.  The last
    switched state, which both of the last two tables' chains visit, is
    randomized so that the exact cost equals the budget.
    """
    search = search_eta_star(model, trunc, c_max)
    lo, hi = search.low, search.high
    low, res_low = lo.policy, lo.evaluation
    if search.exact_hit:  # low and high are the same probe
        high, mu, mixed, achieved = low, 1.0, low, res_low
    else:
        pi_low, pi_high = lo.evaluation.stationary, hi.evaluation.stationary
        switch = (low.table != hi.policy.table).any(axis=2) & (pi_low > 0.0) & (pi_high > 0.0)
        walk = np.argwhere(switch)[np.argsort(pi_low[switch] / pi_high[switch], kind="stable")]
        table = np.where((pi_low > 0.0)[..., None], low.table, hi.policy.table)
        for k, state in enumerate(map(tuple, walk), 1):
            before, table = table, table.copy()
            table[state] = hi.policy.table[state]
            high = DeterministicTable(table, low.trunc)
            res_high = hi.evaluation if k == len(walk) else evaluate_exact(high, model, trunc, space=lo.space)
            if res_high.avg_cost <= c_max:
                break
            res_low = res_high
        low = DeterministicTable(before, low.trunc)
        mu = mixture_weight(res_low.avg_cost, res_high.avg_cost, c_max)
        w = renewal_mixture_weight(res_low, res_high, c_max, state)
        rows = table.copy()
        rows[state] = w * before[state] + (1.0 - w) * table[state]
        mixed = RandomizedTable(rows, low.trunc)
        achieved = evaluate_exact(mixed, model, trunc, space=lo.space)
    return ConstrainedSolution(
        search.eta_star, low, high, mu, mixed, achieved.avg_cost, achieved.avg_aoi, achieved.tail_mass, search
    )
