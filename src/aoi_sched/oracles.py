"""Cross-module checks shared by ``aoi-sched verify`` and the acceptance suite.

Each check takes its grid and returns the worst discrepancy it measured; the
callers hold the grids and the tolerances.  Collaborators are called through
their modules, so a test that breaks one of them sees the check fail.
"""

from __future__ import annotations

import math

from . import arq, exact, lagrange, rvi, simulate
from .mdp import Action, ChannelModel, Truncation
from .policies import PeriodicPolicy, ThresholdPolicy


def arq_closed_forms(ps, thresholds) -> float:
    """Largest relative error of the ARQ closed-form cost and age against exact evaluation."""
    worst = 0.0
    for p in ps:
        for delta in thresholds:
            res = exact.evaluate_exact(ThresholdPolicy(delta), ChannelModel(p, 1.0, 0), exact.arq_eval_truncation(p, delta))
            for got, ref in ((res.avg_cost, arq.cost_of_threshold(p, delta)), (res.avg_aoi, arq.aoi_of_threshold(p, delta))):
                worst = max(worst, abs(got - ref) / ref)
    return worst


def lagrangian_identity(ps, thresholds, etas) -> float:
    """Largest relative gap between ``lagrangian_cost`` and ``J + eta * C``."""
    worst = 0.0
    for p in ps:
        for delta in thresholds:
            for eta in etas:
                rhs = arq.aoi_of_threshold(p, delta) + eta * arq.cost_of_threshold(p, delta)
                worst = max(worst, abs(arq.lagrangian_cost(p, delta, eta) - rhs) / rhs)
    return worst


def threshold_candidates_excess(ps, etas, upper: int) -> float:
    """Largest relative excess of the Lagrangian cost at the better closed-form
    candidate over its brute-force minimum on ``1..upper``."""
    worst = 0.0
    for p in ps:
        for eta in etas:
            best = min(arq.lagrangian_cost(p, delta, eta) for delta in range(1, upper + 1))
            cand = min(arq.lagrangian_cost(p, delta, eta) for delta in arq.threshold_candidates(p, eta))
            worst = max(worst, (cand - best) / best)
    return worst


def arq_solver_residual(points, n_max: int) -> float:
    """Largest Bellman residual of the solver on ARQ at the ``(p, eta)`` points,
    or ``inf`` where its policy is not a threshold rule at a closed-form candidate."""
    worst = 0.0
    for p, eta in points:
        model, trunc = ChannelModel(p, 1.0, 0), Truncation(n_max, 0)
        out = rvi.solve(model, trunc, eta)
        age = out.space.age
        transmits = out.policy.table[age, out.space.r].argmax(axis=1) != Action.IDLE
        thr = int(age[transmits].min()) if transmits.any() else None
        if thr not in arq.threshold_candidates(p, eta) or (transmits != (age >= thr)).any():
            return math.inf
        worst = max(worst, rvi.bellman_residual(out))
    return worst


def budget_gap(points) -> float:
    """Largest ``|cost - c_max|`` of ``solve_constrained`` at the ``(p0, lam, r_max, c_max, n_max)`` points."""
    worst = 0.0
    for p0, lam, r_max, c_max, n_max in points:
        sol = lagrange.solve_constrained(ChannelModel(p0, lam, r_max), Truncation(n_max, r_max), c_max)
        worst = max(worst, abs(sol.achieved_cost - c_max))
    return worst


def duality_gap(points) -> float:
    """Largest ``duality_certificate`` of ``solve_constrained`` at the ``(p0, lam, r_max, c_max, n_max)`` points."""
    worst = 0.0
    for p0, lam, r_max, c_max, n_max in points:
        sol = lagrange.solve_constrained(ChannelModel(p0, lam, r_max), Truncation(n_max, r_max), c_max)
        worst = max(worst, duality_certificate(sol, c_max))
    return worst


def duality_certificate(sol: lagrange.ConstrainedSolution, c_max: float) -> float:
    """Lagrangian duality gap of the answer ``sol`` at budget ``c_max``, relative to ``max(1, achieved age)``.

    The gain ``g`` of the search's probe at ``eta*``, on which every search ends, gives the lower bound
    ``g - eta* * c_max`` on the optimal age at the budget (weak duality; Altman 1999), so the achieved
    age less that bound is 0 for an optimal answer, up to rounding on the scale of the answer itself.
    """
    gain = next(row.gain for row in reversed(sol.search.trace) if row.eta == sol.eta_star)
    return (sol.achieved_aoi - (gain - sol.eta_star * c_max)) / max(1.0, sol.achieved_aoi)


def simulation_excess(cases, horizon: int, reps: int, seed: int, slack: float) -> float:
    """Largest gap, in standard errors, between the simulated and the exact age
    and cost of the ``(policy, model, trunc)`` cases, less ``slack * max(1, |exact|)``.

    A periodic schedule fixes its transmissions, so its simulated cost has no
    sampling error; it is compared with its exact value over the horizon.
    """
    worst = 0.0
    for policy, model, trunc in cases:
        res = exact.evaluate_exact(policy, model, trunc)
        stats = simulate.evaluate_simulated(policy, model, horizon, reps, seed)
        cost = res.avg_cost
        if isinstance(policy, PeriodicPolicy):
            cost = ((horizon - 1) // policy.period + 1) / horizon  # transmissions in slots 1, k + 1, ...
        for sim, ref, var in ((stats.mean_aoi, res.avg_aoi, stats.var_aoi), (stats.mean_cost, cost, stats.var_cost)):
            excess = abs(sim - ref) - slack * max(1.0, abs(ref))
            if excess > 0.0:
                se = math.sqrt(var / reps)
                worst = max(worst, excess / se if se > 0.0 else math.inf)
    return worst
