"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
report.  Tolerances are pinned here and nowhere else.  The module keeps a
cache of budgeted solutions because several criteria share operating points;
the whole suite is deterministic.
"""

from contextlib import contextmanager

import numpy as np

from aoi_sched import arq, oracles
from aoi_sched.exact import arq_eval_truncation, evaluate_exact
from aoi_sched.lagrange import solve_constrained
from aoi_sched.mdp import Action, ChannelModel, Truncation, enumerate_states
from aoi_sched.policies import (
    PeriodicPolicy,
    RandomizedTable,
    RenewalMixture,
    ThresholdPolicy,
)
from aoi_sched.rvi import solve
from aoi_sched.sarsa import LearnerConfig, train
from aoi_sched.simulate import baseline_periodic, run

_SOLUTIONS: dict = {}
P_GRID = [round(0.1 * k, 10) for k in range(1, 10)]


def constrained(p0, lam, rmax, cmax, nmax):
    key = (p0, lam, rmax, cmax, nmax)
    if key not in _SOLUTIONS:
        model = ChannelModel(p0, lam, rmax)
        _SOLUTIONS[key] = solve_constrained(model, Truncation(nmax, rmax), cmax)
    return _SOLUTIONS[key]


@contextmanager
def report(num, name):
    try:
        yield
    except BaseException:
        print(f"\nACCEPTANCE {num:02d} {name}: FAIL")
        raise
    print(f"\nACCEPTANCE {num:02d} {name}: PASS")


def lower_hull_interp(points, x):
    """Independent oracle: lower convex hull of (cost, age) points, evaluated at x."""
    pts = sorted(points)
    hull = []
    for p in pts:
        while len(hull) >= 2:
            (x1, y1), (x2, y2) = hull[-2], hull[-1]
            if (x2 - x1) * (p[1] - y1) - (p[0] - x1) * (y2 - y1) <= 0:
                hull.pop()
            else:
                break
        hull.append(p)
    xs = [p[0] for p in hull]
    ys = [p[1] for p in hull]
    return float(np.interp(x, xs, ys))


def test_criterion_01_arq_analytic_oracle_equivalence():
    with report(1, "ARQ analytic oracle equivalence"):
        assert oracles.arq_closed_forms(P_GRID, range(1, 51)) <= 1e-8


def test_criterion_02_threshold_candidates_brute_force():
    with report(2, "closed-form thresholds match brute force"):
        etas = [0.5, 1.0, 2.0, 3.5, 5.0, 7.0, 10.0, 14.0, 19.0, 26.0, 35.0, 50.0]
        assert oracles.threshold_candidates_excess(P_GRID, etas, 1000) <= 1e-12


def test_criterion_03_rvi_analytic_cross_validation():
    with report(3, "RVI threshold matches closed form at n_max=500"):
        points = [(0.2, 2.0), (0.3, 5.0), (0.5, 10.0), (0.7, 25.0)]
        assert oracles.arq_solver_residual(points, 500) <= 2e-8


def test_criterion_04_constraint_equality():
    with report(4, "budget met with equality by the mixed policy"):
        cases = [
            (0.3, 0.5, 9, 0.4, 120),   # benchmark operating point A
            (0.4, 0.5, 9, 0.2, 160),   # benchmark operating point B
            (0.5, 0.5, 3, 0.4, 120),
            (0.5, 0.5, 3, 0.35, 120),
            (0.5, 1.0, 0, 0.35, 200),
            (0.7, 0.3, 5, 0.25, 160),
        ]
        for p0, lam, rmax, cmax, nmax in cases:
            sol = constrained(p0, lam, rmax, cmax, nmax)
            assert abs(sol.achieved_cost - cmax) <= 1e-6, (p0, lam, rmax, cmax)


def test_criterion_05_eta_star_reproduction():
    with report(5, "multiplier search lands at the known operating points"):
        sol_a = constrained(0.3, 0.5, 9, 0.4, 120)
        assert 4.0 <= sol_a.eta_star <= 6.0, sol_a.eta_star
        sol_b = constrained(0.4, 0.5, 9, 0.2, 160)
        assert 17.0 <= sol_b.eta_star <= 21.0, sol_b.eta_star


def test_criterion_06_convex_hull_and_harq_dominance():
    with report(6, "randomized rule sits on the lower convex hull; combining helps"):
        p = 0.5
        grid = [round(0.05 * k, 10) for k in range(1, 21)]
        hull_points = [
            (arq.cost_of_threshold(p, d), arq.aoi_of_threshold(p, d))
            for d in range(1, 400)
        ]
        for cmax in grid:
            rt = arq.optimal_policy(p, cmax)
            trunc = arq_eval_truncation(p, rt.delta2)
            res = evaluate_exact(rt.policy(), ChannelModel(p, 1.0, 0), trunc)
            interp = (
                rt.mu_star * arq.aoi_of_threshold(p, rt.delta1)
                + (1 - rt.mu_star) * arq.aoi_of_threshold(p, rt.delta2)
            )
            hull = lower_hull_interp(hull_points, cmax)
            assert abs(res.avg_aoi - interp) <= 1e-8 * interp
            assert abs(res.avg_aoi - hull) <= 1e-8 * hull
            assert abs(res.avg_cost - cmax) <= 1e-9

            harq_sol = constrained(0.5, 0.5, 3, cmax, 120)
            assert harq_sol.achieved_aoi <= res.avg_aoi + 1e-9, cmax


def test_criterion_07_ordering_properties():
    with report(7, "ordering in r_max, p0, lam; baseline dominated"):
        # more combining attempts never hurt
        aois = [
            constrained(0.5, 0.5, rmax, 0.3, 120).achieved_aoi
            for rmax in (0, 1, 2, 3, 6)
        ]
        assert all(a >= b - 1e-6 for a, b in zip(aois, aois[1:])), aois

        # noisier first attempt never helps
        aois = [
            constrained(p0, 0.5, 3, 0.3, 120).achieved_aoi
            for p0 in (0.3, 0.5, 0.7)
        ]
        assert all(a <= b + 1e-6 for a, b in zip(aois, aois[1:])), aois

        # slower decoding improvement never helps
        aois = [
            constrained(0.5, lam, 3, 0.3, 120).achieved_aoi
            for lam in (0.3, 0.6, 0.9)
        ]
        assert all(a <= b + 1e-6 for a, b in zip(aois, aois[1:])), aois

        # the no-feedback periodic baseline is dominated everywhere
        model = ChannelModel(0.5, 0.5, 3)
        for cmax in [round(0.1 * k, 10) for k in range(1, 11)]:
            base = evaluate_exact(baseline_periodic(cmax), model, Truncation(120, 3))
            opt = constrained(0.5, 0.5, 3, cmax, 120)
            assert base.avg_aoi >= opt.achieved_aoi - 1e-9, cmax


def test_criterion_08_monotone_in_charge():
    with report(8, "cost non-increasing and age non-decreasing in the charge"):
        model = ChannelModel(0.5, 0.5, 3)
        trunc = Truncation(120, 3)
        costs, aois = [], []
        h = None
        for eta in (0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0):
            out = solve(model, trunc, eta, h0=h)
            h = out.h_array
            res = evaluate_exact(out.policy, model, trunc)
            costs.append(res.avg_cost)
            aois.append(res.avg_aoi)
        assert all(a >= b - 1e-9 for a, b in zip(costs, costs[1:])), costs
        assert all(a <= b + 1e-9 for a, b in zip(aois, aois[1:])), aois


def test_criterion_09_learner_convergence():
    with report(9, "learner reaches the planned value within 15 percent"):
        model = ChannelModel(0.5, 0.5, 3)
        trunc = Truncation(100, 3)
        ref = constrained(0.5, 0.5, 3, 0.4, 120).achieved_aoi
        finals, at_1k = [], []
        for rep in range(100):
            cfg = LearnerConfig(trunc=trunc, c_max=0.4, horizon=10_000, seed=rep)
            _, tl = train(model, cfg)
            finals.append(tl.running_aoi[-1])
            at_1k.append(tl.running_aoi[999])
        mean_final = float(np.mean(finals))
        mean_1k = float(np.mean(at_1k))
        assert abs(mean_final - ref) <= 0.15 * ref, (mean_final, ref)
        assert abs(mean_final - ref) < abs(mean_1k - ref), (mean_final, mean_1k, ref)


def test_criterion_10_simulation_matches_exact_evaluation():
    with report(10, "simulation agrees with exact evaluation for every policy kind"):
        model = ChannelModel(0.5, 0.5, 3)
        trunc = Truncation(120, 3)
        arq_model = ChannelModel(0.5, 1.0, 0)
        arq_trunc = Truncation(200, 0)
        rvi_policy = solve(model, trunc, 5.0).policy

        w = 2.0 / 7.0
        probs = {
            s: (
                {Action.NEW_UPDATE: w, Action.IDLE: 1.0 - w}
                if s.delta == 4
                else {Action.NEW_UPDATE: 1.0}
                if s.delta > 4
                else {Action.IDLE: 1.0}
            )
            for s in enumerate_states(arq_trunc)
        }
        cases = [  # deterministic table, randomized table, randomized threshold, renewal mixture, periodic
            (rvi_policy, model, trunc),
            (RandomizedTable(probs, arq_trunc), arq_model, arq_trunc),
            (arq.optimal_policy(0.5, 0.35).policy(), arq_model, arq_trunc),
            (RenewalMixture(ThresholdPolicy(4), ThresholdPolicy(5), w), arq_model, arq_trunc),
            (PeriodicPolicy(3), model, trunc),
        ]
        worst = oracles.simulation_excess(cases, 1_000_000, 8, 2024, 2e-5)
        assert worst <= 3.0, worst


def test_criterion_11_no_retransmit_after_idle():
    with report(11, "no retransmission ever follows an idle slot"):
        model = ChannelModel(0.5, 0.5, 3)
        trunc = Truncation(120, 3)
        policies = [
            solve(model, trunc, 2.0).policy,
            solve(model, trunc, 5.0).policy,
            constrained(0.5, 0.5, 3, 0.4, 120).mixed,
            constrained(0.5, 0.5, 3, 0.2, 120).mixed,
        ]
        for k, policy in enumerate(policies):
            _, trace = run(policy, model, 100_000, seed=31 + k, collect_trace=True)
            violations = np.count_nonzero((trace.action[:-1] == Action.IDLE) & (trace.action[1:] == Action.RETRANSMIT))
            assert violations == 0
