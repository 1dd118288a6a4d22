import pytest

from aoi_sched import arq
from aoi_sched.errors import ConvergenceError
from aoi_sched.exact import evaluate_exact
from aoi_sched.mdp import Action, ChannelModel, State, Truncation
from aoi_sched.rvi import SolverConfig, bellman_residual, greedy_policy, solve

ARQ_HALF = ChannelModel(0.5, 1.0, 0)
ARQ_TRUNC = Truncation(200, 0)


def threshold_of(policy):
    tx = sorted(s.delta for s, a in policy.actions.items() if a != Action.IDLE)
    return tx[0] if tx else None


class TestSolveArq:
    def test_threshold_structure_and_candidates(self):
        out = solve(ARQ_HALF, ARQ_TRUNC, 10.0)
        thr = threshold_of(out.policy)
        assert thr in arq.threshold_candidates(0.5, 10.0)
        assert all(
            (a != Action.IDLE) == (s.delta >= thr) for s, a in out.policy.actions.items()
        )

    def test_gain_matches_analytic_lagrangian(self):
        # eta = 10 at p = 0.5 is the exact tie between thresholds 5 and 6,
        # both with Lagrangian cost 7.
        out = solve(ARQ_HALF, ARQ_TRUNC, 10.0)
        assert out.gain == pytest.approx(7.0, abs=1e-6)
        best = min(arq.lagrangian_cost(0.5, d, 10.0) for d in range(1, 100))
        assert out.gain == pytest.approx(best, abs=1e-6)

    def test_h_nondecreasing_in_age(self):
        out = solve(ARQ_HALF, ARQ_TRUNC, 10.0)
        hs = [out.h[State(d, 0)] for d in range(1, ARQ_TRUNC.n_max + 1)]
        assert all(b >= a - 1e-9 for a, b in zip(hs, hs[1:]))

    def test_reference_state_anchored(self):
        out = solve(ARQ_HALF, ARQ_TRUNC, 10.0)
        assert out.h[State(1, 0)] == 0.0


class TestSolveHarq:
    def test_paper_operating_point(self):
        # At charge 5 the greedy policy spends close to 0.4 of the slots.
        model = ChannelModel(0.3, 0.5, 9)
        trunc = Truncation(120, 9)
        out = solve(model, trunc, 5.0)
        res = evaluate_exact(out.policy, model, trunc)
        assert res.avg_cost == pytest.approx(0.4, abs=0.05)

    def test_residual_bound(self):
        model = ChannelModel(0.3, 0.5, 9)
        trunc = Truncation(120, 9)
        out = solve(model, trunc, 5.0)
        assert out.residual <= 1e-8
        assert bellman_residual(out, model, trunc, 5.0) <= 2e-8

    def test_unsolved_values_violate_optimality(self):
        model = ChannelModel(0.3, 0.5, 9)
        trunc = Truncation(60, 9)
        out = solve(model, trunc, 5.0, SolverConfig(epsilon=1e300))
        assert out.iterations == 1
        assert bellman_residual(out, model, trunc, 5.0) > 1e-3

    def test_residual_rejects_output_of_another_truncation(self):
        # Truncation(3, 0) and Truncation(2, 1) both hold three states.
        model = ChannelModel(0.3, 0.5, 9)
        out = solve(model, Truncation(3, 0), 5.0)
        with pytest.raises(ValueError, match="solved on"):
            bellman_residual(out, model, Truncation(2, 1), 5.0)

    def test_policy_is_greedy_on_q(self):
        model = ChannelModel(0.3, 0.5, 9)
        trunc = Truncation(60, 9)
        out = solve(model, trunc, 5.0)
        assert greedy_policy(out.q) == dict(out.policy.actions)


class TestUnconstrainedMode:
    def test_never_idles(self):
        model = ChannelModel(0.5, 0.5, 3)
        trunc = Truncation(80, 3)
        out = solve(model, trunc, 0.0, unconstrained=True)
        assert all(a != Action.IDLE for a in out.policy.actions.values())

    def test_residual_with_restricted_actions(self):
        model = ChannelModel(0.5, 0.5, 3)
        trunc = Truncation(80, 3)
        out = solve(model, trunc, 0.0, unconstrained=True)
        assert bellman_residual(out, model, trunc, 0.0, unconstrained=True) <= 2e-8

    def test_beats_always_new(self):
        # Retransmissions decode more reliably, so the budget-free optimum is
        # at least as fresh as always sending fresh updates.
        model = ChannelModel(0.5, 0.5, 3)
        trunc = Truncation(80, 3)
        out = solve(model, trunc, 0.0, unconstrained=True)
        res = evaluate_exact(out.policy, model, trunc)
        assert res.avg_aoi <= 1.0 / (1.0 - 0.5) + 1e-9


class TestGreedyPolicy:
    def test_strict_argmin(self):
        q = {
            (State(5, 0), Action.IDLE): 10.0,
            (State(5, 0), Action.NEW_UPDATE): 9.0,
        }
        assert greedy_policy(q)[State(5, 0)] is Action.NEW_UPDATE

    def test_ties_break_toward_idle(self):
        q = {
            (State(5, 1), Action.IDLE): 3.0,
            (State(5, 1), Action.NEW_UPDATE): 3.0,
            (State(5, 1), Action.RETRANSMIT): 3.0,
        }
        assert greedy_policy(q)[State(5, 1)] is Action.IDLE


class TestMonotonicityInEta:
    def test_cost_down_aoi_up_gain_up(self):
        model = ChannelModel(0.5, 0.5, 3)
        trunc = Truncation(100, 3)
        etas = [0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0]
        costs, aois, gains = [], [], []
        h = None
        for eta in etas:
            out = solve(model, trunc, eta, h0=h)
            h = out.h_array
            res = evaluate_exact(out.policy, model, trunc)
            costs.append(res.avg_cost)
            aois.append(res.avg_aoi)
            gains.append(out.gain)
        assert all(a >= b - 1e-9 for a, b in zip(costs, costs[1:]))
        assert all(a <= b + 1e-9 for a, b in zip(aois, aois[1:]))
        assert all(a <= b + 1e-9 for a, b in zip(gains, gains[1:]))


class TestDeterminismAndErrors:
    def test_bit_identical_reruns(self):
        model = ChannelModel(0.3, 0.5, 5)
        trunc = Truncation(60, 5)
        a = solve(model, trunc, 3.0)
        b = solve(model, trunc, 3.0)
        assert a.h == b.h
        assert a.q == b.q
        assert a.gain == b.gain
        assert a.policy.actions == b.policy.actions

    def test_iteration_limit_raises(self):
        model = ChannelModel(0.3, 0.5, 5)
        trunc = Truncation(60, 5)
        with pytest.raises(ConvergenceError) as err:
            solve(model, trunc, 3.0, SolverConfig(epsilon=1e-12, max_iters=3))
        assert err.value.residual > 0.0

    def test_warm_start_reaches_same_fixed_point(self):
        model = ChannelModel(0.3, 0.5, 5)
        trunc = Truncation(60, 5)
        cold = solve(model, trunc, 3.0)
        warm = solve(model, trunc, 3.0, h0=solve(model, trunc, 2.5).h_array)
        for s in cold.h:
            assert warm.h[s] == pytest.approx(cold.h[s], abs=5e-8)
        assert warm.policy.actions == cold.policy.actions
