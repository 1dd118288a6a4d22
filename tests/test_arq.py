import math

import pytest
from hypothesis import given, settings, strategies as st

from aoi_sched import arq, oracles
from aoi_sched import exact
from aoi_sched.exact import arq_eval_truncation, evaluate_exact
from aoi_sched.mdp import ChannelModel, Truncation


def brute_force_best_threshold(p, eta, upper=1000):
    """Independent oracle: exhaustive minimization of the Lagrangian cost."""
    values = {d: arq.lagrangian_cost(p, d, eta) for d in range(1, upper + 1)}
    return min(values, key=values.get), values


class TestThresholdCandidates:
    def test_mid_range(self):
        # fractional optimizer (sqrt(7.3) - 0.3) / 0.7 ~ 3.43
        assert arq.threshold_candidates(0.3, 5.0) == (3, 4)

    def test_near_zero_error(self):
        lo, hi = arq.threshold_candidates(1e-12, 0.5)
        assert (lo, hi) == (1, 1)

    def test_brute_force_agreement(self):
        best, values = brute_force_best_threshold(0.5, 10.0, upper=100)
        lo, hi = arq.threshold_candidates(0.5, 10.0)
        assert min(values[lo], values[hi]) <= values[best] + 1e-12

    @pytest.mark.parametrize("p", [0.1, 0.3, 0.5, 0.7, 0.9])
    @pytest.mark.parametrize("eta", [0.5, 2.0, 7.0, 19.0, 50.0])
    def test_candidates_attain_minimum_on_grid(self, p, eta):
        assert oracles.threshold_candidates_excess([p], [eta], 1000) <= 1e-12

    @pytest.mark.parametrize("p", [0.0, 0.1, 0.5, 0.9, 0.99])
    def test_no_charge_sends_in_every_slot(self, p):
        # (sqrt(p) - p) / (1 - p) < 1 clamps to threshold 1.
        assert arq.optimal_fractional_threshold(p, 0.0) < 1.0
        assert arq.threshold_candidates(p, 0.0) == (1, 1)
        assert oracles.threshold_candidates_excess([p], [0.0], 1000) <= 1e-12

    def test_a_negative_charge_raises(self):
        with pytest.raises(ValueError, match="eta must be non-negative"):
            arq.threshold_candidates(0.5, -1e-9)


class TestCostOfThreshold:
    def test_known_value(self):
        assert arq.cost_of_threshold(0.5, 4) == pytest.approx(0.4, abs=1e-15)

    def test_threshold_one_transmits_every_slot(self):
        for p in (0.1, 0.5, 0.9):
            assert arq.cost_of_threshold(p, 1) == pytest.approx(1.0, abs=1e-15)

    def test_error_free_is_periodic(self):
        assert arq.cost_of_threshold(0.0, 5) == pytest.approx(0.2, abs=1e-15)

    def test_strictly_decreasing_in_threshold(self):
        costs = [arq.cost_of_threshold(0.3, d) for d in range(1, 60)]
        assert all(a > b for a, b in zip(costs, costs[1:]))


class TestAoiOfThreshold:
    def test_error_free_every_slot(self):
        assert arq.aoi_of_threshold(0.0, 1) == pytest.approx(1.0, abs=1e-15)

    def test_known_value(self):
        # ((2.5)^2 + 0.5) / (2 * 0.5 * 2.5) + 0.5 = 2.7 + 0.5
        assert arq.aoi_of_threshold(0.5, 4) == pytest.approx(3.2, abs=1e-12)

    def test_threshold_one_half_error(self):
        assert arq.aoi_of_threshold(0.5, 1) == pytest.approx(2.0, abs=1e-12)

    def test_chain_cross_check(self):
        res = evaluate_exact(
            arq.RandomizedThreshold(0.5, 0.4, 4.0, 4, 4, 1.0, 1.0).policy(),
            ChannelModel(0.5, 1.0, 0),
            Truncation(200, 0),
        )
        assert res.avg_aoi == pytest.approx(3.2, rel=1e-10)

    def test_convex_in_cost(self):
        # Second differences of age as a function of cost along real-valued
        # thresholds stay non-negative.
        p = 0.4

        def j_of_c(c):
            return 1.0 / (2 * (1 - p) * c) + 0.5 + p * c / (2 * (1 - p))

        cs = [0.05 + 0.001 * k for k in range(900)]
        js = [j_of_c(c) for c in cs]
        second = [js[i - 1] - 2 * js[i] + js[i + 1] for i in range(1, len(js) - 1)]
        assert min(second) >= -1e-12


class TestLagrangianCost:
    def test_eta_zero_is_pure_aoi(self):
        assert arq.lagrangian_cost(0.5, 4, 0.0) == pytest.approx(
            arq.aoi_of_threshold(0.5, 4), rel=1e-14
        )

    def test_minimum_at_candidates(self):
        best, values = brute_force_best_threshold(0.3, 5.0, upper=100)
        assert best in arq.threshold_candidates(0.3, 5.0)

    def test_identity_value(self):
        # J + eta * C = 3.2 + 10 * 0.4
        assert arq.lagrangian_cost(0.5, 4, 10.0) == pytest.approx(7.2, rel=1e-14)

    @given(
        p=st.floats(0.01, 0.95),
        delta=st.integers(1, 200),
        eta=st.floats(0.0, 100.0),
    )
    @settings(max_examples=300)
    def test_identity_property(self, p, delta, eta):
        assert oracles.lagrangian_identity([p], [delta], [eta]) <= 1e-12


class TestStationaryProbs:
    def test_uniform_head(self):
        assert arq.stationary_probs(0.5, 2, 1) == pytest.approx(1 / 3, rel=1e-14)

    def test_error_free_tail_is_empty(self):
        assert arq.stationary_probs(0.0, 5, 6) == 0.0

    def test_sums_to_one(self):
        total = sum(arq.stationary_probs(0.5, 2, d) for d in range(1, 51))
        assert total == pytest.approx(1.0, abs=1e-12)

    @given(p=st.floats(0.0, 0.9), delta=st.integers(1, 30))
    @settings(max_examples=100)
    def test_normalization_property(self, p, delta):
        tail = 200 if p < 0.8 else 400
        total = sum(arq.stationary_probs(p, delta, d) for d in range(1, delta + tail))
        assert total == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("p", [0.0, 0.5, 0.9])
    def test_the_evaluation_cap_leaves_at_most_the_tail_bound_beyond_it(self, p):
        trunc = arq_eval_truncation(p, 4)
        beyond = 1.0 - math.fsum(arq.stationary_probs(p, 4, d) for d in range(1, trunc.n_max + 1))
        assert trunc.r_max == 0 and beyond <= exact._ARQ_TAIL_MASS


class TestOptimalPolicy:
    def test_integral_budget_is_deterministic(self):
        rt = arq.optimal_policy(0.5, 0.4)
        assert rt.delta_cmax == pytest.approx(4.0, abs=1e-12)
        assert rt.delta1 == rt.delta2 == 4
        assert rt.mu_star == 1.0
        assert rt.policy().transmit_prob == 1.0

    def test_fractional_budget(self):
        rt = arq.optimal_policy(0.5, 0.35)
        assert (rt.delta1, rt.delta2) == (4, 5)
        assert rt.mu_star == pytest.approx(0.25, abs=1e-12)
        res = evaluate_exact(rt.policy(), ChannelModel(0.5, 1.0, 0), Truncation(300, 0))
        assert res.avg_cost == pytest.approx(0.35, abs=1e-10)
        assert res.avg_aoi == pytest.approx(rt.avg_aoi, rel=1e-10)

    def test_full_budget_transmits_always(self):
        rt = arq.optimal_policy(0.5, 1.0)
        assert rt.delta_cmax == pytest.approx(1.0, abs=1e-12)
        assert rt.delta1 == 1 and rt.policy().transmit_prob == 1.0

    @given(p=st.floats(0.05, 0.9), c_max=st.floats(0.05, 1.0))
    @settings(max_examples=30, deadline=None)
    def test_exact_cost_matches_budget(self, p, c_max):
        rt = arq.optimal_policy(p, c_max)
        trunc_extra = int(math.ceil(math.log(1e-12) / math.log(p))) + 2
        trunc = Truncation(rt.delta2 + trunc_extra, 0)
        res = evaluate_exact(rt.policy(), ChannelModel(p, 1.0, 0), trunc)
        assert res.avg_cost == pytest.approx(c_max, abs=1e-9)


class TestOptimalCharge:
    @given(p=st.floats(0.0, 0.999, exclude_max=True), log_c=st.floats(math.log(0.002), 0.0))
    @settings(max_examples=300)
    def test_thresholds_m_and_m_plus_1_tie_at_the_charge(self, p, log_c):
        c_max = math.exp(log_c)
        m = math.ceil((1.0 / c_max - p) / (1.0 - p)) - 1
        eta = arq.optimal_charge(p, c_max)
        if m < 1:
            return
        tied = arq.lagrangian_cost(p, m, eta), arq.lagrangian_cost(p, m + 1, eta)
        assert tied[0] == pytest.approx(tied[1], rel=1e-12, abs=0.0)
        assert all(arq.lagrangian_cost(p, d, eta) >= min(tied) for d in arq.threshold_candidates(p, eta))

    @given(p=st.floats(0.0, 0.999, exclude_max=True))
    def test_the_full_budget_needs_no_charge(self, p):
        assert arq.optimal_charge(p, 1.0) == 0.0

    def test_known_value(self):
        # At p = 0.5 thresholds 4 and 5 tie at charge 7, and 0.35 lies between their rates.
        assert arq.optimal_charge(0.5, 0.35) == 7.0


@pytest.mark.parametrize(
    ("call", "args", "message"),
    [
        (arq.cost_of_threshold, (0.5, 0), "threshold must be at least 1, got 0"),
        (arq.stationary_probs, (0.5, 0, 1), "threshold and queried age must both be at least 1"),
        (arq.stationary_probs, (0.5, 2, 0), "threshold and queried age must both be at least 1"),
        (arq.optimal_policy, (0.5, 0.0), r"budget must lie in \(0, 1\], got 0.0"),
        (arq.optimal_policy, (0.5, 1.5), r"budget must lie in \(0, 1\], got 1.5"),
    ],
    ids=["threshold-0", "stationary-threshold-0", "stationary-age-0", "budget-0", "budget-1.5"],
)
def test_arguments_out_of_range_raise(call, args, message):
    with pytest.raises(ValueError, match=message):
        call(*args)
