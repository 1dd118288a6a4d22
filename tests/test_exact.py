import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from aoi_sched import arq, exact, rvi
from aoi_sched.errors import InaccurateSolveError, NoStationaryAoIError
from aoi_sched.exact import evaluate_exact, induced_chain, renewal_mixture_weight
from aoi_sched.lagrange import solve_constrained
from aoi_sched.mdp import (
    Action,
    ChannelModel,
    State,
    StateSpace,
    Truncation,
    enumerate_states,
    slot_outcomes,
)
from aoi_sched.policies import (
    DeterministicTable,
    PeriodicPolicy,
    RandomizedTable,
    RenewalMixture,
    ThresholdPolicy,
)
from aoi_sched.rvi import solve
from aoi_sched.simulate import baseline_periodic

import spec

TINY = 1e-300  # effectively error-free channel that still satisfies 0 < g(0)


def all_new_table(trunc):
    return DeterministicTable(
        {s: Action.NEW_UPDATE for s in enumerate_states(trunc)}, trunc
    )


def mixture_oracle(pol_a, pol_b, w, model, trunc):
    """Brute-force oracle: stationary solve of the branch-augmented chain.

    The active branch is part of the state and is redrawn whenever the chain
    enters (1, 0), which is the literal definition of the renewal mixture.
    """
    states = enumerate_states(trunc)
    idx = {s: i for i, s in enumerate(states)}
    n = len(states)
    P = np.zeros((2 * n, 2 * n))
    tx = np.zeros(2 * n)
    renewal = idx[State(1, 0)]
    for b, pol in enumerate((pol_a, pol_b)):
        for s in states:
            i = b * n + idx[s]
            for a, pa in spec.probs(pol, s).items():
                if a != Action.IDLE:
                    tx[i] += pa
                for nxt, p in spec.transitions(s, a, model, trunc):
                    j = idx[nxt]
                    if j == renewal:
                        P[i, 0 * n + j] += pa * p * w
                        P[i, 1 * n + j] += pa * p * (1.0 - w)
                    else:
                        P[i, b * n + j] += pa * p
    A = P.T - np.eye(2 * n)
    A[-1, :] = 1.0
    rhs = np.zeros(2 * n)
    rhs[-1] = 1.0
    pi = np.linalg.lstsq(A, rhs, rcond=None)[0]
    pi = np.clip(pi, 0.0, None)
    pi /= pi.sum()
    deltas = np.array([s.delta for s in states] * 2, dtype=float)
    return float(pi @ deltas), float(pi @ tx)


class TestInducedChain:
    def assert_matches_reference(self, policy, model, trunc):
        space = StateSpace(model, trunc)
        branch, tx = induced_chain(policy, space)
        P_ref, tx_ref = spec.chain(policy, model, trunc)
        P = np.zeros_like(P_ref)
        np.add.at(P, (np.arange(len(space))[:, None, None], space.succ_idx), branch)
        assert np.array_equal(P, P_ref)
        assert np.array_equal(tx, tx_ref)

    @pytest.mark.parametrize("table_n_max", [40, 25])
    def test_deterministic_table(self, table_n_max):
        # A table with a smaller age cap is read through its clamped lookup.
        model = ChannelModel(0.4, 0.6, 4)
        trunc = Truncation(40, 4)
        table_trunc = Truncation(table_n_max, 4)
        acts = {
            s: (Action.RETRANSMIT if 1 <= s.r < 4 else Action.NEW_UPDATE if s.delta >= 5 else Action.IDLE)
            for s in enumerate_states(table_trunc)
        }
        self.assert_matches_reference(DeterministicTable(acts, table_trunc), model, trunc)

    def test_randomized_table_arq_merges_idle_and_failed_new(self):
        # With r_max = 0 idling and a failed fresh update both lead to
        # (delta + 1, 0), so their probabilities add in one entry.
        model = ChannelModel(0.3, 1.0, 0)
        trunc = Truncation(30, 0)
        probs = {s: {Action.IDLE: 0.25, Action.NEW_UPDATE: 0.75} for s in enumerate_states(trunc)}
        self.assert_matches_reference(RandomizedTable(probs, trunc), model, trunc)

    def test_threshold_policy(self):
        model = ChannelModel(0.5, 0.5, 3)
        trunc = Truncation(50, 3)
        self.assert_matches_reference(ThresholdPolicy(6, 0.3), model, trunc)

    def test_retransmit_without_failed_packet_rejected(self):
        model = ChannelModel(0.5, 0.5, 3)
        trunc = Truncation(20, 3)
        acts = {s: Action.NEW_UPDATE for s in enumerate_states(trunc)}
        acts[State(3, 0)] = Action.RETRANSMIT
        with pytest.raises(NoStationaryAoIError, match=r"RETRANSMIT at State\(delta=3, r=0\)"):
            induced_chain(DeterministicTable(acts, trunc), StateSpace(model, trunc))


class TestThresholdEvaluation:
    def test_cost_known_value(self):
        res = evaluate_exact(ThresholdPolicy(4), ChannelModel(0.5, 1.0, 0), Truncation(300, 0))
        assert res.avg_cost == pytest.approx(0.4, abs=1e-11)

    def test_error_free_always_transmit(self):
        res = evaluate_exact(ThresholdPolicy(1), ChannelModel(TINY, 1.0, 0), Truncation(50, 0))
        assert res.avg_aoi == pytest.approx(1.0, abs=1e-9)
        assert res.avg_cost == pytest.approx(1.0, abs=1e-12)

    def test_stationary_is_distribution(self):
        res = evaluate_exact(ThresholdPolicy(4), ChannelModel(0.5, 1.0, 0), Truncation(300, 0))
        assert res.stationary.sum() == pytest.approx(1.0, abs=1e-12)
        assert (res.stationary >= 0).all()

    def test_cost_in_unit_interval(self):
        res = evaluate_exact(ThresholdPolicy(7), ChannelModel(0.8, 1.0, 0), Truncation(400, 0))
        assert 0.0 <= res.avg_cost <= 1.0

    def test_stationary_matches_closed_form(self):
        res = evaluate_exact(ThresholdPolicy(5), ChannelModel(0.4, 1.0, 0), Truncation(150, 0))
        assert res.stationary.shape == (151, 1)
        for delta in range(1, 140):  # clamped tail mass piles up at the cap
            assert res.stationary[delta, 0] == pytest.approx(
                arq.stationary_probs(0.4, 5, delta), rel=1e-9, abs=1e-12
            )


class TestAlwaysNewUpdate:
    @pytest.mark.parametrize("p0", [0.2, 0.5, 0.8])
    def test_aoi_is_geometric_mean(self, p0):
        trunc = Truncation(250, 3)
        res = evaluate_exact(all_new_table(trunc), ChannelModel(p0, 0.5, 3), trunc)
        assert res.avg_aoi == pytest.approx(1.0 / (1.0 - p0), rel=1e-9)
        assert res.avg_cost == pytest.approx(1.0, abs=1e-12)


class TestNeverTransmits:
    def test_idle_policy_rejected(self):
        trunc = Truncation(50, 0)
        idle = DeterministicTable(
            {s: Action.IDLE for s in enumerate_states(trunc)}, trunc
        )
        with pytest.raises(NoStationaryAoIError):
            evaluate_exact(idle, ChannelModel(0.5, 1.0, 0), trunc)

    def test_transmits_only_transiently_rejected(self):
        # Transmit below age 3, idles above: after one failure the age never
        # comes back down, so the recurrent class is the idle loop at the cap.
        trunc = Truncation(50, 0)
        acts = {
            s: (Action.NEW_UPDATE if s.delta < 3 else Action.IDLE)
            for s in enumerate_states(trunc)
        }
        with pytest.raises(NoStationaryAoIError):
            evaluate_exact(DeterministicTable(acts, trunc), ChannelModel(0.5, 1.0, 0), trunc)


class TestRenewalMixture:
    def test_degenerate_weights_match_components(self):
        model = ChannelModel(0.5, 1.0, 0)
        trunc = Truncation(200, 0)
        a, b = ThresholdPolicy(4), ThresholdPolicy(5)
        for w, ref in ((1.0, a), (0.0, b)):
            mix = evaluate_exact(RenewalMixture(a, b, w), model, trunc)
            pure = evaluate_exact(ref, model, trunc)
            assert mix.avg_aoi == pytest.approx(pure.avg_aoi, rel=1e-12)
            assert mix.avg_cost == pytest.approx(pure.avg_cost, rel=1e-12)

    @pytest.mark.parametrize("w", [0.25, 0.5, 0.8])
    def test_against_augmented_chain_oracle(self, w):
        model = ChannelModel(0.4, 1.0, 0)
        trunc = Truncation(80, 0)
        a, b = ThresholdPolicy(3), ThresholdPolicy(6)
        res = evaluate_exact(RenewalMixture(a, b, w), model, trunc)
        oracle_aoi, oracle_cost = mixture_oracle(a, b, w, model, trunc)
        assert res.avg_aoi == pytest.approx(oracle_aoi, rel=1e-9)
        assert res.avg_cost == pytest.approx(oracle_cost, rel=1e-9)

    def test_weight_correction_hits_budget(self):
        model = ChannelModel(0.5, 1.0, 0)
        trunc = Truncation(200, 0)
        a, b = ThresholdPolicy(4), ThresholdPolicy(5)
        ra = evaluate_exact(a, model, trunc)
        rb = evaluate_exact(b, model, trunc)
        w = renewal_mixture_weight(ra, rb, 0.35)
        res = evaluate_exact(RenewalMixture(a, b, w), model, trunc)
        assert res.avg_cost == pytest.approx(0.35, abs=1e-10)
        # The achieved age lands on the chord between the two policies.
        mu = (0.35 - rb.avg_cost) / (ra.avg_cost - rb.avg_cost)
        assert res.avg_aoi == pytest.approx(
            mu * ra.avg_aoi + (1 - mu) * rb.avg_aoi, rel=1e-9
        )


class TestRandomizedTable:
    def test_single_state_randomization_matches_threshold(self):
        # Randomizing idle/new at one age is exactly a randomized threshold.
        model = ChannelModel(0.5, 1.0, 0)
        trunc = Truncation(200, 0)
        w = 2.0 / 7.0
        probs = {}
        for s in enumerate_states(trunc):
            if s.delta < 4:
                probs[s] = {Action.IDLE: 1.0}
            elif s.delta == 4:
                probs[s] = {Action.NEW_UPDATE: w, Action.IDLE: 1.0 - w}
            else:
                probs[s] = {Action.NEW_UPDATE: 1.0}
        table = RandomizedTable(probs, trunc)
        res_tab = evaluate_exact(table, model, trunc)
        res_thr = evaluate_exact(ThresholdPolicy(4, w), model, trunc)
        assert res_tab.avg_aoi == pytest.approx(res_thr.avg_aoi, rel=1e-12)
        assert res_tab.avg_cost == pytest.approx(res_thr.avg_cost, rel=1e-12)


class TestPeriodicBaseline:
    def test_period_rounding(self):
        assert baseline_periodic(0.4).period == 3
        assert baseline_periodic(1.0).period == 1
        assert baseline_periodic(0.25).period == 4
        assert baseline_periodic(0.2).period == 5

    def test_error_free_cycle(self):
        res = evaluate_exact(baseline_periodic(0.2), ChannelModel(TINY, 1.0, 0), Truncation(50, 0))
        assert res.avg_aoi == pytest.approx(3.0, abs=1e-9)
        assert res.avg_cost == pytest.approx(0.2, abs=1e-15)

    def test_noisy_channel_closed_form(self):
        # period k with error p: cost 1/k, age (k+1)/2 + k p/(1-p)
        res = evaluate_exact(PeriodicPolicy(3), ChannelModel(0.5, 1.0, 0), Truncation(50, 0))
        assert res.avg_cost == pytest.approx(1 / 3, rel=1e-14)
        assert res.avg_aoi == pytest.approx(2.0 + 3.0, rel=1e-12)

    def test_failed_update_marker_in_stationary_array(self):
        # With retransmission possible, the first age of every failed block
        # follows a NACK and sits in the failed-update column.
        model, k = ChannelModel(0.5, 0.5, 3), 3
        res = evaluate_exact(PeriodicPolicy(k), model, Truncation(50, 3))
        fail_att = int(slot_outcomes(model).fail_att[Action.NEW_UPDATE, 0])
        assert fail_att == 1 and res.stationary.shape[1] == 2
        q = 1.0 - model.p0
        for m in range(1, 10):
            first = k * m + 1
            assert res.stationary[first, 0] == 0.0
            assert res.stationary[first, fail_att] == q * model.p0**m / k
            assert (res.stationary[first + 1 : first + k, 0] == q * model.p0**m / k).all()
            assert (res.stationary[first + 1 : first + k, fail_att] == 0.0).all()
        assert res.stationary.sum() == pytest.approx(1.0, abs=1e-12)
        ages = np.arange(len(res.stationary))[:, None]
        assert (ages * res.stationary).sum() == pytest.approx(res.avg_aoi, abs=1e-12)

    def test_occupancy_sums_to_one(self):
        res = evaluate_exact(PeriodicPolicy(4), ChannelModel(0.6, 1.0, 0), Truncation(50, 0))
        assert res.stationary.sum() == pytest.approx(1.0, abs=1e-12)


class TestTailMass:
    def test_is_the_stationary_mass_at_the_cap(self):
        model, trunc = ChannelModel(0.9, 1.0, 0), Truncation(30, 0)
        a, b = ThresholdPolicy(4), ThresholdPolicy(6)
        for policy in (a, RenewalMixture(a, b, 0.3)):
            res = evaluate_exact(policy, model, trunc)
            at_cap = res.stationary[trunc.n_max].sum()
            assert res.tail_mass == pytest.approx(at_cap, rel=1e-12)
            assert 1e-3 < res.tail_mass < 1e-1
        assert evaluate_exact(PeriodicPolicy(3), model, trunc).tail_mass == 0.0

    def test_shrinks_with_a_larger_cap(self):
        model = ChannelModel(0.9, 0.5, 3)
        sol = solve_constrained(model, Truncation(60, 3), 0.05)
        assert sol.search.low[1].tail_mass == pytest.approx(2.3e-5, rel=0.05)
        assert 1e-5 < evaluate_exact(sol.mixed, model, Truncation(60, 3)).tail_mass < 1e-4
        assert sol.tail_mass == evaluate_exact(sol.mixed, model, Truncation(60, 3)).tail_mass
        # The same policy with room for its tail.
        assert evaluate_exact(sol.mixed, model, Truncation(160, 3)).tail_mass < 1e-12


def dense_stationary(policy, model, trunc):
    """Stationary masses in ``StateSpace`` order by ``spec.stationary`` of the policy's dense chain."""
    return StateSpace(model, trunc), spec.stationary(spec.chain(policy, model, trunc)[0])


class TestStationarySolve:
    def assert_matches_dense(self, policy, model, trunc, rtol=1e-12):
        space, pi = dense_stationary(policy, model, trunc)
        res = evaluate_exact(policy, model, trunc)
        np.testing.assert_allclose(res.stationary[space.age, space.r], pi, rtol=rtol, atol=1e-15)
        assert res.avg_aoi == pytest.approx(pi @ space.delta, rel=1e-13)
        assert res.avg_cost == pytest.approx(pi @ induced_chain(policy, space)[1], rel=1e-13)
        return space, res

    def test_an_inaccurate_solve_raises_naming_the_residual(self, monkeypatch):
        monkeypatch.setattr(exact, "_STATIONARY_RESIDUAL", -1.0)  # no residual is small enough
        with pytest.raises(InaccurateSolveError, match=r"^inaccurate stationary solve: residual \S+ above -1$"):
            evaluate_exact(ThresholdPolicy(4), ChannelModel(0.5, 0.5, 3), Truncation(30, 3))

    @pytest.mark.parametrize(
        "point", [(0.5, 0.5, 3, 250, 200.0), (0.5, 1.0, 0, 300, 400.0), (0.3, 0.5, 9, 400, 5.0)]
    )
    def test_rvi_policies_match_the_dense_solve(self, point):
        p0, lam, r_max, n_max, eta = point
        model, trunc = ChannelModel(p0, lam, r_max), Truncation(n_max, r_max)
        self.assert_matches_dense(solve(model, trunc, eta).policy, model, trunc)

    @given(
        p0=st.floats(0.05, 0.95),
        lam=st.floats(0.05, 1.0),
        r_max=st.sampled_from([0, 1, 3, 40]),
        n_max=st.integers(2, 24),
        sure=st.booleans(),
        idle_at_cap=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    # r_max = 0, recurrent and transient; r_cap = n_max - 1 with two closed
    # classes; a randomized table whose (1, 0) is transient; a chain past
    # condition 1e16, where a dense LU solve was 6.4e-10 off in the rarest
    # masses.
    @example(p0=0.5, lam=1.0, r_max=0, n_max=12, sure=False, idle_at_cap=False, seed=0)
    @example(p0=0.5, lam=1.0, r_max=0, n_max=12, sure=True, idle_at_cap=True, seed=0)
    @example(p0=0.5, lam=0.5, r_max=40, n_max=8, sure=True, idle_at_cap=True, seed=6)
    @example(p0=0.5, lam=0.5, r_max=3, n_max=10, sure=False, idle_at_cap=True, seed=0)
    @example(p0=0.9499999999999998, lam=0.09375, r_max=3, n_max=14, sure=True, idle_at_cap=False, seed=27322185)
    @settings(max_examples=150, deadline=None)
    def test_random_tables_match_the_dense_solve(self, p0, lam, r_max, n_max, sure, idle_at_cap, seed):
        # Every closed class holds (1, 0) or is {(n_max, 0)} (BorderChain.reached),
        # and the age diverges exactly when (1, 0) is transient.  r_max = 40
        # caps the attempts at n_max - 1.
        model, trunc = ChannelModel(p0, lam, r_max), Truncation(n_max, r_max)
        space = StateSpace(model, trunc)
        weights = np.random.default_rng(seed).random(space.admissible.shape) * space.admissible
        if sure:
            weights = (weights == weights.max(axis=1, keepdims=True)).astype(float)
        cap = space.off[n_max]  # index of (n_max, 0)
        if idle_at_cap:
            weights[cap] = (1.0, 0.0, 0.0)
        table = np.zeros((n_max + 1, space.r_cap + 1, len(Action)))
        table[space.age, space.r] = weights / weights.sum(axis=1, keepdims=True)
        policy = RandomizedTable(table, Truncation(n_max, space.r_cap))
        closed = spec.closed_classes(spec.chain(policy, model, trunc)[0])
        assert all(members[0] == 0 or list(members) == [cap] for members in closed)
        if any(members[0] == 0 for members in closed):
            self.assert_matches_dense(policy, model, trunc, rtol=1e-10)
        else:
            with pytest.raises(NoStationaryAoIError, match="never transmits on its recurrent class"):
                evaluate_exact(policy, model, trunc)

    def test_arq_randomized_table_merges_idle_and_failed_new(self):
        model, trunc = ChannelModel(0.3, 1.0, 0), Truncation(30, 0)
        probs = {s: {Action.IDLE: 0.25, Action.NEW_UPDATE: 0.75} for s in enumerate_states(trunc)}
        self.assert_matches_dense(RandomizedTable(probs, trunc), model, trunc)

    def test_transient_border_states_carry_no_mass(self):
        # Fresh updates everywhere: no slot ever enters (2, 0), (3, 0) or
        # (40, 0), which only lead into the recurrent class.
        model, trunc = ChannelModel(0.5, 0.5, 3), Truncation(40, 3)
        space, res = self.assert_matches_dense(all_new_table(trunc), model, trunc)
        assert len(space.border) == 7
        for s in (State(2, 0), State(3, 0), State(40, 0)):
            assert res.stationary[s] == 0.0
        assert res.stationary[State(40, 1)] > 0.0

    @pytest.mark.parametrize("component", ["first", "second"])
    def test_renewal_mixture_components(self, component):
        model, trunc = ChannelModel(0.5, 0.5, 3), Truncation(120, 3)
        mix = RenewalMixture(solve(model, trunc, 2.0).policy, solve(model, trunc, 8.0).policy, 0.4)
        self.assert_matches_dense(getattr(mix, component), model, trunc)

    def test_every_mass_keeps_its_relative_accuracy(self):
        # Grassmann-Taksar-Heyman elimination subtracts nothing, so it gets
        # tail masses far below rounding to full relative accuracy; so must
        # the border solve and the ladder substitution.
        model, trunc = ChannelModel(0.5, 0.5, 3), Truncation(120, 3)
        policy = solve(model, trunc, 5.0).policy
        space, pi = dense_stationary(policy, model, trunc)
        res = evaluate_exact(policy, model, trunc)
        np.testing.assert_allclose(res.stationary[space.age, space.r], pi, rtol=1e-12, atol=0.0)
        assert 1e-75 < res.tail_mass < 1e-65


class TestTransmissionValues:
    """The solver's gain and values of the transmit indicator, beside those of the charged age."""

    @given(
        p0=st.floats(0.05, 0.95),
        lam=st.floats(0.05, 1.0),
        r_max=st.integers(0, 3),
        n_max=st.integers(2, 30),
        eta=st.floats(0.0, 60.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_match_exact_evaluation_and_a_dense_solve(self, p0, lam, r_max, n_max, eta):
        model, trunc = ChannelModel(p0, lam, r_max), Truncation(n_max, r_max)
        out = solve(model, trunc, eta)
        space = out.space
        evaluated = DeterministicTable.from_actions(space, out.actions)  # the policy whose values out holds
        try:
            if evaluated.table.tobytes() == out.policy.table.tobytes():
                res = exact._evaluate_solved(out)
            else:  # the read-off broke a tie the other way
                res = evaluate_exact(evaluated, model, trunc)
        except NoStationaryAoIError:
            assert out.g_tx == 0.0  # it idles forever at the cap
        else:
            assert out.g_tx == pytest.approx(res.avg_cost, rel=1e-12, abs=0.0)
        # The Poisson equation of the transmit indicator, to the solver's own bound.
        rows, tx = np.arange(len(space)), (out.actions != Action.IDLE)
        y = out.h_tx + out.g_tx
        expected = (space.succ_prob[rows, out.actions] * y[space.succ_idx[rows, out.actions]]).sum(axis=1)
        assert np.abs(y + out.g_tx - expected - tx).max() <= rvi._SOLVE_RTOL * max(1.0, np.abs(y).max())
        # The age and the transmit indicator by one dense solve of (I - P + 1 e_0^T) y = c, refined once.
        P, tx_ref = spec.chain(evaluated, model, trunc)
        y = spec.poisson(P, np.column_stack([space.delta, tx_ref]))
        for h, ref in ((out.h_array - eta * out.h_tx, y[:, 0]), (out.h_tx, y[:, 1])):
            assert np.abs(h - (ref - ref[0])).max() <= 1e-10 * max(1.0, np.abs(ref).max())
