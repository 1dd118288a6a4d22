import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from aoi_sched import sarsa
from aoi_sched.errors import ProtocolViolationError
from aoi_sched.exact import evaluate_exact
from aoi_sched.lagrange import solve_constrained
from aoi_sched.mdp import Action, ChannelModel, State, Truncation, enumerate_states
from aoi_sched.sarsa import (
    LearnerConfig,
    make_learner,
    softmax_probs,
    step,
    train,
)
from aoi_sched.simulate import SlotEnv

import spec

TINY = 1e-300
ALL = np.array([True, True, True])


class TestSoftmax:
    def test_uniform_on_equal_values(self):
        probs = softmax_probs(np.zeros(3), 1.0, ALL)
        assert probs == pytest.approx([1 / 3] * 3)

    def test_two_to_one_ratio(self):
        tau = 0.7
        probs = softmax_probs(np.array([0.0, math.log(2.0) * tau]), tau, np.array([True, True]))
        assert probs == pytest.approx([2 / 3, 1 / 3], rel=1e-12)

    def test_high_temperature_is_near_uniform(self):
        probs = softmax_probs(np.array([0.0, 5.0, 9.0]), 1e6, ALL)
        assert probs == pytest.approx([1 / 3] * 3, abs=1e-5)

    def test_low_temperature_concentrates_on_argmin(self):
        probs = softmax_probs(np.array([0.0, 5.0, 9.0]), 1e-3, ALL)
        assert probs[0] == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("tau", [0.0, -1.0])
    def test_a_temperature_not_above_zero_raises(self, tau):
        with pytest.raises(ValueError, match=f"tau must be positive, got {tau}"):
            softmax_probs(np.zeros(3), tau, ALL)

    def test_inadmissible_actions_excluded(self):
        probs = softmax_probs(np.array([9.0, 9.0, 0.0]), 1.0, np.array([True, True, False]))
        assert probs[2] == 0.0
        assert probs[0] == pytest.approx(0.5)
        assert sum(probs) == pytest.approx(1.0)

    def test_extreme_values_are_stable(self):
        probs = softmax_probs(np.array([1e6, 1e6 + 1.0, 2e6]), 1.0, ALL)
        assert np.isfinite(probs).all()
        assert sum(probs) == pytest.approx(1.0)


# Two admissible weights whose probabilities sum to the largest double below
# 1 after rounding, at a state that admits no retransmission.
ROUNDED_ROW = np.array([3.3576510391986965, -0.6723293209494665, 0.0])
LAST_UNIFORM = 1 - 2**-53


class TestSampleAction:
    def test_the_last_uniform_draws_no_action_without_probability(self):
        probs = softmax_probs(ROUNDED_ROW, 1.0, np.array([True, True, False]))
        assert probs[2] == 0.0 and probs[0] + probs[1] == LAST_UNIFORM
        assert sarsa._sample_action(probs, LAST_UNIFORM) is Action.NEW_UPDATE

    @given(
        row=st.lists(st.floats(-50.0, 50.0), min_size=3, max_size=3),
        tau=st.floats(0.01, 5.0),
        mask=st.sampled_from([ALL, np.array([True, True, False])]),
        u=st.one_of(st.floats(0.0, 1.0, exclude_max=True), st.just(LAST_UNIFORM)),
    )
    @example(row=list(ROUNDED_ROW), tau=1.0, mask=np.array([True, True, False]), u=LAST_UNIFORM)
    @settings(max_examples=200, deadline=None)
    def test_draws_only_actions_with_probability(self, row, tau, mask, u):
        probs = softmax_probs(np.array(row), tau, mask)
        a = sarsa._sample_action(probs, u)
        assert probs[a] > 0.0
        # Inversion: the first action whose cumulative probability passes u,
        # unless only actions without probability lie beyond it.
        assert a == min(int((u >= np.cumsum(probs)[:-1]).sum()), int(np.flatnonzero(probs).max()))


def _cfg(**kw):
    base = dict(trunc=Truncation(30, 3), eta_step=0.0, c_max=0.4, seed=0)
    base.update(kw)
    return LearnerConfig(**base)


class TestLearnerConfig:
    @pytest.mark.parametrize(
        ("field", "value"),
        [(field, value) for field in ("tau", "eta0", "eta_step") for value in (-1.0, math.inf, math.nan, 0.0)]
        + [("c_max", 0.0), ("c_max", 1.5), ("c_max", math.nan), ("horizon", -1)],
    )
    def test_settings_are_finite_and_in_range(self, field, value):
        # The charge and its step may be zero; the temperature and the budget may not.
        if value == 0.0 and field in ("eta0", "eta_step"):
            assert getattr(_cfg(**{field: value}), field) == 0.0
        else:
            match = {"c_max": r"c_max must lie in \(0, 1\]", "horizon": "horizon must be non-negative"}
            with pytest.raises(ValueError, match=match.get(field, f"{field} must be finite and")):
                _cfg(**{field: value})


class TestStep:
    def test_first_update_hand_value(self):
        # From (1,0) with zero table, zero gain, charge 5 and a fresh update:
        # cost is 6, the step size is 1, the target table entry is 0,
        # so the new entry is exactly 6.
        model = ChannelModel(0.5, 0.5, 3)
        cfg = _cfg(eta0=5.0)
        rng = np.random.default_rng(1)
        env = SlotEnv(model, np.random.default_rng(2))
        ls = make_learner(cfg, model)
        ls.next_action = Action.NEW_UPDATE
        step(ls, env, cfg, rng)
        i = ls.space.off[1]  # index of (1, 0)
        assert ls.q[i, Action.NEW_UPDATE] == pytest.approx(6.0, abs=1e-12)
        assert ls.gain == pytest.approx(6.0, abs=1e-12)
        assert ls.empirical_cost == 1.0
        assert ls.n == 1

    def test_zero_step_size_freezes_table(self, monkeypatch):
        monkeypatch.setattr(sarsa, "_ALPHA0", 0.0)
        model = ChannelModel(0.5, 0.5, 3)
        cfg = _cfg(eta0=2.0)
        rng = np.random.default_rng(1)
        env = SlotEnv(model, np.random.default_rng(2))
        ls = make_learner(cfg, model)
        for _ in range(50):
            step(ls, env, cfg, rng)
        assert np.all(ls.q == 0.0)
        assert ls.gain > 0.0  # gain tracking is independent of the step size

    def test_forced_always_new_on_clean_channel_gain(self):
        # Constant per-slot cost 1 + eta, so the running-average gain matches.
        model = ChannelModel(TINY, 1.0, 0)
        cfg = _cfg(trunc=Truncation(20, 0), eta0=5.0)
        rng = np.random.default_rng(1)
        env = SlotEnv(model, np.random.default_rng(2))
        ls = make_learner(cfg, model)
        for _ in range(200):
            ls.next_action = Action.NEW_UPDATE
            step(ls, env, cfg, rng)
        assert ls.gain == pytest.approx(6.0, abs=1e-12)
        assert ls.state == State(1, 0)

    def test_charge_adaptation_moves_toward_budget(self):
        model = ChannelModel(TINY, 1.0, 0)
        cfg = LearnerConfig(
            trunc=Truncation(20, 0), eta0=0.0, eta_step=1.0, c_max=0.4, seed=0
        )
        rng = np.random.default_rng(1)
        env = SlotEnv(model, np.random.default_rng(2))
        ls = make_learner(cfg, model)
        for _ in range(100):
            ls.next_action = Action.NEW_UPDATE  # overspends: cost 1 > 0.4
            step(ls, env, cfg, rng)
        assert ls.eta > 0.0


def _reference_train(model, cfg):
    """``train`` as its specification: ``step`` calls against a ``SlotEnv``."""
    env = SlotEnv(model, np.random.default_rng([cfg.seed, 0]))
    rng_act = np.random.default_rng([cfg.seed, 1])
    ls = make_learner(cfg, model)
    ls.state = env.reset()
    aoi_sum, rows = 0.0, []
    for k in range(cfg.horizon):
        true_delta = ls.state.delta
        step(ls, env, cfg, rng_act)
        aoi_sum += true_delta
        rows.append((aoi_sum / (k + 1), ls.empirical_cost, ls.eta, ls.gain))
    return ls, np.array(rows, dtype=np.float64).reshape(cfg.horizon, 4).T


# A model cap wider than every truncation cap drawn below, so the learner's
# table is tighter than the channel.
WIDE = ChannelModel(0.6, 0.95, 40)
MODELS = [WIDE, ChannelModel(0.5, 1.0, 0), ChannelModel(0.5, 0.5, 3), ChannelModel(0.7, 0.8, 9)]


class TestTrainMatchesSteps:
    # Horizons past 1024 cross a block of action uniforms, and past about
    # 2000 a block of channel uniforms.
    @given(
        model=st.sampled_from(MODELS),
        n_max=st.integers(2, 60),
        r_max=st.integers(0, 12),
        horizon=st.integers(0, 3000),
        seed=st.integers(0, 2**32 - 1),
        tau=st.floats(0.05, 5.0),
        eta0=st.floats(0.0, 20.0),
        eta_step=st.sampled_from([0.5, 0.0]),
    )
    @example(model=MODELS[2], n_max=100, r_max=3, horizon=3000, seed=0, tau=1.0, eta0=2.0, eta_step=0.5)
    @example(model=WIDE, n_max=60, r_max=12, horizon=3000, seed=1, tau=0.3, eta0=0.5, eta_step=0.0)
    @example(model=MODELS[1], n_max=30, r_max=0, horizon=2500, seed=2, tau=1.0, eta0=2.0, eta_step=0.5)
    # Weights off the row minimum underflow to 0.0 (162 of them).
    @example(model=MODELS[2], n_max=60, r_max=3, horizon=3000, seed=3, tau=0.05, eta0=20.0, eta_step=0.0)
    # An ARQ truncation of a HARQ channel: every row forbids retransmitting.
    @example(model=MODELS[3], n_max=40, r_max=0, horizon=3000, seed=4, tau=0.5, eta0=2.0, eta_step=0.5)
    # A cap below the model's, reached in 27 of the slots.  At this tau a
    # softmax shifted by any entry but the row minimum overflows to inf.
    @example(model=WIDE, n_max=60, r_max=2, horizon=3000, seed=3, tau=0.01, eta0=0.0, eta_step=0.0)
    @settings(max_examples=25, deadline=None)
    def test_bit_identical_to_step_loop(self, model, n_max, r_max, horizon, seed, tau, eta0, eta_step):
        cfg = LearnerConfig(
            trunc=Truncation(n_max, r_max), tau=tau, eta0=eta0, eta_step=eta_step,
            c_max=0.4, horizon=horizon, seed=seed,
        )
        ref, ref_rows = _reference_train(model, cfg)
        ls, tl = train(model, cfg)
        assert ls.q.shape == ref.q.shape and ls.q.tobytes() == ref.q.tobytes()
        assert (ls.gain, ls.eta, ls.n, ls.empirical_cost, ls.state, ls.next_action) == (
            ref.gain, ref.eta, ref.n, ref.empirical_cost, ref.state, ref.next_action
        )
        assert np.array_equal(tl.steps, np.arange(1, horizon + 1))
        for got, want in zip((tl.running_aoi, tl.running_cost, tl.eta, tl.gain), ref_rows):
            assert got.dtype == np.float64 and got.tobytes() == want.tobytes()

    def test_inadmissible_action_raises(self, monkeypatch):
        # A table that only holds idling and fresh updates makes every
        # retransmission inadmissible to the channel, as a stale outcome
        # table would.
        real = sarsa.slot_outcomes
        monkeypatch.setattr(sarsa, "slot_outcomes", lambda model, width: real(model, 2))
        cfg = LearnerConfig(trunc=Truncation(30, 3), c_max=0.4, horizon=2000, seed=0)
        with pytest.raises(ProtocolViolationError, match="inadmissible action RETRANSMIT in state"):
            train(ChannelModel(0.5, 0.5, 3), cfg)

    def test_the_last_uniform_plays_no_action_without_probability(self, monkeypatch):
        # The learner starts at (1, 0) with the rounded row and every action
        # uniform at the largest double below 1: the draw is a fresh update,
        # in train as in its step loop.
        real_learner, real_rng = sarsa.make_learner, np.random.default_rng

        def learner(cfg, model):
            ls = real_learner(cfg, model)
            ls.q[0] = ROUNDED_ROW
            return ls

        def rng(seed):
            if seed[1] == 0:  # the channel's stream
                return real_rng(seed)
            return SimpleNamespace(random=lambda size=None: LAST_UNIFORM if size is None else np.full(size, LAST_UNIFORM))

        monkeypatch.setattr(sarsa, "make_learner", learner)
        monkeypatch.setattr(np.random, "default_rng", rng)
        model = ChannelModel(0.5, 0.5, 3)
        cfg = LearnerConfig(trunc=Truncation(30, 3), c_max=0.4, horizon=1, seed=0)
        ls, tl = train(model, cfg)
        stepped = step(learner(cfg, model), SlotEnv(model, rng([0, 0])), cfg, rng([0, 1]))
        for q in (ls.q, stepped.q):  # only the action played in slot 1 is updated
            assert np.flatnonzero(q[0] != ROUNDED_ROW).tolist() == [Action.NEW_UPDATE]
        assert tl.running_cost[0] == stepped.empirical_cost == 1.0

    @pytest.mark.parametrize("model", MODELS)
    def test_outcome_table_built_once(self, model, monkeypatch):
        calls = []
        real = sarsa.slot_outcomes
        monkeypatch.setattr(sarsa, "slot_outcomes", lambda *args: calls.append(args) or real(*args))
        train(model, LearnerConfig(trunc=Truncation(30, 3), c_max=0.4, horizon=3000, seed=4))
        assert len(calls) == 1


class TestTrain:
    def test_deterministic_given_seed(self):
        model = ChannelModel(0.5, 0.5, 3)
        cfg = LearnerConfig(trunc=Truncation(50, 3), c_max=0.4, horizon=2000, seed=7)
        ls1, tl1 = train(model, cfg)
        ls2, tl2 = train(model, cfg)
        assert np.array_equal(tl1.running_aoi, tl2.running_aoi)
        assert np.array_equal(tl1.eta, tl2.eta)
        assert np.array_equal(ls1.q, ls2.q)

    def test_bounded_table(self):
        model = ChannelModel(0.5, 0.5, 3)
        cfg = LearnerConfig(trunc=Truncation(50, 3), c_max=0.4, horizon=20_000, seed=3)
        ls, tl = train(model, cfg)
        eta_max = tl.eta.max()
        assert np.abs(ls.q).max() <= 10.0 * (50 + max(eta_max, cfg.eta0))

    def test_timeline_shapes_and_running_cost(self):
        model = ChannelModel(0.5, 0.5, 3)
        cfg = LearnerConfig(trunc=Truncation(50, 3), c_max=0.4, horizon=500, seed=3)
        ls, tl = train(model, cfg)
        assert len(tl.running_aoi) == len(tl.running_cost) == len(tl.steps) == 500
        assert 0.0 <= tl.running_cost[-1] <= 1.0
        assert ls.n == 500

    def test_greedy_ties_prefer_retransmit_then_new_update(self):
        # On an all-zero table every admissible action ties; the last one wins.
        model, trunc = ChannelModel(0.5, 0.5, 3), Truncation(20, 3)
        greedy = make_learner(LearnerConfig(trunc=trunc), model).greedy_table()
        assert spec.actions(greedy) == {
            s: Action.RETRANSMIT if 1 <= s.r < 3 else Action.NEW_UPDATE for s in enumerate_states(trunc)
        }

    def test_tighter_budget_means_noisier_learning(self):
        # Fewer transmissions also mean fewer learning opportunities, so the
        # across-replication variance grows as the budget shrinks.
        model = ChannelModel(0.5, 0.5, 3)
        trunc = Truncation(100, 3)

        def final_var(c_max):
            finals = []
            for rep in range(40):
                cfg = LearnerConfig(trunc=trunc, c_max=c_max, horizon=10_000, seed=rep)
                _, tl = train(model, cfg)
                finals.append(tl.running_aoi[-1])
            return np.var(finals, ddof=1)

        assert final_var(0.2) > final_var(0.6)

    def test_frozen_greedy_close_to_planned(self):
        # After training on the benchmark instance the exploration-free
        # policy evaluates within a third of the planned optimum (the
        # learner still pays for exploration and the charge mismatch).
        model = ChannelModel(0.5, 0.5, 3)
        trunc = Truncation(100, 3)
        cfg = LearnerConfig(trunc=trunc, c_max=0.4, horizon=30_000, seed=1)
        ls, _ = train(model, cfg)
        greedy = ls.greedy_table()
        res = evaluate_exact(greedy, model, trunc)
        sol = solve_constrained(model, trunc, 0.4)
        assert res.avg_aoi <= 4.0 / 3.0 * sol.achieved_aoi
