import dataclasses
import math
import re
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from aoi_sched.errors import ProtocolViolationError
from aoi_sched.exact import induced_chain
from aoi_sched.mdp import Action, BorderChain, ChannelModel, State, StateSpace, Truncation, enumerate_states
from aoi_sched import arq, oracles, simulate
from aoi_sched.policies import DeterministicTable, PeriodicPolicy, RandomizedTable, RenewalMixture, ThresholdPolicy
from aoi_sched.rvi import solve
from aoi_sched.simulate import SlotEnv, SlotTrace, baseline_periodic, evaluate_simulated, run

import spec

TINY = 1e-300


def slot_rows(trace):
    """The trace's slots as ``(delta, r, action, delivered, next_delta, next_r)`` tuples."""
    columns = trace.delta, trace.r, trace.action, trace.delivered, trace.next_delta, trace.next_r
    return list(zip(*(x.tolist() for x in columns)))


def assert_trace_valid(trace, model):
    """Every recorded step must be in the transition support of its action."""
    big = Truncation(10**9, model.r_max)
    for d, r, a, _, d1, r1 in slot_rows(trace):
        support = {e.next for e in spec.transitions(State(d, r), Action(a), model, big)}
        assert State(d1, r1) in support, (d, r, a, d1, r1)


def assert_connected(trace):
    """Every slot begins in the state the slot before it ends in."""
    assert np.array_equal(trace.next_delta[:-1], trace.delta[1:])
    assert np.array_equal(trace.next_r[:-1], trace.r[1:])


class TestRunBasics:
    def test_error_free_always_new_pins_age(self):
        stats, trace = run(ThresholdPolicy(1), ChannelModel(TINY, 1.0, 0), 10, seed=3, collect_trace=True)
        assert trace.delta.tolist() == [1] * 10
        assert stats.mean_aoi == 1.0
        assert stats.mean_cost == 1.0

    def test_successful_retransmission_age_is_attempts_plus_one(self):
        # First attempt almost surely fails, the retransmission almost surely
        # succeeds, so the age after the second slot is r + 1 = 2.
        model = ChannelModel(1.0 - 1e-12, 1e-12, 3)
        trunc = Truncation(20, 3)
        acts = {
            s: (Action.RETRANSMIT if 1 <= s.r < 3 else Action.NEW_UPDATE)
            for s in enumerate_states(trunc)
        }
        _, trace = run(DeterministicTable(acts, trunc), model, 3, seed=0, collect_trace=True)
        assert trace.action[:2].tolist() == [Action.NEW_UPDATE, Action.RETRANSMIT]
        assert trace.delivered[:2].tolist() == [False, True]
        assert (trace.next_delta[1], trace.next_r[1]) == (2, 0)

    def test_idle_resets_attempt_marker(self):
        model = ChannelModel(1.0 - 1e-12, 0.9, 3)
        trunc = Truncation(20, 3)
        acts = {s: Action.IDLE for s in enumerate_states(trunc)}
        acts[State(1, 0)] = Action.NEW_UPDATE
        _, trace = run(DeterministicTable(acts, trunc), model, 3, seed=0, collect_trace=True)
        assert trace.next_r[0] == 1
        assert trace.action[1] == Action.IDLE
        assert trace.next_r[1] == 0

    def test_seed_determinism(self):
        model = ChannelModel(0.5, 0.5, 3)
        pol = ThresholdPolicy(3)
        s1, t1 = run(pol, model, 2000, seed=42, collect_trace=True)
        s2, t2 = run(pol, model, 2000, seed=42, collect_trace=True)
        assert all(np.array_equal(a, b) for a, b in zip(t1, t2))
        assert stats_values(s1) == stats_values(s2)

    @pytest.mark.parametrize("policy", [ThresholdPolicy(4), PeriodicPolicy(3)], ids=["cycles", "periodic"])
    def test_trace_columns_have_one_dtype(self, policy):
        _, trace = run(policy, ChannelModel(0.5, 0.5, 3), 100, seed=1, collect_trace=True)
        assert isinstance(trace, SlotTrace)
        assert [column.dtype for column in trace] == [np.int64, np.int64, np.uint8, np.int64, np.int64]
        assert {len(column) for column in trace} == {100}

    @pytest.mark.parametrize("policy", [ThresholdPolicy(4), PeriodicPolicy(3)], ids=["cycles", "periodic"])
    def test_horizon_and_replications_are_integers_of_at_least_one(self, policy):
        model = ChannelModel(0.5, 0.5, 3)
        for horizon in (1000.5, np.float64(1000.0), 0):
            message = re.escape(f"horizon must be an integer of at least 1, got {horizon}")
            with pytest.raises(ValueError, match=message):
                run(policy, model, horizon)
            with pytest.raises(ValueError, match=message):
                evaluate_simulated(policy, model, horizon, 2)
        for replications in (2.0, 0):
            message = re.escape(f"replications must be an integer of at least 1, got {replications}")
            with pytest.raises(ValueError, match=message):
                evaluate_simulated(policy, model, 1_000, replications)

    @pytest.mark.parametrize("policy", [ThresholdPolicy(4), PeriodicPolicy(3)], ids=["cycles", "periodic"])
    def test_numpy_integer_counts_are_their_values(self, policy):
        model = ChannelModel(0.5, 0.5, 3)
        (wide, _), (plain, _) = run(policy, model, np.int64(1_000), seed=3), run(policy, model, 1_000, seed=3)
        assert stats_values(wide) == stats_values(plain)
        wide = evaluate_simulated(policy, model, np.int64(1_000), np.int64(3), seed=3)
        assert stats_values(wide) == stats_values(evaluate_simulated(policy, model, 1_000, 3, seed=3))

    def test_trace_follows_transition_support(self):
        model = ChannelModel(0.4, 0.6, 3)
        trunc = Truncation(40, 3)
        out = solve(model, trunc, 3.0)
        _, trace = run(out.policy, model, 3000, seed=5, collect_trace=True)
        assert_trace_valid(trace, model)

    def test_protocol_violation_names_slot(self):
        trunc = Truncation(20, 3)
        acts = {s: Action.RETRANSMIT for s in enumerate_states(trunc)}
        bad = DeterministicTable(acts, trunc)
        with pytest.raises(ProtocolViolationError) as err:
            run(bad, ChannelModel(0.5, 0.5, 3), 10, seed=0)
        assert err.value.slot == 1


class TestLongRunAgreement:
    def test_threshold_cost_converges(self):
        model = ChannelModel(0.5, 1.0, 0)
        stats = evaluate_simulated(ThresholdPolicy(4), model, 100_000, 10, seed=11)
        se = np.sqrt(stats.var_cost / 10)
        assert abs(stats.mean_cost - 0.4) <= 3 * se + 1e-4

    def test_mixture_simulation_matches_exact(self):
        model = ChannelModel(0.5, 1.0, 0)
        trunc = Truncation(200, 0)
        mix = RenewalMixture(ThresholdPolicy(4), ThresholdPolicy(5), 2.0 / 7.0)
        assert oracles.simulation_excess([(mix, model, trunc)], 100_000, 10, 13, 2e-5) <= 3.0

    @pytest.mark.parametrize("horizon", [19_999, 20_000, 20_001, 20_002])
    def test_periodic_cost_is_compared_at_its_horizon(self, horizon, monkeypatch):
        # The schedule fixes the transmissions, so every replication has the
        # same cost, off 1/3 by up to 1/horizon; at 19,999 and 20,002 slots
        # that rounding exceeds the slack, and with no variance a comparison
        # with 1/3 would count it as infinitely many standard errors.
        case = [(PeriodicPolicy(3), ChannelModel(0.5, 0.5, 3), Truncation(100, 3))]
        assert oracles.simulation_excess(case, horizon, 8, 7, 2e-5) <= 3.0
        # One transmission more per replication is well past the slack.
        real = simulate.evaluate_simulated

        def one_more(*args):
            stats = real(*args)
            return dataclasses.replace(stats, mean_cost=stats.mean_cost + 1.0 / horizon)

        monkeypatch.setattr(simulate, "evaluate_simulated", one_more)
        assert oracles.simulation_excess(case, horizon, 8, 7, 2e-5) == math.inf


class TestBaseline:
    def test_periods(self):
        assert baseline_periodic(0.4).period == 3
        assert baseline_periodic(1.0).period == 1

    def test_cost_under_budget(self):
        stats, _ = run(baseline_periodic(0.4), ChannelModel(0.5, 1.0, 0), 90_000, seed=1)
        assert stats.mean_cost == pytest.approx(1 / 3, abs=1e-4)
        assert stats.mean_cost <= 0.4

    def test_error_free_cycle_average(self):
        stats, _ = run(baseline_periodic(0.2), ChannelModel(TINY, 1.0, 0), 100_000, seed=1)
        assert stats.mean_aoi == pytest.approx(3.0, abs=1e-3)

    def test_error_free_quarter_budget_exact(self):
        # Horizon is a multiple of the period, so the accounting is exact.
        stats = evaluate_simulated(baseline_periodic(0.25), ChannelModel(TINY, 1.0, 0), 10_000, 3, seed=2)
        assert stats.mean_cost == pytest.approx(0.25, abs=1e-15)
        assert stats.mean_aoi == pytest.approx(2.5, abs=1e-3)

    def test_ignores_feedback(self):
        _, trace = run(baseline_periodic(0.25), ChannelModel(0.9, 1.0, 0), 100, seed=2, collect_trace=True)
        tx_slots = (np.flatnonzero(trace.action != Action.IDLE) + 1).tolist()
        assert tx_slots == [1, 5, 9, 13, 17, 21, 25, 29, 33, 37, 41, 45, 49, 53, 57, 61, 65, 69, 73, 77, 81, 85, 89, 93, 97]


class TestNoRetransmitAfterIdle:
    def test_solver_policy_traces_comply(self):
        # The attempt marker resets on idle slots, so a retransmission can
        # only ever follow a failed transmission.
        model = ChannelModel(0.5, 0.3, 5)
        trunc = Truncation(60, 5)
        out = solve(model, trunc, 4.0)
        _, trace = run(out.policy, model, 20_000, seed=9, collect_trace=True)
        assert not ((trace.action[:-1] == Action.IDLE) & (trace.action[1:] == Action.RETRANSMIT)).any()


class TestRunStatsAggregation:
    def test_per_rep_vectors_and_variance(self):
        model = ChannelModel(0.5, 1.0, 0)
        stats = evaluate_simulated(ThresholdPolicy(3), model, 5_000, 7, seed=17)
        assert len(stats.aoi_per_rep) == 7
        assert len(stats.cost_per_rep) == 7
        assert stats.mean_aoi == pytest.approx(np.mean(stats.aoi_per_rep))
        assert stats.var_aoi == pytest.approx(np.var(stats.aoi_per_rep, ddof=1))
        for per_rep in (stats.aoi_per_rep, stats.cost_per_rep):
            assert per_rep.dtype == np.float64 and not per_rep.flags.writeable

    @pytest.mark.parametrize("kind", ["threshold", "table"])
    def test_variance_matches_the_chains_asymptotic_variance(self, kind):
        # A time average over H slots has variance sigma^2 / H to first order,
        # with sigma^2 = 2 pi(c~ h) - pi(c~^2), c~ = c - g and h the
        # differential values of c (Kemeny & Snell, Finite Markov Chains, 1960).
        model, trunc = ChannelModel(0.5, 0.5, 3), Truncation(120, 3)
        policy = ThresholdPolicy(4) if kind == "threshold" else solve(model, trunc, 5.0).policy
        space = StateSpace(model, trunc)
        branch, tx = induced_chain(policy, space)
        chain = BorderChain(space, branch)
        pi = chain.stationary()
        pi /= pi.sum()
        horizon = 2_000
        stats = evaluate_simulated(policy, model, horizon, 1_000, seed=11)
        for (g, h), cost, var in zip(chain.values((space.delta, tx)), (space.delta, tx), (stats.var_aoi, stats.var_cost)):
            c = cost - g
            sigma2 = 2.0 * pi @ (c * h) - pi @ (c * c)
            assert 0.8 <= var * horizon / sigma2 <= 1.2, (sigma2, var * horizon / sigma2)

    @pytest.mark.parametrize(
        "kind, constants", [("threshold", (-3.36, -0.72)), ("table", (-3.0163, -0.7419))], ids=["threshold", "table"]
    )
    def test_mean_matches_the_chains_start_from_the_renewal_state(self, kind, constants):
        # From (1, 0) the expected total of a cost c over H slots is
        # H g + h(1, 0) - e0 P^H h (Puterman, Markov Decision Processes, 1994,
        # section 8.2), with h the differential values of c.  e0 P^H tends to
        # pi, so a time average over H slots is g + k / H to first order, with
        # k = h(1, 0) - pi h.
        model, trunc = ChannelModel(0.5, 0.5, 3), Truncation(120, 3)
        policy = ThresholdPolicy(4) if kind == "threshold" else solve(model, trunc, 5.0).policy
        space = StateSpace(model, trunc)
        branch, tx = induced_chain(policy, space)
        chain = BorderChain(space, branch)
        pi = chain.stationary()
        pi /= pi.sum()
        P, _ = spec.chain(policy, model, trunc)
        horizon, reps = 200, 5_000
        stats = evaluate_simulated(policy, model, horizon, reps, seed=5)
        costs, means, variances = (space.delta, tx), (stats.mean_aoi, stats.mean_cost), (stats.var_aoi, stats.var_cost)
        for (g, h), cost, k_ref, mean, var in zip(chain.values(costs), costs, constants, means, variances):
            start, total = np.eye(len(P))[0], 0.0
            for slots in range(1, 51):
                total += start @ cost
                start = start @ P
                if slots in (1, 7, 50):
                    assert abs(total - (slots * g + h[0] - start @ h)) <= 1e-12 * slots * g
            k = h[0] - pi @ h
            assert k == pytest.approx(k_ref, abs=1e-4)
            # The start from (1, 0) shows: the runs' mean sits off g, and on g + k / H.
            se = math.sqrt(var / reps)
            assert abs(mean - (g + k / horizon)) <= 3.0 * se
            assert abs(mean - g) > 4.0 * se

    def test_replications_are_independent_streams(self):
        model = ChannelModel(0.5, 1.0, 0)
        stats = evaluate_simulated(ThresholdPolicy(3), model, 2_000, 4, seed=23)
        assert len(set(stats.aoi_per_rep)) > 1


class TestSlotEnv:
    def test_dynamics_match_protocol(self):
        rng = np.random.default_rng(0)
        env = SlotEnv(ChannelModel(TINY, 1.0, 3), rng)
        s, ok = env.step(Action.NEW_UPDATE)
        assert s == State(1, 0) and ok is True
        s, ok = env.step(Action.IDLE)
        assert s == State(2, 0) and ok is None

    def test_rejects_bad_retransmit(self):
        env = SlotEnv(ChannelModel(0.5, 0.5, 3), np.random.default_rng(0))
        with pytest.raises(ProtocolViolationError):
            env.step(Action.RETRANSMIT)

    @pytest.mark.parametrize("r_max", [0, 3, 40])
    def test_step_matches_transitions(self, r_max):
        # Uniform 0 fails every transmission, the largest uniform delivers it;
        # together they must reach exactly the support of the scalar rule.
        model = ChannelModel(0.6, 0.95, r_max)
        assert model.r_max == r_max  # g(r) does not underflow this early
        big = Truncation(10**9, r_max)
        ages = range(1, 16)  # attempts up to 14
        for s in (State(d, r) for d in ages for r in range(min(d, r_max + 1))):
            allowed = spec.admissible_actions(s, model, big)
            for a in Action:
                outcomes = set()
                for u, delivered in ((0.0, False), (1.0 - 2.0**-53, True)):
                    env = SlotEnv(model, ForcedUniform(u))
                    env.state = s
                    if a not in allowed:
                        with pytest.raises(ProtocolViolationError):
                            env.step(a)
                        continue
                    nxt, ok = env.step(a)
                    assert ok is (None if a is Action.IDLE else delivered)
                    outcomes.add(nxt)
                if a in allowed:
                    assert outcomes == {e.next for e in spec.transitions(s, a, model, big)}, (s, a)

    def test_outcome_table_built_once(self, monkeypatch):
        calls = []
        real = simulate.slot_outcomes
        monkeypatch.setattr(simulate, "slot_outcomes", lambda *args: calls.append(args) or real(*args))
        env = SlotEnv(ChannelModel(0.6, 0.95, 40), ForcedUniform(0.0))
        for a in [Action.NEW_UPDATE] + [Action.RETRANSMIT] * 39:
            env.step(a)
        assert env.state.r == 40 and len(calls) == 1

    def test_a_long_attempt_cap_loads_the_table_as_the_attempts_grow(self):
        model = ChannelModel(0.5, 0.999, 10**6)
        assert model.r_max == 743_663  # cut back to where g(r) underflows to 0
        SlotEnv(ChannelModel(0.5, 0.5, 3), ForcedUniform(0.0))  # first-call costs outside the measurement
        tracemalloc.start()
        start = time.perf_counter()
        env = SlotEnv(model, ForcedUniform(0.0))
        seconds, (_, peak) = time.perf_counter() - start, tracemalloc.get_traced_memory()
        tracemalloc.stop()
        assert seconds < 0.05 and peak < 2**20
        big = Truncation(10**9, model.r_max)
        # Uniform 0 fails every transmission: 200 attempts, past the first loads' last columns.
        for a in [Action.NEW_UPDATE] + [Action.RETRANSMIT] * 199:
            fail, _ = spec.transitions(env.state, a, model, big)
            assert env.step(a) == (fail.next, False)
        assert env.state == State(201, 200)
        env.rng = ForcedUniform(1.0 - 2.0**-53)
        _, deliver = spec.transitions(env.state, Action.RETRANSMIT, model, big)
        assert env.step(Action.RETRANSMIT) == (deliver.next, True)


class ForcedUniform:
    """Stub generator whose every uniform is ``u``."""

    def __init__(self, u):
        self.u = u

    def random(self):
        return self.u


class Recording:
    """A generator that keeps each array it draws uniforms into, in ``outs``."""

    def __init__(self, rng, outs):
        self.rng, self.outs, self.bit_generator = rng, outs, rng.bit_generator

    def random(self, size=None, out=None):
        if out is not None:
            self.outs.append(out)
        return self.rng.random(size, out=out)


def harq_table(model, trunc, eta):
    policy = solve(model, trunc, eta).policy
    assert Action.RETRANSMIT in spec.actions(policy).values()
    return policy


def retransmit_after_failure(trunc):
    """Fresh update at r = 0, retransmission otherwise, even at a model's cap."""
    acts = {s: (Action.NEW_UPDATE if s.r == 0 else Action.RETRANSMIT) for s in enumerate_states(trunc)}
    return DeterministicTable(acts, trunc)


class TestCycleKernel:
    def test_never_renewing_chain_is_one_partial_cycle(self):
        # Idling everywhere: the age climbs 1, 2, ..., horizon, far past n_max.
        trunc = Truncation(20, 3)
        idle = DeterministicTable({s: Action.IDLE for s in enumerate_states(trunc)}, trunc)
        horizon = 3001
        stats, trace = run(idle, ChannelModel(0.5, 0.5, 3), horizon, seed=4, collect_trace=True)
        assert stats.mean_aoi == (horizon + 1) / 2
        assert stats.mean_cost == 0.0
        assert (trace.next_delta[-1], trace.next_r[-1]) == (horizon + 1, 0)

    def test_replications_do_not_depend_on_their_count(self):
        model = ChannelModel(0.5, 0.5, 3)
        policy = harq_table(model, Truncation(60, 3), 4.0)
        four = evaluate_simulated(policy, model, 3_000, 4, seed=41)
        eight = evaluate_simulated(policy, model, 3_000, 8, seed=41)
        assert four.aoi_per_rep.tobytes() == eight.aoi_per_rep[:4].tobytes()
        assert four.cost_per_rep.tobytes() == eight.cost_per_rep[:4].tobytes()

    def test_retransmitting_table_matches_exact(self):
        model = ChannelModel(0.6, 0.4, 4)
        trunc = Truncation(100, 4)
        policy = harq_table(model, trunc, 4.0)
        assert oracles.simulation_excess([(policy, model, trunc)], 50_000, 8, 8675309, 2e-5) <= 3.0

    def test_joined_cycles_connect(self):
        model = ChannelModel(0.5, 0.5, 3)
        policy = harq_table(model, Truncation(60, 3), 4.0)
        _, trace = run(policy, model, 20_000, seed=12, collect_trace=True)
        assert all(len(column) == 20_000 for column in trace)
        assert_connected(trace)

    def test_unbounded_attempts_are_exact(self):
        # Under a wide model cap long runs of failed retransmissions take the
        # attempt count past 100.  Lane 0's first cycle is most of the
        # horizon, so the run takes about 77,000 steps before its cycles
        # cover it, and the coverage check must not grow with the steps.
        model = ChannelModel(0.999, 0.9999, 1000)
        policy = retransmit_after_failure(Truncation(20, 3))
        horizon = 100_000
        stats, trace = run(policy, model, horizon, seed=8, collect_trace=True)
        assert trace.next_r.max() > 100
        assert_trace_valid(trace, model)
        assert trace.delta.sum() == pytest.approx(stats.mean_aoi * horizon, rel=1e-14)

    @pytest.mark.parametrize("kind", ["cycles", "periodic"])
    def test_outcome_table_built_once(self, kind, monkeypatch):
        calls = []
        real = simulate.slot_outcomes
        monkeypatch.setattr(simulate, "slot_outcomes", lambda *args: calls.append(args) or real(*args))
        policy = retransmit_after_failure(Truncation(20, 3)) if kind == "cycles" else PeriodicPolicy(3)
        run(policy, ChannelModel(0.999, 0.9999, 1000), 3_000, seed=8)
        assert len(calls) == 1

    def test_outcome_table_reaches_only_as_far_as_the_horizon(self, monkeypatch):
        # A model with no practical cap: g underflows at r = 743,663.  Before
        # its slot t a lane has made at most t - 1 attempts, so a run of the
        # horizon needs no column past it.
        horizon, widths = 1_000, []
        real = simulate.slot_outcomes

        def spy(model, width=2):
            widths.append(width)
            assert width <= horizon + 1  # before a table of every attempt count is built
            return real(model, width)

        monkeypatch.setattr(simulate, "slot_outcomes", spy)
        wide = ChannelModel(0.5, 0.999, 10**6)
        assert wide.r_max == 743_663
        policy = ThresholdPolicy(4)
        stats, trace = run(policy, wide, horizon, seed=3, collect_trace=True)
        capped, capped_trace = run(policy, ChannelModel(0.5, 0.999, 3), horizon, seed=3, collect_trace=True)
        assert (stats.mean_aoi, stats.mean_cost) == (capped.mean_aoi, capped.mean_cost)
        assert all(a.tobytes() == b.tobytes() for a, b in zip(trace, capped_trace))
        # A table that retransmits after every failure keeps to the slot rule too.
        _, trace = run(retransmit_after_failure(Truncation(20, 3)), wide, horizon, seed=3, collect_trace=True)
        assert trace.r.max() > 1
        assert_trace_valid(trace, wide)
        assert widths == [horizon + 1, 4, horizon + 1]

    def test_table_sizes_do_not_depend_on_the_attempt_cap(self, monkeypatch):
        sizes = []
        real = simulate._kernel_tables

        def spy(policy):
            tables = real(policy)
            sizes.append([t.size for t in tables[:4]])
            return tables

        monkeypatch.setattr(simulate, "_kernel_tables", spy)
        policy = harq_table(ChannelModel(0.5, 0.5, 3), Truncation(60, 3), 4.0)
        for r_max in (3, 20_000):
            run(policy, ChannelModel(0.5, 1.0, r_max), 2_000, seed=1)
        assert sizes == [[policy.table.size // len(Action)] * 4] * 2

    @pytest.mark.parametrize("kind", ["arq-threshold", "harq-table"])
    def test_every_horizon_is_a_prefix_of_one_long_run(self, kind):
        # Each horizon ends the joined cycles in another round, often several
        # rounds before the last cycle the coverage check saw complete.
        if kind == "arq-threshold":
            model, policy = ChannelModel(0.5, 1.0, 0), arq.optimal_policy(0.5, 0.35).policy()
        else:
            model = ChannelModel(0.5, 0.5, 3)
            policy = harq_table(model, Truncation(60, 3), 4.0)
        _, trace = run(policy, model, 60_000, np.random.default_rng(5), collect_trace=True)
        ages = np.cumsum(trace.delta)
        sends = np.cumsum(trace.action != Action.IDLE)
        for horizon in range(1_000, 60_001, 1_009):
            stats, _ = run(policy, model, horizon, np.random.default_rng(5))
            assert stats.mean_aoi == ages[horizon - 1] / horizon, horizon
            assert stats.mean_cost == sends[horizon - 1] / horizon, horizon

    def test_violation_raised_exactly_within_the_horizon(self):
        model = ChannelModel(0.5, 0.5, 3)
        policy = retransmit_after_failure(Truncation(20, 3))
        with pytest.raises(ProtocolViolationError) as err:
            run(policy, model, 100_000, np.random.default_rng(19))
        slot = err.value.slot
        assert slot > 1 and "attempt cap" in str(err.value)
        _, trace = run(policy, model, slot - 1, np.random.default_rng(19), collect_trace=True)
        assert trace.next_r[-1] == 3  # the next slot retransmits at the cap
        with pytest.raises(ProtocolViolationError) as err:
            run(policy, model, slot, np.random.default_rng(19))
        assert err.value.slot == slot


def mostly_renewing(trunc):
    """Send at age 3, retransmit once, idle elsewhere: a few cycles, then idling forever.

    A skipped send (probability 0.05) or a failed retransmission leaves the
    age past 3 with no packet in flight, and nothing is ever sent again.
    """
    probs = {s: {Action.IDLE: 1.0} for s in enumerate_states(trunc)}
    probs[State(3, 0)] = {Action.NEW_UPDATE: 0.95, Action.IDLE: 0.05}
    probs[State(4, 1)] = {Action.RETRANSMIT: 1.0}
    return RandomizedTable(probs, trunc)


@pytest.mark.parametrize(
    "policy",
    [
        RenewalMixture(ThresholdPolicy(4), ThresholdPolicy(6, 0.5), 0.4),
        baseline_periodic(0.3),
        mostly_renewing(Truncation(10, 3)),
        None,  # a retransmitting RVI table
    ],
    ids=["mixture", "periodic", "dying", "table"],
)
def test_short_trace_is_prefix_of_longer_run(policy):
    model = ChannelModel(0.5, 0.5, 3)
    if policy is None:
        policy = harq_table(model, Truncation(60, 3), 4.0)
    _, short = run(policy, model, 50, np.random.default_rng(1), collect_trace=True)
    stats, trace = run(policy, model, 5_000, np.random.default_rng(1), collect_trace=True)
    assert all(np.array_equal(column[:50], prefix) for column, prefix in zip(trace, short))
    assert_connected(trace)
    assert trace.delta.sum() == pytest.approx(stats.mean_aoi * 5_000, rel=1e-14)
    assert np.count_nonzero(trace.action) == pytest.approx(stats.mean_cost * 5_000, rel=1e-14)


def reference_trace(policy, model, horizon, rng):
    """Slot-by-slot reference of ``run`` on the same uniforms, from ``spec.probs``.

    Returns the ``slot_rows`` of the trace.

    Cycle ``i`` is the next cycle of lane ``i % _LANES``; lane ``l`` at its
    step ``s`` reads uniforms ``[:, s % _BLOCK, l]`` of block ``s // _BLOCK``.
    A step at (1, 0) first draws a mixture's component.  With no packet in
    flight, a step then idles through every age whose action is surely idle,
    reading nothing more, and decides at the next one; a sure idle with a
    packet in flight is a step of its own.  The periodic baseline reads one
    channel uniform per transmission slot.
    """
    lanes, block = simulate._LANES, simulate._BLOCK
    blocks = []
    steps = [0] * lanes
    trace = []

    def slot(state, action, u_chan):
        if action is Action.IDLE:
            return False, State(state.delta + 1, 0)
        if action is Action.RETRANSMIT and not 1 <= state.r < model.r_max:
            raise ProtocolViolationError(len(trace) + 1, "inadmissible retransmission")
        attempts = 0 if action is Action.NEW_UPDATE else state.r
        if u_chan >= model.error_prob(attempts):
            return True, State(attempts + 1, 0)
        failed = 1 if model.r_max >= 1 else 0
        return False, State(state.delta + 1, failed if action is Action.NEW_UPDATE else state.r + 1)

    def choose(probs, u):
        acc = 0.0
        for a in Action:
            acc += probs.get(a, 0.0)
            if u < acc or not any(probs.get(b, 0.0) > 0.0 for b in Action if b > a):
                return a

    if isinstance(policy, PeriodicPolicy):
        state = State(1, 0)
        for t in range(1, horizon + 1):
            action = Action.NEW_UPDATE if (t - 1) % policy.period == 0 else Action.IDLE
            delivered, after = slot(state, action, rng.random() if action else 0.0)
            trace.append((*state, action, delivered, *after))
            state = after
        return trace
    for i in range(horizon):
        lane, state = i % lanes, State(1, 0)
        while len(trace) < horizon:
            while steps[lane] // block >= len(blocks):
                blocks.append(rng.random((3, block, lanes)))
            u_act, u_chan, u_mix = blocks[steps[lane] // block][:, steps[lane] % block, lane]
            steps[lane] += 1
            if state == State(1, 0) and isinstance(policy, RenewalMixture):
                active = policy.first if u_mix < policy.weight_first else policy.second
            elif state == State(1, 0):
                active = policy
            while state.r == 0 and set(spec.probs(active, state)) == {Action.IDLE} and len(trace) < horizon:
                after = State(state.delta + 1, 0)
                trace.append((*state, Action.IDLE, False, *after))
                state = after
            if len(trace) == horizon:
                break
            action = choose(spec.probs(active, state), u_act)
            delivered, after = slot(state, action, u_chan)
            trace.append((*state, action, delivered, *after))
            state = after
            if state == State(1, 0):
                break
        if len(trace) == horizon:
            return trace


KERNEL_CASES = [
    "harq-table", "randomized-table", "threshold", "mixture", "periodic",
    "dying", "dying-arq", "top-row-retransmit", "unbounded-attempts", "far-threshold",
    "idle-after-failure",
]


def kernel_case(case):
    """``(policy, model, horizon)`` of a kernel case checked against the slot-by-slot reference."""
    model = ChannelModel(0.5, 0.5, 3)
    w = 2.0 / 7.0
    horizon = 3_000
    if case == "harq-table":
        policy = harq_table(model, Truncation(60, 3), 4.0)
    elif case == "randomized-table":
        trunc = Truncation(30, 3)
        probs = {s: {Action.NEW_UPDATE: 1.0} if s.delta > 4 else {Action.IDLE: 1.0} for s in enumerate_states(trunc)}
        for s in enumerate_states(trunc):
            if s.delta == 4:
                probs[s] = {Action.NEW_UPDATE: w, Action.IDLE: 1.0 - w}
            elif s.r == 1 and s.delta < 8:
                probs[s] = {Action.RETRANSMIT: 0.5, Action.IDLE: 0.2, Action.NEW_UPDATE: 0.3}
        policy = RandomizedTable(probs, trunc)
    elif case == "threshold":
        policy = ThresholdPolicy(4, w)
    elif case == "mixture":
        policy = RenewalMixture(harq_table(model, Truncation(60, 3), 4.0), ThresholdPolicy(6, 0.5), 0.4)
    elif case == "periodic":
        policy = PeriodicPolicy(3)
    elif case == "dying":
        policy = mostly_renewing(Truncation(10, 3))
    elif case == "dying-arq":
        # A failed send at age 32 starts an endless idle stretch, and its
        # slot may be the last one simulated before the idle tail.
        model, trunc = ChannelModel(0.5, 1.0, 0), Truncation(33, 0)
        policy = DeterministicTable({s: Action(s.delta == 32) for s in enumerate_states(trunc)}, trunc)
    elif case == "top-row-retransmit":
        # At the last age row only the state without a packet in flight idles.
        trunc = Truncation(33, 3)
        acts = {s: Action.IDLE for s in enumerate_states(trunc)}
        acts[State(31, 0)] = Action.NEW_UPDATE
        acts[State(32, 1)] = acts[State(33, 2)] = Action.RETRANSMIT
        policy = DeterministicTable(acts, trunc)
    elif case == "unbounded-attempts":
        model = ChannelModel(0.999, 0.9999, 1000)
        policy = retransmit_after_failure(Truncation(20, 3))
    elif case == "far-threshold":
        # About ten cycles of 3000 slots, each a jump and one or two decisions.
        model, policy, horizon = ChannelModel(0.5, 1.0, 0), ThresholdPolicy(3000), 30_000
    else:
        # A failed send at age 1 leaves a packet in flight; idling at (2, 1)
        # is a step of its own and lands at (3, 0), from which the next step
        # jumps to age 6.
        trunc = Truncation(12, 3)
        acts = {
            s: Action.IDLE if 1 < s.delta < 6 or s.r == 3 else Action(min(s.r, 1) + 1)
            for s in enumerate_states(trunc)
        }
        policy = DeterministicTable(acts, trunc)
    return policy, model, horizon


@pytest.mark.parametrize("case", KERNEL_CASES)
def test_kernel_matches_slot_by_slot_reference(case):
    policy, model, horizon = kernel_case(case)
    _, trace = run(policy, model, horizon, np.random.default_rng(18), collect_trace=True)
    assert slot_rows(trace) == reference_trace(policy, model, horizon, np.random.default_rng(18))


@pytest.mark.parametrize("case", KERNEL_CASES)
def test_untraced_sums_match_the_trace(case):
    # The untraced run sums ages and transmissions without building the
    # trace that the reference checks; both must count the same slots.  Its
    # averages are integer sums over the horizon, and at these sizes two
    # sums one apart never round to the same quotient.
    policy, model, horizon = kernel_case(case)
    stats, _ = run(policy, model, horizon, np.random.default_rng(18))
    _, trace = run(policy, model, horizon, np.random.default_rng(18), collect_trace=True)
    assert stats.mean_aoi == trace.delta.sum() / horizon
    assert stats.mean_cost == np.count_nonzero(trace.action) / horizon


def outcome(f):
    """What ``f()`` returns, or the type, slot and message of the ``ProtocolViolationError`` it raises."""
    try:
        return f()
    except ProtocolViolationError as err:
        return type(err), err.slot, str(err)


@pytest.mark.parametrize("case", KERNEL_CASES)
def test_int64_history_changes_no_value(case, monkeypatch):
    # Horizons from _NARROW on keep ages and slot counts as int64: the same
    # steps, booked without the casts to int32.
    policy, model, horizon = kernel_case(case)

    def runs():
        _, trace = run(policy, model, horizon, np.random.default_rng(18), collect_trace=True)
        stats = outcome(lambda: stats_values(evaluate_simulated(policy, model, horizon, 5, seed=7)))
        return trace, stats

    (trace, stats), narrow = runs(), simulate._NARROW
    monkeypatch.setattr(simulate, "_NARROW", 1)
    wide_trace, wide_stats = runs()
    assert horizon < narrow and wide_stats == stats
    assert all(np.array_equal(column, wide) for column, wide in zip(trace, wide_trace, strict=True))


def test_violation_slot_matches_reference():
    model = ChannelModel(0.5, 0.5, 3)
    policy = retransmit_after_failure(Truncation(20, 3))
    with pytest.raises(ProtocolViolationError) as ref:
        reference_trace(policy, model, 100_000, np.random.default_rng(23))
    with pytest.raises(ProtocolViolationError) as err:
        run(policy, model, 100_000, np.random.default_rng(23))
    assert err.value.slot == ref.value.slot


def verify_case(kind):
    """``(policy, model)`` of one of the five policy kinds of acceptance 10."""
    model, arq_model = ChannelModel(0.5, 0.5, 3), ChannelModel(0.5, 1.0, 0)
    w = 2.0 / 7.0
    if kind == "table":
        return solve(model, Truncation(120, 3), 5.0).policy, model
    if kind == "randomized":
        trunc = Truncation(200, 0)
        probs = {
            s: {Action.NEW_UPDATE: w, Action.IDLE: 1.0 - w} if s.delta == 4
            else {Action.NEW_UPDATE: 1.0} if s.delta > 4 else {Action.IDLE: 1.0}
            for s in enumerate_states(trunc)
        }
        return RandomizedTable(probs, trunc), arq_model
    if kind == "threshold":
        return arq.optimal_policy(0.5, 0.35).policy(), arq_model
    if kind == "mixture":
        return RenewalMixture(ThresholdPolicy(4), ThresholdPolicy(5), w), arq_model
    return PeriodicPolicy(3), model


VERIFY_KINDS = ["table", "randomized", "threshold", "mixture", "periodic"]


def next_outputs(rng):
    """The next outputs of a generator, a buffered half of a 64-bit one first."""
    return rng.integers(0, 2**32, 3, dtype=np.uint32).tolist(), rng.bit_generator.random_raw(3).tolist()


def stats_values(stats):
    """The fields of a ``RunStats``, its arrays as bytes, so that two compare bit for bit with ``==``."""
    return tuple(x.tobytes() if isinstance(x, np.ndarray) else x for x in dataclasses.astuple(stats))


def assert_same_run(first, second):
    (stats, trace), (ref_stats, ref_trace) = first, second
    assert stats_values(stats) == stats_values(ref_stats)
    assert all(np.array_equal(column, ref) for column, ref in zip(trace or (), ref_trace or (), strict=True))


@st.composite
def kernel_components(draw):
    """A threshold, or a ``RandomizedTable`` that retransmits in a few drawn cells, with 1 to 7 attempt columns."""
    if draw(st.booleans()):
        return ThresholdPolicy(draw(st.integers(1, 6)), draw(st.sampled_from([1.0, 0.5])))
    n_att = draw(st.integers(1, 7))
    n_max = draw(st.integers(max(n_att, 2), n_att + 3))
    table = np.zeros((n_max + 1, n_att, len(Action)))
    table[..., Action.IDLE] = 1.0
    for delta, r in draw(st.sets(st.tuples(st.integers(0, n_max), st.integers(0, n_att - 1)), max_size=3)):
        table[delta, r] = 0.5, 0.0, 0.5
    return RandomizedTable(table, Truncation(n_max, n_att - 1))


def may_retransmit_where_refused(policy, model):
    """Whether some component retransmits with positive probability in a table
    column that serves an attempt count the model refuses a retransmission at:
    0, with no failed packet in flight, or the model's cap ``r_max``.  Attempt
    counts past a table's last column read that column."""
    parts = (policy.first, policy.second) if isinstance(policy, RenewalMixture) else (policy,)
    refused = [r for r in range(model.r_max + 1) if not 1 <= r < model.r_max]
    return any((p.table[:, np.minimum(refused, p.table.shape[1] - 1), Action.RETRANSMIT] > 0.0).any() for p in parts)


class TestKernel:
    @pytest.mark.parametrize("kind", VERIFY_KINDS)
    @pytest.mark.parametrize("horizon", [2_000, 100_000])
    def test_replications_are_fresh_runs(self, kind, horizon):
        # One kernel serves every replication; each equals a run that builds its own.
        policy, model = verify_case(kind)
        stats = evaluate_simulated(policy, model, horizon, 3, seed=2024)
        for rep in range(3):
            alone, _ = run(policy, model, horizon, np.random.default_rng([2024, rep]))
            assert (stats.aoi_per_rep[rep], stats.cost_per_rep[rep]) == (alone.mean_aoi, alone.mean_cost)

    @given(
        first=kernel_components(),
        second=st.none() | kernel_components(),
        r_max=st.integers(0, 5),
    )
    @settings(max_examples=200, deadline=None)
    def test_may_violate_reads_the_refused_attempt_counts(self, first, second, r_max):
        policy = first if second is None else RenewalMixture(first, second, 0.5)
        model = ChannelModel(0.5, 0.5, r_max)
        assert simulate.Kernel(policy, model, 100, 1).may_violate == may_retransmit_where_refused(policy, model)

    def test_evaluation_builds_the_kernel_once(self, monkeypatch):
        calls = []
        real = simulate._kernel_tables
        monkeypatch.setattr(simulate, "_kernel_tables", lambda policy: calls.append(policy) or real(policy))
        policy, model = verify_case("table")
        evaluate_simulated(policy, model, 2_000, 5, seed=1)
        assert len(calls) == 1

    @pytest.mark.parametrize("kind", ["arq-threshold", "harq-table"])
    @pytest.mark.parametrize("horizon", [2_000, 100_000])
    @pytest.mark.parametrize(
        "stream", [np.random.default_rng, lambda seed: np.random.Generator(np.random.SFC64(seed))], ids=["pcg64", "sfc64"]
    )
    def test_mixture_of_one_policy_is_that_policy(self, kind, horizon, stream):
        # A mixture reads every block's component row, and the policy alone
        # skips it on default_rng's PCG64 stream (SFC64 cannot skip, and
        # draws it); both leave the stream at the same place.
        if kind == "arq-threshold":
            model, policy = ChannelModel(0.5, 1.0, 0), arq.optimal_policy(0.5, 0.35).policy()
        else:
            model = ChannelModel(0.5, 0.5, 3)
            policy = harq_table(model, Truncation(60, 3), 4.0)
        mixed, alone = stream(7), stream(7)
        assert_same_run(
            run(RenewalMixture(policy, policy, 0.3), model, horizon, mixed, collect_trace=True),
            run(policy, model, horizon, alone, collect_trace=True),
        )
        assert next_outputs(mixed) == next_outputs(alone)

    @pytest.mark.parametrize("bits", [np.random.PCG64, np.random.SFC64], ids=["pcg64", "sfc64"])
    def test_a_sure_table_reads_no_action_uniforms(self, bits, monkeypatch):
        # The same table read as if it were randomized draws and compares its
        # action uniforms, and takes the same actions.
        model = ChannelModel(0.5, 0.5, 3)
        policy = harq_table(model, Truncation(60, 3), 4.0)
        kernel = simulate.Kernel(policy, model, 2_000, 1)
        assert kernel.sure is not None and kernel.rows == slice(1, 2)
        horizons = (2_000, 100_000)
        sure = [np.random.Generator(bits(11)) for _ in horizons]
        runs = [run(policy, model, horizon, rng, collect_trace=True) for horizon, rng in zip(horizons, sure)]

        real = simulate.Kernel

        def drawn(policy, model, horizon, replications):
            kernel = real(policy, model, horizon, replications)
            kernel.sure, kernel.rows = None, slice(0, 2)
            kernel.u = np.empty(2 * kernel.u.size)  # room for the action row too
            return kernel

        monkeypatch.setattr(simulate, "Kernel", drawn)
        for horizon, sure_rng, sure_run in zip(horizons, sure, runs):
            read = np.random.Generator(bits(11))
            assert_same_run(sure_run, run(policy, model, horizon, read, collect_trace=True))
            assert next_outputs(sure_rng) == next_outputs(read)

    def test_a_buffered_half_output_is_kept(self):
        # A stream holding half of a 64-bit output does not skip, so the half
        # survives the run as it would survive drawing.
        # The mixture of randomized thresholds reads every row and skips none.
        model, policy = ChannelModel(0.5, 1.0, 0), ThresholdPolicy(4, 0.5)
        held, drawn = np.random.default_rng(5), np.random.default_rng(5)
        held.integers(0, 2**32, dtype=np.uint32)
        drawn.integers(0, 2**32, dtype=np.uint32)
        run(policy, model, 3_000, held)
        run(RenewalMixture(policy, policy, 0.5), model, 3_000, drawn)
        assert next_outputs(held) == next_outputs(drawn)


def batches_of(size, horizon, monkeypatch):
    """Make ``evaluate_simulated`` step up to ``size`` replications side by side at
    ``horizon`` slots; returns the list that collects the sizes of its batches."""
    monkeypatch.setattr(simulate, "_BUDGET", size * simulate._LANES * simulate._history_steps(horizon))
    sizes = []
    real = simulate._simulate
    monkeypatch.setattr(simulate, "_simulate", lambda k, rngs, trace: sizes.append(len(rngs)) or real(k, rngs, trace))
    return sizes


class TestBatches:
    @pytest.mark.parametrize("size, sizes", [(1, [1] * 5), (2, [2, 2, 1]), (3, [3, 2]), (8, [5])])
    @pytest.mark.parametrize(
        "kind, horizon",
        [(kind, 2_000) for kind in VERIFY_KINDS]
        + [("table", 100_000), ("dying", 3_000), ("far-threshold", 30_000), ("unbounded-attempts", 3_000)],
        ids=lambda x: str(x),
    )
    def test_batches_do_not_change_any_replication(self, kind, horizon, size, sizes, monkeypatch):
        # Five replications, so that the last batch is partial but for one and five.
        # The kernel cases have lanes that never renew within the run: they
        # idle forever, or their cycles outlast the horizon.
        policy, model = verify_case(kind) if kind in VERIFY_KINDS else kernel_case(kind)[:2]
        alone = [run(policy, model, horizon, np.random.default_rng([2024, rep]))[0] for rep in range(5)]
        ran = batches_of(size, horizon, monkeypatch)
        stats = evaluate_simulated(policy, model, horizon, 5, seed=2024)
        assert ran == sizes
        assert stats.aoi_per_rep.tobytes() == np.array([s.mean_aoi for s in alone]).tobytes()
        assert stats.cost_per_rep.tobytes() == np.array([s.mean_cost for s in alone]).tobytes()

    @pytest.mark.parametrize("size", [1, 2, 3, 6])
    def test_violation_is_the_lowest_violating_replications(self, size, monkeypatch):
        # At 2,500 slots replications 1, 2 and 4 violate, at slots 1956, 190
        # and 365: the lowest index is not the earliest slot.
        model, horizon = ChannelModel(0.2, 0.3, 3), 2_500
        policy = retransmit_after_failure(Truncation(20, 3))
        first = None
        for rep in range(6):
            try:
                run(policy, model, horizon, np.random.default_rng([2, rep]))
            except ProtocolViolationError as err:
                first = first or (rep, err.slot, str(err))
        assert first[:2] == (1, 1956)
        batches_of(size, horizon, monkeypatch)
        with pytest.raises(ProtocolViolationError) as err:
            evaluate_simulated(policy, model, horizon, 6, seed=2)
        assert (err.value.slot, str(err.value)) == first[1:]

    @pytest.mark.parametrize("kind", ["table", "randomized", "mixture"])
    def test_later_batches_reuse_the_first_batchs_arrays(self, kind, monkeypatch):
        # Batches of 2, 2 and 1 at 2,000 slots, none outgrowing its history:
        # each books into the kernel's work arrays and draws into its block of uniforms.
        ran = batches_of(2, 2_000, monkeypatch)
        kernels, booked, drawn = [], [], []
        real_simulate, real_book = simulate._simulate, simulate._book

        def recorded(k, rngs, trace):
            kernels.append(k)
            return real_simulate(k, [Recording(rng, drawn) for rng in rngs], trace)

        monkeypatch.setattr(simulate, "_simulate", recorded)
        monkeypatch.setattr(simulate, "_book", lambda *args: booked.append(args[:4]) or real_book(*args))
        evaluate_simulated(*verify_case(kind), 2_000, 5, seed=2024)
        assert ran == [2, 2, 1] and len(set(map(id, kernels))) == 1
        k = kernels[0]
        own = k.loc, k.hd, k.ha, k.hn
        assert booked and all(np.shares_memory(x, y) for row in booked for x, y in zip(row, own, strict=True))
        assert drawn and all(np.shares_memory(u, k.u) for u in drawn)

    def test_budget_batches_short_runs_and_keeps_long_ones_apart(self):
        assert simulate._batch_size(2_000, 50) == 15
        assert simulate._batch_size(100_000, 16) == 3
        assert simulate._batch_size(1_000_000, 16) == 1
        assert simulate._batch_size(2_000, 4) == 4

    # float.hex of mean_aoi and mean_cost at seed 2024: a change to how the kernel steps and books moves none.
    PINNED = {
        (2_000, 50, "table"): ("0x1.9058793dd97f7p+1", "0x1.9702602c9081cp-2"),
        (2_000, 50, "randomized"): ("0x1.c4c9320d9945bp+1", "0x1.6562e09fe8684p-2"),
        (2_000, 50, "threshold"): ("0x1.c4c9320d9945bp+1", "0x1.6562e09fe8684p-2"),
        (2_000, 50, "mixture"): ("0x1.c4e1c58255b04p+1", "0x1.6447c30d306a3p-2"),
        (2_000, 50, "periodic"): ("0x1.409057d1782d3p+2", "0x1.55810624dd2f2p-2"),
        (100_000, 16, "table"): ("0x1.925e1b089a028p+1", "0x1.9a59f2ba9d1f6p-2"),
        (100_000, 16, "randomized"): ("0x1.c6992641b328cp+1", "0x1.66ac8605681edp-2"),
        (100_000, 16, "threshold"): ("0x1.c6992641b328cp+1", "0x1.66ac8605681edp-2"),
        (100_000, 16, "mixture"): ("0x1.c6a0f3cb3e576p+1", "0x1.66bb44e50c5ebp-2"),
        (100_000, 16, "periodic"): ("0x1.407c38b04ab60p+2", "0x1.555714b9cb685p-2"),
    }

    @pytest.mark.parametrize("horizon, replications, kind", list(PINNED), ids=lambda x: str(x))
    def test_batched_values_are_pinned(self, horizon, replications, kind):
        # Batches of 15 at 2,000 slots and of 3 at 100,000, as the sweep and the benchmark run them.
        stats = evaluate_simulated(*verify_case(kind), horizon, replications, seed=2024)
        assert (stats.mean_aoi.hex(), stats.mean_cost.hex()) == self.PINNED[horizon, replications, kind]

    @pytest.mark.parametrize("horizon", [simulate._NARROW - 1, 2**31 + 3], ids=["int32", "int64"])
    def test_idling_forever_allocates_for_the_steps_it_takes(self, horizon):
        # One step jumps past the horizon; the history is sized from the
        # budget, not from the horizon (10 GiB at 2**31 + 3 slots).
        trunc = Truncation(20, 3)
        idle = DeterministicTable({s: Action.IDLE for s in enumerate_states(trunc)}, trunc)
        stats, _ = run(idle, ChannelModel(0.5, 0.5, 3), horizon, seed=4)
        assert stats.mean_aoi == (horizon + 1) / 2
        assert stats.mean_cost == 0.0
