import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from aoi_sched import arq, oracles, rvi
from aoi_sched.errors import ConvergenceError, InaccurateSolveError, MultichainError, NoStationaryAoIError
from aoi_sched.exact import arq_eval_truncation, evaluate_exact
from aoi_sched.mdp import Action, ChannelModel, StateSpace, Truncation
from aoi_sched.policies import DeterministicTable
from aoi_sched.rvi import bellman_residual, solve

import spec

ARQ_HALF = ChannelModel(0.5, 1.0, 0)
ARQ_TRUNC = Truncation(200, 0)


def rvi_reference_gain(model, trunc, eta, epsilon=1e-11, kappa=0.5):
    """Gain by damped relative value iteration, the sweep the paper states.

    ``h <- (1-kappa) h + kappa T(h)``, re-anchored at (1, 0); the damping keeps
    chains that are periodic in the age from oscillating.  It is the readable
    specification of the optimality equation that ``solve`` answers.
    """
    space = StateSpace(model, trunc)
    ref = space.off[1]  # index of (1, 0)
    h = np.zeros(len(space))
    while True:
        exp_h = (h[space.succ_idx] * space.succ_prob).sum(axis=2)
        q = space.delta[:, None] + np.array([0.0, eta, eta]) + exp_h
        v = np.where(space.admissible, q, np.inf).min(axis=1)
        damped = (1.0 - kappa) * h + kappa * v
        h_next = damped - damped[ref]
        if np.abs(h_next - h).max() <= kappa * epsilon:
            return float(v[ref])
        h = h_next


def threshold_of(policy):
    tx = sorted(s.delta for s, a in spec.actions(policy).items() if a != Action.IDLE)
    return tx[0] if tx else None


class TestSolveArq:
    def test_threshold_structure_and_candidates(self):
        assert oracles.arq_solver_residual([(0.5, 10.0)], ARQ_TRUNC.n_max) <= 2e-8

    def test_gain_matches_analytic_lagrangian(self):
        # eta = 10 at p = 0.5 is the exact tie between thresholds 5 and 6,
        # both with Lagrangian cost 7.
        out = solve(ARQ_HALF, ARQ_TRUNC, 10.0)
        assert out.gain == pytest.approx(7.0, abs=1e-9)
        best = min(arq.lagrangian_cost(0.5, d, 10.0) for d in range(1, 100))
        assert out.gain == pytest.approx(best, abs=1e-9)

    @pytest.mark.parametrize("p, d", [(0.5, 5), (0.3, 4), (0.1, 6), (0.4, 10)])
    def test_exact_tie_reads_off_toward_idle(self, p, d):
        # At this charge thresholds d and d + 1 tie: at age d idling is as
        # good as sending, and the tie rule picks idle even where rounding
        # leaves sending a hair cheaper.
        eta = (arq.aoi_of_threshold(p, d + 1) - arq.aoi_of_threshold(p, d)) / (
            arq.cost_of_threshold(p, d) - arq.cost_of_threshold(p, d + 1)
        )
        out = solve(ChannelModel(p, 1.0, 0), ARQ_TRUNC, eta)
        assert threshold_of(out.policy) == d + 1

    def test_h_nondecreasing_in_age(self):
        # Under ARQ the states are the ages 1..n_max in StateSpace order.
        hs = solve(ARQ_HALF, ARQ_TRUNC, 10.0).h_array.tolist()
        assert len(hs) == ARQ_TRUNC.n_max
        assert all(b >= a - 1e-9 for a, b in zip(hs, hs[1:]))

    def test_reference_state_anchored(self):
        out = solve(ARQ_HALF, ARQ_TRUNC, 10.0)
        assert out.h_array[StateSpace(ARQ_HALF, ARQ_TRUNC).off[1]] == 0.0  # (1, 0)


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
        assert bellman_residual(out) <= 2e-8

    def test_unsolved_values_violate_optimality(self, monkeypatch):
        model = ChannelModel(0.3, 0.5, 9)
        trunc = Truncation(60, 9)
        monkeypatch.setattr(rvi, "_TIE_RTOL", 1e300)  # every action ties: the first policy is kept
        out = solve(model, trunc, 5.0)
        assert out.iterations == 1
        assert bellman_residual(out) > 1e-3

    @pytest.mark.parametrize(
        "model, trunc", [(ChannelModel(0.5, 0.5, 3), Truncation(60, 3)), (ARQ_HALF, Truncation(80, 0))]
    )
    def test_mapping_and_array_forms_agree(self, model, trunc):
        policy = solve(model, trunc, 5.0).policy
        assert DeterministicTable(spec.actions(policy), policy.trunc).table.tobytes() == policy.table.tobytes()

    def test_policy_is_greedy_on_q(self):
        model = ChannelModel(0.3, 0.5, 9)
        trunc = Truncation(60, 9)
        out = solve(model, trunc, 5.0)
        assert list(spec.actions(out.policy).values()) == np.argmin(out.q_array, axis=1).tolist()


class TestUnconstrainedMode:
    """At ``eta = 0`` a transmission costs nothing, so no state idles."""

    def test_never_idles(self):
        model = ChannelModel(0.5, 0.5, 3)
        trunc = Truncation(80, 3)
        out = solve(model, trunc, 0.0)
        assert all(a != Action.IDLE for a in spec.actions(out.policy).values())

    def test_residual_with_restricted_actions(self):
        model = ChannelModel(0.5, 0.5, 3)
        trunc = Truncation(80, 3)
        out = solve(model, trunc, 0.0)
        assert bellman_residual(out) <= 2e-8

    def test_beats_always_new(self):
        # Retransmissions decode more reliably, so the uncharged optimum is
        # at least as fresh as always sending fresh updates.
        model = ChannelModel(0.5, 0.5, 3)
        trunc = Truncation(80, 3)
        out = solve(model, trunc, 0.0)
        res = evaluate_exact(out.policy, model, trunc)
        assert res.avg_aoi <= 1.0 / (1.0 - 0.5) + 1e-9


class TestMonotonicityInEta:
    def test_cost_down_aoi_up_gain_up(self):
        model = ChannelModel(0.5, 0.5, 3)
        trunc = Truncation(100, 3)
        etas = [0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0]
        costs, aois, gains = [], [], []
        out = None
        for eta in etas:
            out = solve(model, trunc, eta, start=out)
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
        assert a.h_array.tobytes() == b.h_array.tobytes()
        assert a.q_array.tobytes() == b.q_array.tobytes()
        assert a.gain == b.gain
        assert spec.actions(a.policy) == spec.actions(b.policy)

    def test_iteration_limit_raises(self, monkeypatch):
        model = ChannelModel(0.3, 0.5, 5)
        trunc = Truncation(60, 5)
        needed = solve(model, trunc, 3.0).iterations
        monkeypatch.setattr(rvi, "_MAX_EVALUATIONS", needed - 1)
        with pytest.raises(ConvergenceError) as err:
            solve(model, trunc, 3.0)
        assert err.value.residual > 0.0

    def test_a_repeated_policy_raises(self, monkeypatch):
        # A forced alternation: the values of the policy that sends a fresh update in every state make
        # idling cheapest everywhere, and any other values make the fresh update cheapest.
        model, trunc = ChannelModel(0.3, 0.5, 5), Truncation(60, 5)
        evaluated = []

        def values(space, actions, eta):
            evaluated.append(actions.copy())
            h = actions.astype(np.float64)  # all ones for the fresh-update policy
            return 0.0, h, 0.0, h, None

        def costs(space, h, eta):
            q = np.ones((len(space), 3))
            q[:, Action.IDLE if (h == Action.NEW_UPDATE).all() else Action.NEW_UPDATE] = 0.0
            return q

        monkeypatch.setattr(rvi, "_evaluate", values)
        monkeypatch.setattr(rvi, "_masked_q", costs)
        with pytest.raises(ConvergenceError, match="returned to a policy it evaluated before, after 2 evaluations"):
            solve(model, trunc, 3.0)
        assert [set(a.tolist()) for a in evaluated] == [{Action.NEW_UPDATE}, {Action.IDLE}]

    def test_warm_start_reaches_same_fixed_point(self):
        model = ChannelModel(0.3, 0.5, 5)
        trunc = Truncation(60, 5)
        cold = solve(model, trunc, 3.0)
        warm = solve(model, trunc, 3.0, start=solve(model, trunc, 2.5))
        assert warm.h_array == pytest.approx(cold.h_array, abs=5e-8)
        assert spec.actions(warm.policy) == spec.actions(cold.policy)


class TestPolicyIteration:
    @given(
        p0=st.floats(0.05, 0.9),
        lam=st.floats(0.05, 1.0),
        r_max=st.integers(0, 3),
        n_max=st.integers(4, 30),
        eta=st.floats(0.0, 60.0),
    )
    @settings(max_examples=40, deadline=None)
    def test_gain_matches_value_iteration_and_exact_evaluation(self, p0, lam, r_max, n_max, eta):
        model, trunc = ChannelModel(p0, lam, r_max), Truncation(n_max, r_max)
        out = solve(model, trunc, eta)
        assert out.gain == pytest.approx(rvi_reference_gain(model, trunc, eta), abs=1e-7)
        try:
            res = evaluate_exact(out.policy, model, trunc)
            aoi, cost = res.avg_aoi, res.avg_cost
        except NoStationaryAoIError:
            aoi, cost = float(n_max), 0.0  # idles forever at the age cap
        assert aoi + eta * cost == pytest.approx(out.gain, rel=1e-9, abs=1e-9)

    def test_two_closed_classes_raise_naming_the_charge(self):
        # Sending fresh updates everywhere except idling at (10, 0): that
        # state is absorbing and unreachable from the rest.
        model, trunc = ChannelModel(0.5, 0.5, 3), Truncation(10, 3)
        space = StateSpace(model, trunc)
        actions = np.full(len(space), int(Action.NEW_UPDATE))
        actions[space.off[10]] = Action.IDLE  # index of (10, 0)
        with pytest.raises(MultichainError, match=r"eta=2\.5 .* idles surely at \(10, 0\)") as err:
            rvi._evaluate(space, actions, 2.5)
        assert type(err.value) is MultichainError  # a fault of the policy, not of the arithmetic

    def test_an_inaccurate_evaluation_raises_naming_the_residual(self, monkeypatch):
        monkeypatch.setattr(rvi, "_SOLVE_RTOL", -1.0)  # no residual is small enough
        with pytest.raises(InaccurateSolveError, match=r"^policy evaluation at eta=3\.0 is inaccurate: residual \S+ above -"):
            solve(ChannelModel(0.5, 0.5, 3), Truncation(30, 3), 3.0)

    def test_inaccurate_shifted_values_raise_naming_both_charges(self, monkeypatch):
        model, trunc = ChannelModel(0.5, 0.5, 3), Truncation(30, 3)
        start = solve(model, trunc, 3.0)
        monkeypatch.setattr(rvi, "_SOLVE_RTOL", -1.0)
        monkeypatch.setattr(rvi, "_evaluate", None)  # the check on the shifted values raises before any evaluation
        pattern = r"^policy values at eta=4\.0, shifted from eta=3\.0, are inaccurate: residual \S+ above -"
        with pytest.raises(InaccurateSolveError, match=pattern):
            solve(model, trunc, 4.0, start=start)


class TestWarmStart:
    @given(
        p0=st.floats(0.05, 0.95),
        lam=st.floats(0.05, 1.0),
        r_max=st.integers(0, 4),
        n_max=st.integers(2, 80),
        eta_start=st.floats(0.0, 100.0),
        eta=st.floats(0.0, 100.0),
    )
    # A start whose shifted values are within 1e-8 of optimal: warm and cold gains once differed by 5.1e-10 relative.
    @example(p0=0.625, lam=1.0, r_max=0, n_max=41, eta_start=0.0, eta=1.0)
    @settings(max_examples=80, deadline=None)
    def test_agrees_with_a_cold_solve(self, p0, lam, r_max, n_max, eta_start, eta):
        model, trunc = ChannelModel(p0, lam, r_max), Truncation(n_max, r_max)
        warm = solve(model, trunc, eta, start=solve(model, trunc, eta_start))
        cold = solve(model, trunc, eta)
        # Where the tables differ, each solve finds the other's action within the tie tolerance of its row minimum.
        space = cold.space
        a_warm, a_cold = (out.policy.table[space.age, space.r].argmax(axis=1) for out in (warm, cold))
        rows = np.flatnonzero(a_warm != a_cold)
        for out, other in ((warm, a_cold), (cold, a_warm)):
            v = rvi._row_min(out.q_array)[rows]
            assert (out.q_array[rows, other[rows]] <= v + rvi._TIE_RTOL * np.maximum(1.0, np.abs(v))).all()
        assert warm.gain == pytest.approx(cold.gain, rel=1e-12, abs=0.0)
        assert bellman_residual(warm) <= 2e-8
        assert bellman_residual(cold) <= 2e-8

    @pytest.mark.parametrize("p, delta", [(0.5, 5), (0.3, 8)])
    @pytest.mark.parametrize("offset", [1e-10, -1e-10])
    def test_just_off_an_arq_breakpoint(self, p, delta, offset):
        # The charge where thresholds delta and delta + 1 have equal Lagrangian costs, which are linear in it.
        d0, d1 = (arq.lagrangian_cost(p, delta + 1, e) - arq.lagrangian_cost(p, delta, e) for e in (0.0, 1.0))
        eta_b = -d0 / (d1 - d0)
        eta = eta_b * (1.0 + offset)
        model, trunc = ChannelModel(p, 1.0, 0), Truncation(120, 0)
        cold = solve(model, trunc, eta)
        best = min(arq.lagrangian_cost(p, delta, eta), arq.lagrangian_cost(p, delta + 1, eta))
        assert cold.gain == pytest.approx(best, rel=1e-12, abs=0.0)
        warm = solve(model, trunc, eta, start=solve(model, trunc, eta_b * (1.0 - offset)))  # the other side
        assert warm.iterations <= 2
        assert warm.gain == pytest.approx(cold.gain, rel=1e-12, abs=0.0)
        assert warm.policy.table.tobytes() == cold.policy.table.tobytes()

    def test_a_start_of_another_space_raises(self):
        model = ChannelModel(0.3, 0.5, 3)
        start = solve(model, Truncation(30, 3), 2.0)
        with pytest.raises(ValueError, match="start was solved on"):
            solve(model, Truncation(40, 3), 3.0, start=start)
        with pytest.raises(ValueError, match="start was solved on"):
            solve(ChannelModel(0.4, 0.5, 3), Truncation(30, 3), 3.0, start=start)

    def test_an_optimal_start_evaluates_nothing(self):
        # Between two charges with the same optimal table, the start's values
        # shifted along the charge are the values there: no evaluation.
        model, trunc = ChannelModel(0.5, 0.5, 3), Truncation(60, 3)
        start = solve(model, trunc, 5.0)
        shifted = solve(model, trunc, 5.01, start=start)
        fresh = solve(model, trunc, 5.01)
        assert shifted.iterations == 0 and shifted.chain is start.chain
        assert shifted.policy.table.tobytes() == fresh.policy.table.tobytes() == start.policy.table.tobytes()
        assert shifted.gain == pytest.approx(fresh.gain, rel=1e-13)
        np.testing.assert_allclose(shifted.h_array, fresh.h_array, rtol=1e-12, atol=1e-12)


def arq_threshold(p0, eta):
    """The closed-form ARQ threshold at charge ``eta``: the candidate of lower Lagrangian cost."""
    return min(arq.threshold_candidates(p0, eta), key=lambda d: arq.lagrangian_cost(p0, d, eta))


class TestArqStart:
    @given(p0=st.floats(0.05, 0.95), eta=st.floats(0.0, 200.0), extra=st.integers(0, 40))
    @example(p0=0.5, eta=10.0, extra=80 - arq_eval_truncation(0.5, 5).n_max)  # the CLI's solve-arq point
    @settings(max_examples=60, deadline=None)
    def test_an_arq_model_solves_in_one_evaluation(self, p0, eta, extra):
        n_max = arq_eval_truncation(p0, arq_threshold(p0, eta)).n_max + extra
        model, trunc = ChannelModel(p0, 1.0, 0), Truncation(n_max, 0)
        out = solve(model, trunc, eta)
        assert out.iterations == 1
        assert threshold_of(out.policy) in arq.threshold_candidates(p0, eta)
        # From the uncharged policy too: its own start when it is still optimal, else the rule's.
        warm = solve(model, trunc, eta, start=solve(model, trunc, 0.0))
        assert warm.iterations <= 1 and warm.policy.table.tobytes() == out.policy.table.tobytes()

    @given(
        p0=st.floats(0.05, 0.95),
        lam=st.floats(0.05, 1.0),
        r_max=st.integers(0, 4),
        n_max=st.integers(2, 80),
        deep=st.booleans(),
        eta=st.floats(0.0, 100.0),
    )
    # ARQ under a cap that leaves no tail: the closed-form gain ties the solved one to rounding.
    @example(p0=0.5, lam=1.0, r_max=0, n_max=2, deep=True, eta=7.0)
    @example(p0=0.3, lam=1.0, r_max=0, n_max=10, deep=True, eta=0.0)
    @settings(max_examples=80, deadline=None)
    def test_a_start_at_its_own_charge_evaluates_nothing(self, p0, lam, r_max, n_max, deep, eta):
        if deep:
            n_max += arq_eval_truncation(p0, arq_threshold(p0, eta)).n_max
        model, trunc = ChannelModel(p0, lam, r_max), Truncation(n_max, r_max)
        out = solve(model, trunc, eta)
        again = solve(model, trunc, eta, start=out)
        assert again.iterations == 0 and again.gain == out.gain
        assert again.policy.table.tobytes() == out.policy.table.tobytes()

    @pytest.mark.parametrize(
        "model, n_max, eta",
        [(ARQ_HALF, 200, 7.0), (ARQ_HALF, 80, 10.0), (ChannelModel(0.5, 0.5, 3), 60, 5.0), (ChannelModel(0.3, 0.5, 5), 60, 3.0)],
    )
    def test_the_answer_does_not_read_the_closed_form(self, model, n_max, eta, monkeypatch):
        # verify's broken threshold_candidates moves only the start, so its rvi-threshold check sees the true answer.
        trunc = Truncation(n_max, model.r_max)
        clean = solve(model, trunc, eta)
        original = arq.threshold_candidates
        monkeypatch.setattr(arq, "threshold_candidates", lambda p, e: tuple(d + 2 for d in original(p, e)))
        planted = solve(model, trunc, eta)
        assert planted.policy.table.tobytes() == clean.policy.table.tobytes()
        assert planted.gain == pytest.approx(clean.gain, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("model", [ARQ_HALF, ChannelModel(0.05, 1.0, 0), ChannelModel(0.3, 0.5, 5), ChannelModel(0.9, 0.2, 2)])
    def test_without_charge_the_start_sends_in_every_slot(self, model, monkeypatch):
        starts = []

        def costs(space, h, eta):
            starts.append(h)
            return original(space, h, eta)

        original = rvi._masked_q
        monkeypatch.setattr(rvi, "_masked_q", costs)
        out = solve(model, Truncation(40, model.r_max), 0.0)
        assert starts[0].tobytes() == ((out.space.delta - 1.0) / (1.0 - model.p0)).tobytes()


def assert_matches_dense_evaluation(model, trunc, actions, eta):
    """``_evaluate`` against one dense solve of ``(I - P + 1 e_0^T) y = c`` for the charged age and
    for the transmit indicator, or a named multichain error."""
    space = StateSpace(model, trunc)
    P, tx = spec.chain(DeterministicTable.from_actions(space, actions), model, trunc)
    cost = space.delta + eta * tx
    if len(spec.closed_classes(P)) > 1:
        with pytest.raises(MultichainError, match=f"eta={eta}"):
            rvi._evaluate(space, actions, eta)
        return
    y = spec.poisson(P, np.column_stack([cost, tx]))
    g, h, g_tx, h_tx, _ = rvi._evaluate(space, actions, eta)
    # The charged age, then the transmit indicator.
    for g, h, y in ((g, h, y[:, 0]), (g_tx, h_tx, y[:, 1])):
        scale = max(1.0, np.abs(y).max())
        assert abs(g - y[0]) <= 1e-12 * scale
        assert np.abs(h - (y - y[0])).max() <= 1e-12 * scale


class TestLadderEvaluation:
    @given(
        p0=st.floats(0.05, 0.95),
        lam=st.floats(0.05, 1.0),
        r_max=st.sampled_from([0, 1, 3, 40]),
        n_max=st.integers(2, 40),
        eta=st.floats(0.0, 100.0),
        seed=st.integers(0, 2**32 - 1),
    )
    # Values up to 2.2e9, where the unrefined dense solve was off by 0.72.
    @example(p0=0.875, lam=0.25, r_max=3, n_max=38, eta=0.0, seed=206753)
    @settings(max_examples=60, deadline=None)
    def test_matches_a_dense_solve(self, p0, lam, r_max, n_max, eta, seed):
        model = ChannelModel(p0, lam, r_max)
        trunc = Truncation(n_max, r_max)
        space = StateSpace(model, trunc)
        # A uniformly random admissible action in every state: idle stretches
        # of any length, the cap row included, and multichain policies.
        scores = np.random.default_rng(seed).random(space.admissible.shape)
        actions = np.argmax(np.where(space.admissible, scores, -1.0), axis=1)
        assert_matches_dense_evaluation(model, trunc, actions, eta)

    def test_values_stay_accurate_when_the_closed_class_is_almost_unreachable(self):
        # Found by fuzzing random admissible policies: the only closed class
        # is idling at (35, 0), and the chain leaves (1, 0), (2, 0) and (3, 0)
        # for the cap row with probability below 1e-21 per visit, so the
        # values reach 7e23.  An LU solve of the border system returned the
        # gain 21.98 here instead of 35.  One row of action codes per age.
        rows = (
            "n ni ixn nxxn nnnn ixxi nxni nnxi ixnn nnnn iini inxn ixin nnnn ixxn iini ixni ixni "
            "ixxn iinn ixxi ixii nnii nini ixxn nnni inxi nixn innn inin nixi niin nnnn ixxn ixii"
        ).split()
        actions = np.array(["inx".index(code) for row in rows for code in row])
        model, trunc = ChannelModel(0.13481381409770551, 0.3672228839983609, 3), Truncation(35, 3)
        assert_matches_dense_evaluation(model, trunc, actions, 0.0)


def reduced_q(space, h, eta):
    """State-action costs by the whole-array reductions that ``rvi._masked_q`` replaces."""
    q = space.delta[:, None] + (h[space.succ_idx] * space.succ_prob).sum(axis=2)
    q[:, Action.NEW_UPDATE] += eta
    q[:, Action.RETRANSMIT] += eta
    q[~space.admissible] = np.inf
    return q


class TestActionColumns:
    """The solver's per-action-column forms equal the reductions they replace, bit for bit."""

    @given(
        p0=st.floats(0.05, 0.95),
        lam=st.floats(0.05, 1.0),
        r_max=st.sampled_from([0, 1, 3, 40]),
        n_max=st.integers(2, 60),
        eta=st.floats(0.0, 100.0),
        scale=st.sampled_from([1.0, 1e3, 1e9]),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_match_the_axis_reductions(self, p0, lam, r_max, n_max, eta, scale, seed):
        space = StateSpace(ChannelModel(p0, lam, r_max), Truncation(n_max, r_max))
        rng = np.random.default_rng(seed)
        h = scale * rng.standard_normal(len(space))
        q = rvi._masked_q(space, h, eta)
        assert q.tobytes() == reduced_q(space, h, eta).tobytes()
        # Exact ties among the admissible actions: 1 ties new with idle, 2
        # retransmit with new, 3 all three.
        tie = rng.integers(0, 4, len(space))
        q[tie & 1 == 1, 1] = q[tie & 1 == 1, 0]
        retx = (tie >= 2) & space.admissible[:, Action.RETRANSMIT]
        q[retx, 2] = q[retx, 1]
        v = rvi._row_min(q)
        assert v.tobytes() == q.min(axis=1).tobytes()
        assert (rvi._first_within(q, v) == np.argmin(q, axis=1)).all()
        thr = v + rvi._TIE_RTOL * np.maximum(1.0, np.abs(v))
        assert (rvi._first_within(q, thr) == np.argmax(q <= thr[:, None], axis=1)).all()
        actions = rvi._first_within(q, v)
        flat = 3 * np.arange(len(space)) + actions
        assert q.take(flat).tobytes() == q[np.arange(len(space)), actions].tobytes()
        one_hot = actions[:, None] == np.arange(len(Action))
        assert rvi._chain(space, flat).branch.tobytes() == (one_hot[:, :, None] * space.succ_prob).tobytes()

    def test_exact_ties_go_to_idle_then_new_update(self):
        inf = np.inf
        q = np.array([[1.0, 1.0, 1.0], [2.0, 1.0, 1.0], [1.0, 2.0, 1.0], [3.0, 2.0, 2.0], [1.0, 1.0, inf], [2.0, 1.0, inf], [5.0, 4.0, 3.0]])
        v = rvi._row_min(q)
        assert v.tolist() == [1.0, 1.0, 1.0, 2.0, 1.0, 1.0, 3.0]
        assert rvi._first_within(q, v).tolist() == np.argmin(q, axis=1).tolist() == [0, 1, 0, 1, 0, 1, 2]
