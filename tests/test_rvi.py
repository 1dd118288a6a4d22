import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from aoi_sched import arq, oracles, rvi
from aoi_sched.errors import ConvergenceError, MultichainError, NoStationaryAoIError
from aoi_sched.exact import evaluate_exact
from aoi_sched.mdp import Action, ChannelModel, StateSpace, Truncation, enumerate_states
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
        assert bellman_residual(out, model, trunc, 5.0) <= 2e-8

    def test_unsolved_values_violate_optimality(self, monkeypatch):
        model = ChannelModel(0.3, 0.5, 9)
        trunc = Truncation(60, 9)
        monkeypatch.setattr(rvi, "_EPSILON", 1e300)
        out = solve(model, trunc, 5.0)
        assert out.iterations == 1
        assert bellman_residual(out, model, trunc, 5.0) > 1e-3

    def test_residual_rejects_output_of_another_truncation(self):
        # Truncation(3, 0) and Truncation(2, 1) both hold three states.
        model = ChannelModel(0.3, 0.5, 9)
        out = solve(model, Truncation(3, 0), 5.0)
        with pytest.raises(ValueError, match="solved on"):
            bellman_residual(out, model, Truncation(2, 1), 5.0)

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
        assert bellman_residual(out, model, trunc, 0.0) <= 2e-8

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
        assert a.h_array.tobytes() == b.h_array.tobytes()
        assert a.q_array.tobytes() == b.q_array.tobytes()
        assert a.gain == b.gain
        assert spec.actions(a.policy) == spec.actions(b.policy)

    def test_iteration_limit_raises(self, monkeypatch):
        model = ChannelModel(0.3, 0.5, 5)
        trunc = Truncation(60, 5)
        monkeypatch.setattr(rvi, "_EPSILON", 1e-12)
        monkeypatch.setattr(rvi, "_MAX_EVALUATIONS", 3)
        with pytest.raises(ConvergenceError) as err:
            solve(model, trunc, 3.0)
        assert err.value.residual > 0.0

    def test_warm_start_reaches_same_fixed_point(self):
        model = ChannelModel(0.3, 0.5, 5)
        trunc = Truncation(60, 5)
        cold = solve(model, trunc, 3.0)
        warm = solve(model, trunc, 3.0, h0=solve(model, trunc, 2.5).h_array)
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
        with pytest.raises(MultichainError, match=r"eta=2\.5 .* idles surely at \(10, 0\)"):
            rvi._evaluate(space, actions, 2.5)


def assert_matches_dense_evaluation(model, trunc, actions, eta):
    """``_evaluate`` against one dense solve of ``(I - P + 1 e_0^T) y = c``, or a named multichain error."""
    space = StateSpace(model, trunc)
    states = enumerate_states(Truncation(trunc.n_max, space.r_cap))
    idx = {s: i for i, s in enumerate(states)}
    P = np.zeros((len(states), len(states)))
    for i, s in enumerate(states):
        for nxt, p in spec.transitions(s, Action(actions[i]), model, trunc):
            P[i, idx[nxt]] += p
    cost = space.delta + eta * (actions != Action.IDLE)
    if len(spec.closed_classes(P)) > 1:
        with pytest.raises(MultichainError, match=f"eta={eta}"):
            rvi._evaluate(space, actions, eta)
        return
    M = np.eye(len(P)) - P
    M[:, 0] += 1.0
    y = np.linalg.solve(M, cost)
    # One step of iterative refinement: where the values reach 1e9 the
    # matrix's condition number does too, and the plain LU solve alone can
    # be off by more than the tolerance.
    y += np.linalg.solve(M, cost - M @ y)
    g, h, _ = rvi._evaluate(space, actions, eta)
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
