import pytest
from hypothesis import assume, example, given, settings, strategies as st
from scipy.optimize import brentq

from aoi_sched import arq, errors, exact, lagrange, mdp, oracles, rvi
from aoi_sched.errors import BracketingError
from aoi_sched.exact import arq_eval_truncation, evaluate_exact
from aoi_sched.lagrange import mixture_weight, search_eta_star, solve_constrained
from aoi_sched.mdp import Action, ChannelModel, Truncation, enumerate_states
from aoi_sched.policies import RandomizedTable, RenewalMixture, table_difference
from aoi_sched.rvi import bellman_residual

import spec


class TestMixtureWeight:
    def test_interior_value(self):
        assert mixture_weight(0.4, 1 / 3, 0.35) == pytest.approx(0.25, abs=1e-12)

    def test_budget_at_low_policy(self):
        assert mixture_weight(0.4, 1 / 3, 0.4) == 1.0
        assert mixture_weight(0.4, 0.4, 0.4) == 1.0  # equal costs

    def test_budget_at_high_policy(self):
        assert mixture_weight(0.4, 1 / 3, 1 / 3) == 0.0

    def test_budget_outside_raises(self):
        with pytest.raises(BracketingError):
            mixture_weight(0.4, 1 / 3, 0.5)
        with pytest.raises(BracketingError):
            mixture_weight(0.4, 1 / 3, 0.2)
        with pytest.raises(BracketingError, match="expected c_low >= c_high"):
            mixture_weight(1 / 3, 0.4, 0.35)


class TestSearchEtaStar:
    @pytest.mark.parametrize("c_max", [0.0, 1.5])
    def test_a_budget_outside_the_unit_interval_raises(self, c_max):
        with pytest.raises(ValueError, match=r"budget must lie in \(0, 1\]"):
            search_eta_star(ChannelModel(0.5, 1.0, 0), Truncation(20, 0), c_max)

    def test_arq_jump_point_is_analytic(self):
        # At p = 0.5 the switch between thresholds 4 and 5 is exactly at
        # charge 7 (equal Lagrangian costs), and 0.35 lies strictly between
        # their transmission rates.  The probe at 7 returns one of the two
        # tied thresholds, an endpoint's (J, C), so the walk ends on the pair.
        model = ChannelModel(0.5, 1.0, 0)
        result = search_eta_star(model, Truncation(200, 0), 0.35)
        assert result.eta_star == pytest.approx(7.0, abs=1e-12)
        assert not result.exact_hit
        thresholds = [
            min(s.delta for s, a in spec.actions(out.policy).items() if a != Action.IDLE)
            for out in (result.low, result.high)
        ]
        assert thresholds == [4, 5]

    @given(p=st.floats(0.05, 0.8), c_max=st.floats(0.1, 0.9))
    @settings(max_examples=25, deadline=None)
    def test_arq_eta_star_is_the_closed_form_switch(self, p, c_max):
        rt = arq.optimal_policy(p, c_max)
        d1, d2 = rt.delta1, rt.delta2
        assume(d1 != d2)
        c1, c2 = arq.cost_of_threshold(p, d1), arq.cost_of_threshold(p, d2)
        # A budget this close to a threshold's cost ends the search on an exact hit.
        assume(min(c1 - c_max, c_max - c2) > 1e-9)
        switch = (arq.aoi_of_threshold(p, d2) - arq.aoi_of_threshold(p, d1)) / (c1 - c2)
        result = search_eta_star(ChannelModel(p, 1.0, 0), arq_eval_truncation(p, d2), c_max)
        assert result.eta_star == pytest.approx(switch, rel=1e-9)

    def test_exact_budget_hit(self):
        model = ChannelModel(0.5, 1.0, 0)
        result = search_eta_star(model, Truncation(200, 0), 0.4)
        assert result.exact_hit
        lo, hi = arq.threshold_candidates(0.5, max(result.eta_star, 1e-9))
        assert 4 in (lo, hi)

    @given(
        p0=st.floats(0.001, 0.999),
        lam=st.one_of(st.just(1.0), st.floats(0.01, 1.0)),
        r_max=st.integers(0, 12),
        n_max=st.integers(2, 200),
    )
    @settings(max_examples=40, deadline=None)
    def test_the_uncharged_policy_sends_in_every_state(self, p0, lam, r_max, n_max):
        # At charge 0 the solver minimises the age alone, so its rate, 1, is
        # at or above every budget in (0, 1]: halving the charge brackets it.
        out = rvi.solve(ChannelModel(p0, lam, r_max), Truncation(n_max, r_max), 0.0)
        space = out.space
        assert not out.policy.table[space.age, space.r, Action.IDLE].any()
        assert abs(out.evaluation.avg_cost - 1.0) <= 1e-15

    def test_a_walk_probe_that_meets_the_budget_ends_the_search(self):
        # The budget is threshold 5's rate: the expand probes return thresholds
        # 6 and 4, and the first walk probe returns 5, whose cost equals the
        # budget bit for bit.
        c_max = arq.cost_of_threshold(0.3, 5)
        result = search_eta_star(ChannelModel(0.3, 1.0, 0), Truncation(200, 0), c_max)
        assert [row.phase for row in result.trace] == ["expand", "expand", "walk"]
        assert result.exact_hit and result.low is result.high
        assert result.trace[-1].avg_cost == result.high.evaluation.avg_cost == c_max
        assert result.eta_star == result.trace[-1].eta == result.bracket[0] == result.bracket[1]

    def test_expansion_out_of_steps_raises(self, monkeypatch):
        monkeypatch.setattr(lagrange, "_MAX_STEPS", 1)
        with pytest.raises(errors.EtaSearchError, match="could not bracket the budget") as info:
            search_eta_star(ChannelModel(0.5, 0.5, 3), Truncation(120, 3), 0.4)
        assert [row.phase for row in info.value.trace] == ["expand", "expand"]

    def test_walk_out_of_steps_raises(self, monkeypatch):
        monkeypatch.setattr(lagrange, "_MAX_STEPS", 2)
        with pytest.raises(errors.EtaSearchError, match="envelope walk did not reach an adjacent pair") as info:
            search_eta_star(ChannelModel(0.3, 0.5, 3), Truncation(120, 3), 0.3)
        assert [row.phase for row in info.value.trace] == ["expand", "expand", "walk", "walk"]

    def test_trace_is_recorded(self):
        model = ChannelModel(0.5, 1.0, 0)
        result = search_eta_star(model, Truncation(200, 0), 0.35)
        assert len(result.trace) >= 2
        phases = {row.phase for row in result.trace}
        assert phases <= {"expand", "walk"}
        assert "walk" in phases


class TestSolveConstrained:
    def test_arq_matches_analytic_construction_statewise(self):
        model = ChannelModel(0.5, 1.0, 0)
        trunc = Truncation(200, 0)
        sol = solve_constrained(model, trunc, 0.35)
        rt = arq.optimal_policy(0.5, 0.35)
        assert isinstance(sol.mixed, RandomizedTable)
        analytic = rt.policy()
        for s in enumerate_states(trunc):
            probs = spec.probs(sol.mixed, s)
            ref = spec.probs(analytic, s)
            for a in Action:
                assert probs.get(a, 0.0) == pytest.approx(ref.get(a, 0.0), abs=1e-7)
        assert sol.mu == pytest.approx(rt.mu_star, abs=1e-9)
        assert sol.achieved_cost == pytest.approx(0.35, abs=1e-9)
        assert sol.achieved_aoi == pytest.approx(rt.avg_aoi, rel=1e-8)

    def test_results_compare_by_identity_without_raising(self):
        # Generated field-wise == would ask numpy arrays for one truth value.
        model, trunc = ChannelModel(0.5, 1.0, 0), Truncation(20, 0)
        one, two = (solve_constrained(model, trunc, 0.35) for _ in range(2))
        out_one, out_two = one.search.low, two.search.low
        res_one, res_two = out_one.evaluation, out_two.evaluation
        pairs = ((one, two), (one.search, two.search), (out_one, out_two), (res_one, res_two))
        for a, b in pairs:
            assert a == a and a != b
            assert len({a, b}) == 2

    def test_budget_equality_and_bracket_order(self):
        model = ChannelModel(0.3, 0.5, 9)
        trunc = Truncation(120, 9)
        sol = solve_constrained(model, trunc, 0.4)
        assert sol.achieved_cost == pytest.approx(0.4, abs=1e-6)
        low = evaluate_exact(sol.policy_low, model, trunc)
        high = evaluate_exact(sol.policy_high, model, trunc)
        assert high.avg_cost <= 0.4 <= low.avg_cost
        assert low.avg_aoi - 1e-9 <= sol.achieved_aoi <= high.avg_aoi + 1e-9
        assert 0.0 <= sol.mu <= 1.0

    @pytest.mark.parametrize("point", [(0.3, 0.5, 3, 0.6, 120), (0.5, 1.0, 0, 0.35, 200)])
    def test_single_state_weight_is_the_root_of_the_exact_cost(self, point):
        p0, lam, r_max, c_max, n_max = point
        model, trunc = ChannelModel(p0, lam, r_max), Truncation(n_max, r_max)
        sol = solve_constrained(model, trunc, c_max)
        assert isinstance(sol.mixed, RandomizedTable)
        (state,) = table_difference(sol.policy_low, sol.policy_high)
        a_low, a_high = spec.actions(sol.policy_low)[state], spec.actions(sol.policy_high)[state]

        def gap(w):
            table = sol.mixed.table.copy()
            table[state] = 0.0
            table[(*state, a_low)], table[(*state, a_high)] = w, 1.0 - w
            return evaluate_exact(RandomizedTable(table, trunc), model, trunc).avg_cost - c_max

        # Reference: the root found numerically over full exact evaluations.
        w_ref = brentq(gap, 0.0, 1.0, xtol=1e-15)
        assert sol.mixed.table[(*state, a_low)] == pytest.approx(w_ref, abs=1e-12)
        assert sol.achieved_cost == pytest.approx(c_max, abs=1e-13)

    def test_operating_point_a_needs_few_probes(self):
        sol = solve_constrained(ChannelModel(0.3, 0.5, 9), Truncation(120, 9), 0.4)
        assert len(sol.search.trace) <= 10

    def test_policy_idling_at_the_age_cap_joins_the_walk(self, monkeypatch):
        # A first charge of 1 / c_max**2 makes the greedy policy idle forever at
        # the cap of 26, yet the budget's thresholds 21 and 22 fit under it.
        monkeypatch.setattr(lagrange.arq, "optimal_charge", lambda p, c_max: 1.0 / c_max**2)
        sol = solve_constrained(ChannelModel(0.05, 1.0, 0), Truncation(26, 0), 0.048)
        assert 0.0 in [row.avg_cost for row in sol.search.trace]
        assert sol.achieved_cost == pytest.approx(0.048, abs=1e-12)
        assert sol.achieved_aoi == pytest.approx(arq.optimal_policy(0.05, 0.048).avg_aoi, rel=1e-8)

    @pytest.mark.parametrize(
        "point",
        [
            (0.7, 0.5, 3, 0.1, 150),
            (0.5, 0.5, 3, 0.08, 250),
            (0.5, 1.0, 0, 0.05, 300),
            (0.5, 0.5, 3, 0.01, 245),
        ],
    )
    def test_tight_budget_probes_need_few_evaluations(self, point):
        # Damped value iteration needed 1.5k-6k sweeps per probe here.
        p0, lam, r_max, c_max, n_max = point
        sol = solve_constrained(ChannelModel(p0, lam, r_max), Truncation(n_max, r_max), c_max)
        assert max(row.iterations for row in sol.search.trace) <= 20
        assert all(row.residual <= 1e-8 for row in sol.search.trace)
        assert abs(sol.achieved_cost - c_max) <= 1e-6

    def test_budget_beyond_the_age_cap_still_raises_truncation_error(self):
        with pytest.raises(errors.TruncationError, match="n_max=150"):
            solve_constrained(ChannelModel(0.5, 0.5, 3), Truncation(150, 3), 0.01)

    def test_full_budget_degenerates_to_unconstrained(self):
        model = ChannelModel(0.5, 0.5, 3)
        sol = solve_constrained(model, Truncation(80, 3), 1.0)
        assert sol.eta_star == 0.0
        assert sol.mixed is sol.policy_low is sol.policy_high
        assert all(a != Action.IDLE for a in spec.actions(sol.mixed).values())
        assert sol.achieved_cost == pytest.approx(1.0, abs=1e-12)

    @given(
        p0=st.floats(0.05, 0.95),
        lam=st.floats(0.05, 1.0),
        r_max=st.integers(0, 9),
        n_max=st.integers(2, 120),
    )
    @settings(max_examples=40, deadline=None)
    def test_full_budget_is_met_by_the_uncharged_policy(self, p0, lam, r_max, n_max):
        # The search's first probe, at the full budget's ARQ multiplier 0,
        # sends in every slot and so meets the budget exactly.
        model, trunc = ChannelModel(p0, lam, r_max), Truncation(n_max, r_max)
        sol = solve_constrained(model, trunc, 1.0)
        assert sol.eta_star == 0.0 and sol.search.exact_hit and len(sol.search.trace) == 1
        assert sol.achieved_cost == pytest.approx(1.0, abs=1e-12)
        out = sol.search.low
        assert not out.policy.table[..., Action.IDLE].any()
        assert bellman_residual(out) <= 2e-8
        assert sol.achieved_aoi <= 1.0 / (1.0 - p0) + 1e-9

    def test_integral_arq_budget_needs_no_mixture(self):
        model = ChannelModel(0.5, 1.0, 0)
        sol = solve_constrained(model, Truncation(200, 0), 0.4)
        assert sol.mu == 1.0
        assert sol.achieved_cost == pytest.approx(0.4, abs=1e-9)
        assert sol.achieved_aoi == pytest.approx(3.2, rel=1e-8)

    @pytest.mark.parametrize(
        "point", [(0.5, 1.0, 0, 0.35, 200), (0.7, 0.5, 3, 0.4, 120), (0.3, 0.5, 9, 1.0, 120)], ids=["arq", "harq", "hit"]
    )
    def test_one_state_space_per_solve(self, point, monkeypatch):
        builds = []

        def counted(model, trunc):
            builds.append((model, trunc))
            return mdp.StateSpace(model, trunc)

        monkeypatch.setattr(rvi, "StateSpace", counted)
        monkeypatch.setattr(exact, "StateSpace", counted)
        p0, lam, r_max, c_max, n_max = point
        sol = solve_constrained(ChannelModel(p0, lam, r_max), Truncation(n_max, r_max), c_max)
        assert sol.search.exact_hit == (c_max == 1.0)
        assert len(builds) == 1

    @pytest.mark.parametrize(
        "point, kind, reused",
        [
            # The last probe evaluates nothing, but reads an exact tie the
            # other way from the probe before it, so its table is new.
            ((0.3, 0.5, 3, 0.3, 120), RenewalMixture, 0),
            ((0.3, 0.5, 3, 0.6, 120), RandomizedTable, 0),
            ((0.5, 1.0, 0, 0.35, 200), RandomizedTable, 0),
            ((0.05, 1.0, 0, 0.048, 26), RandomizedTable, 0),  # thresholds 21 and 22 under a cap of 26
            # The last probe finds the policy of the probe before it still
            # optimal and reuses its evaluation.
            ((0.7, 0.5, 3, 0.4, 120), RenewalMixture, 1),
        ],
        ids=["renewal", "single-state", "arq", "idle-at-cap", "reuse"],
    )
    def test_probes_and_mixture_match_exact_evaluation_bit_for_bit(self, point, kind, reused, monkeypatch):
        p0, lam, r_max, c_max, n_max = point
        model, trunc = ChannelModel(p0, lam, r_max), Truncation(n_max, r_max)
        probes = []  # per probe: its output and the chains it built
        solve, build = lagrange.solve, rvi._chain

        def solved(*args, **kwargs):
            probes.append({"chains": 0})
            probes[-1]["out"] = out = solve(*args, **kwargs)
            return out

        def counted(space, flat):
            probes[-1]["chains"] += 1
            return build(space, flat)

        monkeypatch.setattr(lagrange, "solve", solved)
        monkeypatch.setattr(rvi, "_chain", counted)
        sol = solve_constrained(model, trunc, c_max)
        assert isinstance(sol.mixed, kind) and len(probes) == len(sol.search.trace)

        def digest(res):
            return res.avg_aoi, res.avg_cost, res.tail_mass, res.stationary.tobytes()

        reuses = 0
        for k, (probe, row) in enumerate(zip(probes, sol.search.trace)):
            # A read-off that breaks a tie the other way builds one chain more than the evaluations.
            assert probe["chains"] <= probe["out"].iterations + 1
            before = probes[k - 1] if k else None
            if before is not None and probe["out"].evaluation is before["out"].evaluation:
                # Not evaluated: the probe reused the table and evaluation of the one before.
                assert probe["out"].policy.table.tobytes() == before["out"].policy.table.tobytes()
                assert probe["out"].iterations == probe["chains"] == 0
                earlier = sol.search.trace[k - 1]
                assert (row.avg_aoi, row.avg_cost) == (earlier.avg_aoi, earlier.avg_cost)
                reuses += 1
        assert reuses == reused

        kept = [(out.policy, out.evaluation) for out in (sol.search.low, sol.search.high)]
        for policy, res in [(probe["out"].policy, probe["out"].evaluation) for probe in probes] + kept:
            if res is None:
                with pytest.raises(errors.NoStationaryAoIError):
                    evaluate_exact(policy, model, trunc)
            else:
                assert digest(res) == digest(evaluate_exact(policy, model, trunc))
        achieved = evaluate_exact(sol.mixed, model, trunc)
        assert (sol.achieved_aoi, sol.achieved_cost, sol.tail_mass) == (achieved.avg_aoi, achieved.avg_cost, achieved.tail_mass)

    @pytest.mark.parametrize(
        "points, probes, evaluations",
        [
            # A moderate-budget grid as a budget sweep runs it, operating point A and ARQ.
            (
                [(p0, 0.5, 3, c_max, 120) for p0 in (0.3, 0.5, 0.7) for c_max in (0.3, 0.4, 0.6, 1.0)]
                + [(0.3, 0.5, 9, 0.4, 120), (0.5, 1.0, 0, 0.35, 200)],
                49,
                71,
            ),
            # Tight budgets.
            ([(0.7, 0.5, 3, 0.1, 150), (0.5, 0.5, 3, 0.08, 250), (0.5, 1.0, 0, 0.05, 300)], 13, 22),
        ],
        ids=["moderate", "tight"],
    )
    def test_searches_starting_at_the_arq_charge_need_few_probes(self, points, probes, evaluations):
        rows = [
            row
            for p0, lam, r_max, c_max, n_max in points
            for row in search_eta_star(ChannelModel(p0, lam, r_max), Truncation(n_max, r_max), c_max).trace
        ]
        assert len(rows) <= probes
        assert sum(row.iterations for row in rows) <= evaluations

    def test_harq_beats_arq_at_same_budget(self):
        # Never retransmitting is always available, so allowing combining
        # cannot hurt the optimum.
        c_max = 0.3
        harq = solve_constrained(ChannelModel(0.5, 0.5, 3), Truncation(100, 3), c_max)
        assert harq.achieved_aoi <= arq.optimal_policy(0.5, c_max).avg_aoi + 1e-9


_DOMAIN_ERRORS = (
    errors.InadmissibleQueryError,
    errors.ProtocolViolationError,
    errors.ConvergenceError,
    errors.NoStationaryAoIError,
    errors.MultichainError,
    errors.BracketingError,
    errors.EtaSearchError,
)


@given(
    p0=st.floats(0.05, 0.9),
    lam=st.floats(0.05, 1.0),
    r_max=st.integers(0, 4),
    c_max=st.floats(0.01, 1.0),
)
@settings(max_examples=30, deadline=None)
def test_harq_meets_budget_or_raises_a_named_error(p0, lam, r_max, c_max):
    try:
        sol = solve_constrained(ChannelModel(p0, lam, r_max), Truncation(60, r_max), c_max)
    except _DOMAIN_ERRORS:
        return
    assert abs(sol.achieved_cost - c_max) <= 1e-6


# Draws of the model, age cap and budget for the certificate's properties.
_DRAWS = dict(
    p0=st.floats(0.05, 0.95),
    lam=st.floats(0.05, 1.0),
    r_max=st.integers(0, 4),
    n_max=st.integers(2, 80),
    c_max=st.floats(0.02, 1.0),
)
# Here the solver once read off a policy 7.2e-10 relative above the one it evaluated.
_READ_OFF_POINT = (0.17953721532583555, 0.49169653972600275, 4, 0.46067347610183607, 28)
# An earlier walk counted a probe within 1e-12 of max(1, |g|) below its endpoints' line as on it, and
# ended here 1.48e-12 of the age above the bound, skipping an envelope vertex.
_SKIPPED_VERTEX = dict(p0=0.24503258447050819, lam=0.591202787643121, r_max=3, n_max=51, c_max=0.3145526135919072)


class TestDualityCertificate:
    def test_a_read_off_that_left_the_optimum(self):
        assert oracles.duality_gap([_READ_OFF_POINT]) <= 1e-12

    def test_the_sweep_point_that_skipped_a_vertex(self):
        # The default sweep's harq row at budget 0.25 once ended 1.44e-12 of the age above the bound.
        assert oracles.duality_gap([(0.3, 0.5, 3, 0.25, 150)]) <= 1e-12

    # The same walk ended 1.40e-12 and 1.14e-12 of the age above the bound at these two points.
    @example(**_SKIPPED_VERTEX)
    @example(p0=0.2633052847515801, lam=0.7345321733285114, r_max=2, n_max=69, c_max=0.4276236472339975)
    @example(p0=0.44447305832723394, lam=0.8520029056356332, r_max=4, n_max=34, c_max=0.19518793377496552)
    @given(**_DRAWS)
    @settings(max_examples=40, deadline=None)
    def test_the_answer_meets_its_lower_bound(self, p0, lam, r_max, n_max, c_max):
        try:
            gap = oracles.duality_gap([(p0, lam, r_max, c_max, n_max)])
        except errors.TruncationError:  # the age cap is too small for the budget
            return
        assert gap <= 1e-12

    @example(**dict(zip(("p0", "lam", "r_max", "c_max", "n_max"), _READ_OFF_POINT)))
    @example(**_SKIPPED_VERTEX)
    @given(**_DRAWS)
    @settings(max_examples=40, deadline=None)
    def test_the_walk_ends_on_a_probe_that_returns_an_endpoint(self, p0, lam, r_max, n_max, c_max):
        try:
            search = search_eta_star(ChannelModel(p0, lam, r_max), Truncation(n_max, r_max), c_max)
        except errors.TruncationError:
            return
        if search.exact_hit:
            return
        last = search.trace[-1]
        ends = [(out.evaluation.avg_aoi, out.evaluation.avg_cost) for out in (search.low, search.high)]
        assert last.eta == search.eta_star and (last.avg_aoi, last.avg_cost) in ends
