import re

import numpy as np
import pytest
from hypothesis import given, strategies as st

from aoi_sched.mdp import Action, State, Truncation, enumerate_states
from aoi_sched.policies import (
    DeterministicTable,
    PeriodicPolicy,
    RandomizedTable,
    RenewalMixture,
    ThresholdPolicy,
    clamped_rows,
)

import spec


class TestTables:
    def test_lookup_clamps_to_truncation(self):
        trunc = Truncation(5, 0)
        table = DeterministicTable(
            {State(d, 0): (Action.NEW_UPDATE if d == 5 else Action.IDLE) for d in range(1, 6)},
            trunc,
        )
        assert spec.probs(table, State(17, 0)) == {Action.NEW_UPDATE: 1.0}
        assert spec.probs(table, State(4, 0)) == {Action.IDLE: 1.0}

    def test_randomized_rows_validated(self):
        trunc = Truncation(3, 0)
        rows = {s: {Action.IDLE: 1.0} for s in enumerate_states(trunc)}
        with pytest.raises(ValueError, match=r"at State\(delta=2, r=0\) sum to 1.2, not 1"):
            RandomizedTable({**rows, State(2, 0): {Action.IDLE: 0.6, Action.NEW_UPDATE: 0.6}}, trunc)
        with pytest.raises(ValueError, match=r"negative action probability -0.2 at State\(delta=2, r=0\)"):
            RandomizedTable({**rows, State(2, 0): {Action.IDLE: -0.2, Action.NEW_UPDATE: 1.2}}, trunc)

    def test_randomized_array_validated(self):
        trunc = Truncation(3, 1)
        table = RandomizedTable({s: {Action.IDLE: 1.0} for s in enumerate_states(trunc)}, trunc).table.copy()
        table[3, 1, Action.NEW_UPDATE] = 1e-6
        with pytest.raises(ValueError, match=r"at State\(delta=3, r=1\) sum to"):
            RandomizedTable(table, trunc)
        table[3, 1] = 1.0 + 2e-10, -2e-10, 0.0  # within tolerance: accepted, read as 0
        accepted = RandomizedTable(table, trunc)
        assert spec.probs(accepted, State(3, 1)) == {Action.IDLE: 1.0 + 2e-10}
        assert accepted.table.min() == 0.0

    def test_zero_probability_actions_dropped(self):
        trunc = Truncation(3, 0)
        table = RandomizedTable(
            {s: {Action.IDLE: 1.0, Action.NEW_UPDATE: 0.0} for s in enumerate_states(trunc)}, trunc
        )
        assert spec.probs(table, State(1, 0)) == {Action.IDLE: 1.0}

    def test_actions_view_lists_every_state_in_order(self):
        trunc = Truncation(6, 2)
        acts = {s: Action(min(s.r + (s.delta > 3), 2)) for s in reversed(enumerate_states(trunc))}
        table = DeterministicTable(acts, trunc)
        assert spec.actions(table) == acts
        assert list(spec.actions(table)) == enumerate_states(trunc)


class TestThresholdPolicy:
    def test_decision_regions(self):
        pol = ThresholdPolicy(4, 0.3)
        assert spec.threshold(pol, State(3, 0)) == {Action.IDLE: 1.0}
        assert spec.threshold(pol, State(4, 0)) == {Action.NEW_UPDATE: 0.3, Action.IDLE: 0.7}
        assert spec.threshold(pol, State(9, 2)) == {Action.NEW_UPDATE: 1.0}

    @given(
        threshold=st.integers(1, 30),
        transmit_prob=st.one_of(st.just(0.0), st.just(1.0), st.floats(0.0, 1.0)),
    )
    def test_table_rows_follow_the_threshold_rule(self, threshold, transmit_prob):
        policy = ThresholdPolicy(threshold, transmit_prob)
        for s in enumerate_states(Truncation(threshold + 5, 4)):
            row = clamped_rows(policy.table, s.delta, s.r)
            assert {a: p for a, p in zip(Action, row.tolist()) if p > 0.0} == spec.threshold(policy, s), s

    def test_validation(self):
        with pytest.raises(ValueError):
            ThresholdPolicy(0)
        with pytest.raises(ValueError):
            ThresholdPolicy(3, 1.5)

    @pytest.mark.parametrize("threshold", [2.5, 4.0, "4"])
    def test_threshold_is_an_integer(self, threshold):
        with pytest.raises(ValueError, match=re.escape(f"threshold must be an integer of at least 1, got {threshold}")):
            ThresholdPolicy(threshold)
        assert ThresholdPolicy(np.int64(4)).table.shape == (6, 1, len(Action))

    def test_describe(self):
        assert ThresholdPolicy(4).describe() == "threshold[4]"
        assert "p=0.3" in ThresholdPolicy(4, 0.3).describe()


class TestMixtureAndPeriodic:
    def test_mixture_weight_validated(self):
        a, b = ThresholdPolicy(3), ThresholdPolicy(4)
        with pytest.raises(ValueError):
            RenewalMixture(a, b, 1.7)

    @pytest.mark.parametrize("other", [PeriodicPolicy(3), RenewalMixture(ThresholdPolicy(3), ThresholdPolicy(4), 0.5)])
    def test_mixture_rejects_components_without_a_state_table(self, other):
        for first, second in ((other, ThresholdPolicy(4)), (ThresholdPolicy(4), other)):
            with pytest.raises(ValueError, match=type(other).__name__):
                RenewalMixture(first, second, 0.5)

    def test_period_validated(self):
        with pytest.raises(ValueError):
            PeriodicPolicy(0)

    @pytest.mark.parametrize("period", [2.5, 3.0, "3"])
    def test_period_is_an_integer(self, period):
        with pytest.raises(ValueError, match=re.escape(f"period must be an integer of at least 1, got {period}")):
            PeriodicPolicy(period)
        assert PeriodicPolicy(np.int64(3)).describe() == "periodic[3]"


DET_TRUNC, RND_TRUNC = Truncation(8, 2), Truncation(6, 1)
DET_ROWS = {s: {Action(min(s.r + (s.delta > 4), 2)): 1.0} for s in enumerate_states(DET_TRUNC)}
RND_ROWS = {
    s: {Action.IDLE: 0.25, Action.NEW_UPDATE: 0.75} if s.delta % 2 else {Action.NEW_UPDATE: 1.0}
    for s in enumerate_states(RND_TRUNC)
}


def clamped(rows, trunc):
    """Per-state spec of a table mapping: larger states read the last row and column."""
    return lambda s: rows[State(min(s.delta, trunc.n_max), min(s.r, trunc.r_max))]


class TestActionTable:
    @pytest.mark.parametrize(
        "policy, reference",
        [
            (DeterministicTable({s: next(iter(d)) for s, d in DET_ROWS.items()}, DET_TRUNC), clamped(DET_ROWS, DET_TRUNC)),
            (RandomizedTable(RND_ROWS, RND_TRUNC), clamped(RND_ROWS, RND_TRUNC)),
            (ThresholdPolicy(3, 0.4), lambda s: spec.threshold(ThresholdPolicy(3, 0.4), s)),
            (ThresholdPolicy(2, 1.0), lambda s: spec.threshold(ThresholdPolicy(2, 1.0), s)),
        ],
        ids=["deterministic", "randomized", "threshold", "sure-threshold"],
    )
    def test_rows_are_the_action_probs_with_clamping(self, policy, reference):
        table = policy.table
        n_age, n_att = table.shape[:2]
        for s in enumerate_states(Truncation(15, 4)):
            row = table[min(s.delta, n_age - 1), min(s.r, n_att - 1)]
            assert {a: p for a, p in zip(Action, row) if p > 0.0} == reference(s)
            assert spec.probs(policy, s) == reference(s)

    def test_table_must_list_every_state(self):
        trunc = Truncation(5, 1)
        acts = {s: Action.IDLE for s in enumerate_states(trunc) if s != State(3, 1)}
        with pytest.raises(ValueError, match="table lists 8 of the 9 states"):
            DeterministicTable(acts, trunc)
        with pytest.raises(ValueError, match="randomized-table lists 8 of the 9 states"):
            RandomizedTable({s: {a: 1.0} for s, a in acts.items()}, trunc)
