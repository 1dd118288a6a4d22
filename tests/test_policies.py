import pytest

from aoi_sched.mdp import Action, State, Truncation, enumerate_states
from aoi_sched.policies import (
    DeterministicTable,
    PeriodicPolicy,
    RandomizedTable,
    RenewalMixture,
    ThresholdPolicy,
    action_table,
    table_difference,
)


class TestTables:
    def test_lookup_clamps_to_truncation(self):
        trunc = Truncation(5, 0)
        table = DeterministicTable(
            {State(d, 0): (Action.NEW_UPDATE if d == 5 else Action.IDLE) for d in range(1, 6)},
            trunc,
        )
        assert table.action_at(State(17, 0)) is Action.NEW_UPDATE
        assert table.action_probs(State(17, 0)) == {Action.NEW_UPDATE: 1.0}

    def test_randomized_rows_validated(self):
        trunc = Truncation(3, 0)
        with pytest.raises(ValueError):
            RandomizedTable({State(1, 0): {Action.IDLE: 0.6, Action.NEW_UPDATE: 0.6}}, trunc)
        with pytest.raises(ValueError):
            RandomizedTable({State(1, 0): {Action.IDLE: -0.2, Action.NEW_UPDATE: 1.2}}, trunc)

    def test_zero_probability_actions_dropped(self):
        trunc = Truncation(3, 0)
        table = RandomizedTable(
            {State(1, 0): {Action.IDLE: 1.0, Action.NEW_UPDATE: 0.0}}, trunc
        )
        assert table.action_probs(State(1, 0)) == {Action.IDLE: 1.0}

    def test_table_difference(self):
        trunc = Truncation(3, 0)
        base = {State(d, 0): Action.IDLE for d in range(1, 4)}
        other = dict(base)
        other[State(2, 0)] = Action.NEW_UPDATE
        diff = table_difference(
            DeterministicTable(base, trunc), DeterministicTable(other, trunc)
        )
        assert diff == [State(2, 0)]


class TestThresholdPolicy:
    def test_decision_regions(self):
        pol = ThresholdPolicy(4, 0.3)
        assert pol.action_probs(State(3, 0)) == {Action.IDLE: 1.0}
        assert pol.action_probs(State(4, 0)) == {Action.NEW_UPDATE: 0.3, Action.IDLE: 0.7}
        assert pol.action_probs(State(9, 2)) == {Action.NEW_UPDATE: 1.0}

    def test_validation(self):
        with pytest.raises(ValueError):
            ThresholdPolicy(0)
        with pytest.raises(ValueError):
            ThresholdPolicy(3, 1.5)

    def test_describe(self):
        assert ThresholdPolicy(4).describe() == "threshold[4]"
        assert "p=0.3" in ThresholdPolicy(4, 0.3).describe()


class TestMixtureAndPeriodic:
    def test_mixture_weight_validated(self):
        a, b = ThresholdPolicy(3), ThresholdPolicy(4)
        with pytest.raises(ValueError):
            RenewalMixture(a, b, 1.7)

    def test_periodic_schedule(self):
        pol = PeriodicPolicy(4)
        assert [pol.transmits_at(t) for t in range(1, 9)] == [
            True, False, False, False, True, False, False, False,
        ]

    def test_period_validated(self):
        with pytest.raises(ValueError):
            PeriodicPolicy(0)


class TestActionTable:
    @pytest.mark.parametrize(
        "policy",
        [
            DeterministicTable(
                {s: Action(min(s.r + (s.delta > 4), 2)) for s in enumerate_states(Truncation(8, 2))}, Truncation(8, 2)
            ),
            RandomizedTable(
                {
                    s: {Action.IDLE: 0.25, Action.NEW_UPDATE: 0.75} if s.delta % 2 else {Action.NEW_UPDATE: 1.0}
                    for s in enumerate_states(Truncation(6, 1))
                },
                Truncation(6, 1),
            ),
            ThresholdPolicy(3, 0.4),
            ThresholdPolicy(2, 1.0),
        ],
        ids=["deterministic", "randomized", "threshold", "sure-threshold"],
    )
    def test_rows_are_the_action_probs_with_clamping(self, policy):
        table = action_table(policy)
        n_age, n_att = table.shape[:2]
        for s in enumerate_states(Truncation(15, 4)):
            row = table[min(s.delta, n_age - 1), min(s.r, n_att - 1)]
            assert {a: p for a, p in zip(Action, row) if p > 0.0} == policy.action_probs(s)

    def test_table_must_list_every_state(self):
        trunc = Truncation(5, 1)
        acts = {s: Action.IDLE for s in enumerate_states(trunc) if s != State(3, 1)}
        with pytest.raises(ValueError, match="lists 8 of the 9 states"):
            action_table(DeterministicTable(acts, trunc))
