"""Unit tests for the grouping manager (regrouping triggers, Fig. 8 accounting)."""

from repro.common.config import GroupingConfig, RegroupingPolicy
from repro.controlplane.grouping_manager import GroupingManager
from repro.datastructures.intensity import IntensityMatrix


def warmup_matrix() -> IntensityMatrix:
    matrix = IntensityMatrix()
    for i in range(10):
        for j in range(i + 1, 10):
            matrix.record(i, j, 5.0)
            matrix.record(10 + i, 10 + j, 5.0)
    return matrix


def make_manager(*, dynamic: bool = True, policy: RegroupingPolicy | None = None) -> GroupingManager:
    return GroupingManager(
        grouping_config=GroupingConfig(group_size_limit=10, random_seed=1),
        policy=policy or RegroupingPolicy(min_interval_seconds=120.0, max_interval_seconds=7200.0),
        dynamic=dynamic,
    )


class TestInitialGrouping:
    def test_initial_grouping_recorded(self):
        manager = make_manager()
        grouping = manager.initial_grouping(warmup_matrix(), now=0.0, workload_rps=100.0)
        assert manager.current_grouping is grouping
        assert grouping.switch_count() == 20

    def test_register_switches(self):
        manager = make_manager()
        manager.register_switches([1, 2, 3])
        assert set(manager.recent_matrix.switches()) >= {1, 2, 3}


class TestCheckTriggers:
    def test_no_grouping_no_action(self):
        manager = make_manager()
        decision = manager.check(1000.0, workload_rps=500.0)
        assert not decision.regrouped and "no initial grouping" in decision.reason

    def test_static_mode_never_regroups(self):
        manager = make_manager(dynamic=False)
        manager.initial_grouping(warmup_matrix(), now=0.0, workload_rps=100.0)
        decision = manager.check(10_000.0, workload_rps=10_000.0)
        assert not decision.regrouped and decision.reason == "static mode"

    def test_minimum_interval_respected(self):
        manager = make_manager()
        manager.initial_grouping(warmup_matrix(), now=0.0, workload_rps=100.0)
        decision = manager.check(60.0, workload_rps=10_000.0)
        assert not decision.regrouped and "minimum update interval" in decision.reason

    def test_no_trigger_when_workload_stable(self):
        manager = make_manager()
        manager.initial_grouping(warmup_matrix(), now=0.0, workload_rps=100.0)
        decision = manager.check(300.0, workload_rps=101.0)
        assert not decision.regrouped and decision.reason == "no trigger fired"

    def test_workload_growth_triggers_update(self):
        manager = make_manager()
        manager.initial_grouping(warmup_matrix(), now=0.0, workload_rps=100.0)
        # Recent traffic crosses the old group boundary, so an update helps.
        for i in range(5, 10):
            for j in range(10, 15):
                manager.recent_matrix.record(i, j, 30.0)
        decision = manager.check(300.0, workload_rps=200.0)
        assert decision.regrouped
        assert decision.reason == "workload growth"
        assert manager.update_count == 1
        assert decision.grouping.largest_group_size() <= 10

    def test_unhelpful_update_not_counted(self):
        manager = make_manager()
        manager.initial_grouping(warmup_matrix(), now=0.0, workload_rps=100.0)
        # Workload grew but traffic still matches the existing grouping.
        manager.recent_matrix.record(0, 1, 50.0)
        decision = manager.check(300.0, workload_rps=500.0)
        assert not decision.regrouped
        assert manager.update_count == 0

    def test_updates_per_hour_series(self):
        manager = make_manager()
        manager.initial_grouping(warmup_matrix(), now=0.0, workload_rps=10.0)
        for i in range(5, 10):
            for j in range(10, 15):
                manager.recent_matrix.record(i, j, 30.0)
        manager.check(3700.0, workload_rps=100.0)
        series = manager.updates_per_hour(hours=3)
        assert len(series) == 3
        assert series[1] == manager.update_count

    def test_growth_measured_relative_to_last_update(self):
        manager = make_manager()
        manager.initial_grouping(warmup_matrix(), now=0.0, workload_rps=1000.0)
        # A 10 % increase does not reach the 30 % trigger.
        decision = manager.check(300.0, workload_rps=1100.0)
        assert not decision.regrouped


def observe_cross_boundary_traffic(manager: GroupingManager) -> None:
    """Traffic crossing the initial group boundary, so an update helps."""
    for i in range(5, 10):
        for j in range(10, 15):
            manager.recent_matrix.record(i, j, 30.0)


class TestBoundaryInclusivity:
    """§IV-B comparisons are inclusive: exact boundaries trigger (both sides)."""

    def test_exact_min_interval_and_exact_growth_trigger(self):
        manager = make_manager()
        manager.initial_grouping(warmup_matrix(), now=0.0, workload_rps=100.0)
        observe_cross_boundary_traffic(manager)
        # Exactly the minimum interval elapsed, exactly 30 % growth.
        decision = manager.check(120.0, workload_rps=130.0)
        assert decision.regrouped
        assert decision.reason == "workload growth"

    def test_just_below_min_interval_blocks(self):
        manager = make_manager()
        manager.initial_grouping(warmup_matrix(), now=0.0, workload_rps=100.0)
        observe_cross_boundary_traffic(manager)
        decision = manager.check(119.999, workload_rps=130.0)
        assert not decision.regrouped
        assert "minimum update interval" in decision.reason

    def test_just_below_growth_trigger_does_not_fire(self):
        manager = make_manager()
        manager.initial_grouping(warmup_matrix(), now=0.0, workload_rps=100.0)
        decision = manager.check(300.0, workload_rps=129.9)
        assert not decision.regrouped
        assert decision.reason == "no trigger fired"

    def test_exact_growth_from_float_arithmetic_still_triggers(self):
        # 0.1 + 0.2 style float noise must not push an exact 30 % growth
        # below the trigger.
        manager = make_manager()
        baseline = 0.3 + 0.3 + 0.1  # 0.7000000000000001
        manager.initial_grouping(warmup_matrix(), now=0.0, workload_rps=baseline)
        observe_cross_boundary_traffic(manager)
        decision = manager.check(300.0, workload_rps=baseline * 1.3)
        assert decision.regrouped

    def test_exact_max_interval_counts_as_stale(self):
        manager = make_manager()
        manager.initial_grouping(warmup_matrix(), now=0.0, workload_rps=100.0)
        # No growth, no helpful traffic change: only staleness can fire.
        decision = manager.check(7200.0, workload_rps=100.0)
        assert decision.regrouped
        assert decision.reason == "max interval elapsed"


class TestChurnTrigger:
    def test_accumulated_churn_triggers_regrouping(self):
        manager = make_manager(
            policy=RegroupingPolicy(min_interval_seconds=120.0, churn_event_trigger=5)
        )
        manager.initial_grouping(warmup_matrix(), now=0.0, workload_rps=100.0)
        observe_cross_boundary_traffic(manager)
        manager.note_churn(5)
        decision = manager.check(300.0, workload_rps=100.0)
        assert decision.regrouped
        assert decision.reason == "topology churn"
        assert manager.churn_attributed_update_count == 1
        assert manager.churn_events_since_update == 0

    def test_churn_below_trigger_does_not_fire(self):
        manager = make_manager(
            policy=RegroupingPolicy(min_interval_seconds=120.0, churn_event_trigger=5)
        )
        manager.initial_grouping(warmup_matrix(), now=0.0, workload_rps=100.0)
        manager.note_churn(4)
        decision = manager.check(300.0, workload_rps=100.0)
        assert not decision.regrouped
        assert decision.reason == "no trigger fired"

    def test_zero_trigger_disables_churn_regrouping(self):
        manager = make_manager(
            policy=RegroupingPolicy(min_interval_seconds=120.0, churn_event_trigger=0)
        )
        manager.initial_grouping(warmup_matrix(), now=0.0, workload_rps=100.0)
        manager.note_churn(1000)
        decision = manager.check(300.0, workload_rps=100.0)
        assert not decision.regrouped

    def test_regrouping_with_pending_churn_is_attributed(self):
        manager = make_manager()
        manager.initial_grouping(warmup_matrix(), now=0.0, workload_rps=100.0)
        observe_cross_boundary_traffic(manager)
        manager.note_churn(3)  # below the trigger, but pending
        decision = manager.check(300.0, workload_rps=200.0)  # growth fires
        assert decision.regrouped and decision.reason == "workload growth"
        assert manager.churn_attributed_update_count == 1

    def test_regrouping_without_churn_is_not_attributed(self):
        manager = make_manager()
        manager.initial_grouping(warmup_matrix(), now=0.0, workload_rps=100.0)
        observe_cross_boundary_traffic(manager)
        decision = manager.check(300.0, workload_rps=200.0)
        assert decision.regrouped
        assert manager.churn_attributed_update_count == 0
