"""Unit tests for failure detection (Table I) and failover actions."""


import pytest

from repro.common.addresses import MacAddress
from repro.common.config import GroupingConfig, LazyCtrlConfig
from repro.common.errors import FailoverError
from repro.controlplane.group import LocalControlGroup
from repro.controlplane.lazyctrl_controller import LazyCtrlController
from repro.dataplane.edge_switch import LazyCtrlEdgeSwitch
from repro.failover.detection import (
    FailureDetector,
    FailureKind,
    ProbeObservation,
    infer_failure,
)
from repro.failover.recovery import FailoverManager, RecoveryAction
from repro.partitioning.sgi import Grouping
from repro.topology.builder import TopologyProfile, build_multi_tenant_datacenter


def make_switches(count: int):
    return [LazyCtrlEdgeSwitch(i, management_mac=MacAddress.from_switch_index(i)) for i in range(count)]


class TestTableOneInference:
    """The four rows of Table I, plus the no-loss and ambiguous cases."""

    def test_control_link_failure(self):
        observation = ProbeObservation(switch_id=1, lost_from_controller=True)
        assert infer_failure(observation) == FailureKind.CONTROL_LINK

    def test_peer_link_up_failure(self):
        observation = ProbeObservation(switch_id=1, lost_to_predecessor=True)
        assert infer_failure(observation) == FailureKind.PEER_LINK_UP

    def test_peer_link_down_failure(self):
        observation = ProbeObservation(switch_id=1, lost_to_successor=True)
        assert infer_failure(observation) == FailureKind.PEER_LINK_DOWN

    def test_switch_failure(self):
        observation = ProbeObservation(
            switch_id=1, lost_to_predecessor=True, lost_to_successor=True, lost_from_controller=True
        )
        assert infer_failure(observation) == FailureKind.SWITCH

    def test_no_loss_means_no_failure(self):
        assert infer_failure(ProbeObservation(switch_id=1)) == FailureKind.NONE

    def test_partial_pattern_is_ambiguous(self):
        observation = ProbeObservation(switch_id=1, lost_to_predecessor=True, lost_from_controller=True)
        assert infer_failure(observation) == FailureKind.AMBIGUOUS


class TestFailureDetector:
    def test_healthy_group_detects_nothing(self):
        group = LocalControlGroup(1, make_switches(5))
        detector = FailureDetector(group)
        assert detector.detect() == []

    def test_failed_switch_detected(self):
        switches = make_switches(5)
        group = LocalControlGroup(1, switches)
        switches[2].failed = True
        detector = FailureDetector(group)
        results = detector.detect()
        assert len(results) == 1
        assert results[0].switch_id == 2
        assert results[0].failure == FailureKind.SWITCH

    def test_neighbor_collateral_loss_suppressed(self):
        switches = make_switches(5)
        group = LocalControlGroup(1, switches)
        switches[2].failed = True
        detector = FailureDetector(group)
        # Only the failed switch is reported, not its ring neighbours.
        assert {r.switch_id for r in detector.detect()} == {2}

    def test_multiple_failures_detected(self):
        switches = make_switches(6)
        group = LocalControlGroup(1, switches)
        switches[1].failed = True
        switches[4].failed = True
        detector = FailureDetector(group)
        assert {r.switch_id for r in detector.detect()} == {1, 4}

    def test_probe_counter(self):
        group = LocalControlGroup(1, make_switches(4))
        detector = FailureDetector(group)
        detector.probe_round()
        assert detector.probes_sent == 12

    def test_bad_keepalive_interval_rejected(self):
        group = LocalControlGroup(1, make_switches(2))
        with pytest.raises(FailoverError):
            FailureDetector(group, keepalive_interval=0.0)


@pytest.fixture()
def failover_setup():
    network = build_multi_tenant_datacenter(
        TopologyProfile(switch_count=6, host_count=60, seed=13, home_switches_per_tenant=2)
    )
    controller = LazyCtrlController(
        network, config=LazyCtrlConfig(grouping=GroupingConfig(group_size_limit=6, random_seed=13))
    )
    for info in network.switches():
        controller.register_switch(
            LazyCtrlEdgeSwitch(info.switch_id, management_mac=info.management_mac)
        )
    controller.bootstrap_host_locations()
    controller.apply_grouping(Grouping(groups={0: frozenset(range(6))}))
    group = controller.groups[0]
    return controller, group, FailoverManager(controller, group)


class TestFailoverManager:
    def test_switch_failure_recovery_sequence(self, failover_setup):
        controller, group, manager = failover_setup
        victim_id = next(sid for sid in group.member_ids() if sid != group.designated_switch_id)
        group.member(victim_id).failed = True
        detections = FailureDetector(group).detect()
        records = manager.handle_all(detections)
        actions = [record.action for record in records]
        assert RecoveryAction.SPREAD_OUTAGE_NOTICE in actions
        assert RecoveryAction.REMOTE_REBOOT in actions

    def test_designated_switch_failure_promotes_backup(self, failover_setup):
        controller, group, manager = failover_setup
        old_designated = group.designated_switch_id
        group.member(old_designated).failed = True
        detections = FailureDetector(group).detect()
        records = manager.handle_all(detections)
        assert any(record.action == RecoveryAction.RESELECT_DESIGNATED for record in records)
        assert group.designated_switch_id != old_designated

    def test_control_link_failure_relays_via_predecessor(self, failover_setup):
        from repro.failover.detection import DetectionResult

        controller, group, manager = failover_setup
        records = manager.handle(DetectionResult(switch_id=3, failure=FailureKind.CONTROL_LINK))
        assert records[0].action == RecoveryAction.RELAY_VIA_PREDECESSOR
        predecessor = group.ring_neighbors(3).predecessor
        assert str(predecessor) in records[0].detail

    def test_peer_link_failure_on_designated_reselects(self, failover_setup):
        from repro.failover.detection import DetectionResult

        controller, group, manager = failover_setup
        designated = group.designated_switch_id
        successor = group.ring_neighbors(designated).successor
        records = manager.handle(
            DetectionResult(switch_id=successor, failure=FailureKind.PEER_LINK_UP)
        )
        actions = [record.action for record in records]
        assert RecoveryAction.DETOUR_ROUTE in actions
        assert RecoveryAction.RESELECT_DESIGNATED in actions

    def test_peer_link_failure_away_from_designated_only_detours(self, failover_setup):
        from repro.failover.detection import DetectionResult

        controller, group, manager = failover_setup
        designated = group.designated_switch_id
        # Pick a switch whose up-link does not touch the designated switch.
        candidates = [
            sid
            for sid in group.member_ids()
            if sid != designated and group.ring_neighbors(sid).predecessor != designated
        ]
        victim = candidates[0]
        records = manager.handle(DetectionResult(switch_id=victim, failure=FailureKind.PEER_LINK_UP))
        assert [record.action for record in records] == [RecoveryAction.DETOUR_ROUTE]

    def test_ambiguous_failure_treated_as_detour(self, failover_setup):
        from repro.failover.detection import DetectionResult

        controller, group, manager = failover_setup
        records = manager.handle(DetectionResult(switch_id=1, failure=FailureKind.AMBIGUOUS))
        assert records[0].action == RecoveryAction.DETOUR_ROUTE

    def test_switch_recovery_resyncs_group(self, failover_setup):
        controller, group, manager = failover_setup
        victim_id = next(sid for sid in group.member_ids() if sid != group.designated_switch_id)
        group.member(victim_id).failed = True
        manager.handle_all(FailureDetector(group).detect())
        group.member(victim_id).failed = False
        records = manager.complete_switch_recovery(victim_id)
        assert records[0].action == RecoveryAction.RESYNC_GROUP_STATE

    def test_recovery_of_still_failed_switch_rejected(self, failover_setup):
        controller, group, manager = failover_setup
        victim_id = group.member_ids()[0]
        group.member(victim_id).failed = True
        with pytest.raises(FailoverError):
            manager.complete_switch_recovery(victim_id)

    def test_records_accumulate(self, failover_setup):
        from repro.failover.detection import DetectionResult

        controller, group, manager = failover_setup
        manager.handle(DetectionResult(switch_id=1, failure=FailureKind.CONTROL_LINK))
        manager.handle(DetectionResult(switch_id=2, failure=FailureKind.PEER_LINK_DOWN))
        assert len(manager.records) >= 2
