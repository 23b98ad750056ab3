#!/usr/bin/env python3
"""Failure detection and failover inside a Local Control Group.

Reproduces the paper's §III-E machinery end to end:

1. build a LazyCtrl deployment and pick one Local Control Group;
2. show the failure-detection wheel (ring order, keep-alive probes);
3. fail the designated switch, run a probe round, infer the failure class
   (Table I) and apply the recovery actions (backup promotion, outage notice,
   remote reboot);
4. bring the switch back and re-synchronize group state;
5. demonstrate control-link and peer-link failure handling.

Run with::

    python examples/failover_demo.py
"""

from __future__ import annotations

from repro.common.formatting import format_table
from repro.common.config import GroupingConfig, LazyCtrlConfig
from repro.core.system import LazyCtrlSystem
from repro.failover.detection import DetectionResult, FailureDetector, FailureKind
from repro.failover.recovery import FailoverManager
from repro.topology.builder import TopologyProfile, build_multi_tenant_datacenter
from repro.traffic.realistic import RealisticTraceGenerator, RealisticTraceProfile


def main() -> None:
    network = build_multi_tenant_datacenter(
        TopologyProfile(switch_count=18, host_count=240, seed=23, home_switches_per_tenant=2)
    )
    trace = RealisticTraceGenerator(
        network, RealisticTraceProfile(total_flows=6_000, seed=23)
    ).generate(name="failover-demo")
    config = LazyCtrlConfig(grouping=GroupingConfig(group_size_limit=6, random_seed=23),
                            designated_backup_count=1)
    system = LazyCtrlSystem(network, config=config, dynamic_grouping=False)
    system.install_initial_grouping(trace, warmup_end=3600.0)

    group = max(system.controller.groups.values(), key=len)
    print(f"Using group {group.group_id}: members {group.member_ids()}, "
          f"designated switch {group.designated_switch_id}, backups {group.backup_switch_ids}")
    print(f"Failure-detection wheel order: {group.ring_order()}\n")

    detector = FailureDetector(group, keepalive_interval=1.0)
    manager = FailoverManager(system.controller, group)

    # --- designated switch failure -------------------------------------------
    victim = group.designated_switch_id
    print(f"Injecting a failure of the designated switch {victim}...")
    group.member(victim).failed = True
    detections = detector.detect()
    rows = [[d.switch_id, d.failure.value] for d in detections]
    print(format_table(["Switch", "Inferred failure (Table I)"], rows, title="Detection results"))

    records = manager.handle_all(detections)
    print(format_table(
        ["Subject", "Action", "Detail"],
        [[r.switch_id, r.action.value, r.detail] for r in records],
        title="Recovery actions",
    ))
    print(f"New designated switch: {group.designated_switch_id}\n")

    print(f"Switch {victim} comes back; re-synchronizing group state...")
    group.member(victim).failed = False
    for record in manager.complete_switch_recovery(victim):
        print(f"  {record.action.value}: {record.detail}")

    # --- link failures ---------------------------------------------------------
    print("\nHandling a control-link failure and a peer-link failure:")
    some_switch = group.member_ids()[0]
    for failure in (FailureKind.CONTROL_LINK, FailureKind.PEER_LINK_DOWN):
        for record in manager.handle(DetectionResult(switch_id=some_switch, failure=failure)):
            print(f"  {failure.value:>16}: {record.action.value} ({record.detail})")

    print(f"\nKeep-alive probes sent in this demo: {detector.probes_sent}")
    print(f"Recovery records accumulated: {len(manager.records)}")


if __name__ == "__main__":
    main()
