#!/usr/bin/env python3
"""Finite flow tables under pressure: policy sweep and capacity sweep.

Real switches hold a few thousand TCAM entries, and what happens when rules
age or space runs out is pure control-plane load: every rule removed too
early comes back as a ``Packet_In`` re-install. This example puts both
systems under the same table pressure and shows two things:

1. a **policy sweep** at a fixed tight capacity — how static idle/hard
   timeouts, pure LRU eviction, and the adaptive inter-arrival predictor
   trade table occupancy against re-install load;
2. a **capacity sweep** under one policy — how the reactive baseline
   (a rule per flow) degrades as tables shrink while LazyCtrl's tables,
   which hold only inter-group fine-grained rules, barely notice.

Run with::

    python examples/table_pressure_sweep.py
"""

from __future__ import annotations

from repro.common.formatting import format_table
from repro.common.config import FlowTableConfig, GroupingConfig, LazyCtrlConfig
from repro.core.runner import ScenarioRunner
from repro.core.scenario import ScenarioSpec, ScheduleSpec, TraceSpec
from repro.topology.builder import TopologyProfile

SWITCHES, HOSTS, FLOWS, SEED = 16, 200, 30_000, 7

POLICIES = [
    FlowTableConfig(policy="static-idle", idle_timeout_seconds=1800.0),
    FlowTableConfig(policy="idle-hard-hybrid",
                    idle_timeout_seconds=1800.0, hard_timeout_seconds=7200.0),
    FlowTableConfig(policy="lru"),
    FlowTableConfig(policy="adaptive", idle_timeout_seconds=1800.0,
                    policy_params={"min_timeout_seconds": 60.0, "max_timeout_seconds": 3600.0}),
]


def spec_with(table: FlowTableConfig, capacity: int, name: str) -> ScenarioSpec:
    # resized() also shrinks the eviction batch to fit the tiny tables.
    return ScenarioSpec(
        name=name,
        topology=TopologyProfile(switch_count=SWITCHES, host_count=HOSTS, seed=SEED),
        traffic=TraceSpec.realistic(total_flows=FLOWS, seed=SEED),
        systems=("openflow", "lazyctrl-dynamic"),
        schedule=ScheduleSpec(duration_hours=24.0, bucket_hours=2.0),
        config=LazyCtrlConfig(
            grouping=GroupingConfig(group_size_limit=4, random_seed=SEED),
            flow_table=table.resized(capacity),
        ),
    )


def main() -> None:
    runner = ScenarioRunner()

    # --- policy sweep at a fixed tight capacity ------------------------------
    rows = []
    for table in POLICIES:
        result = runner.run(spec_with(table, 8, f"sweep-{table.policy}"))
        for system in ("openflow", "lazyctrl-dynamic"):
            usage = result.runs[system].tables
            rows.append([
                table.policy,
                system,
                result.runs[system].counters.controller_requests,
                usage.overflows,
                usage.reinstalls,
                usage.idle_timeouts + usage.hard_timeouts,
                usage.peak_occupancy,
            ])
    print(format_table(
        ["policy", "system", "ctrl requests", "overflows", "re-installs",
         "timeouts", "peak occ"],
        rows,
        title=f"Timeout/eviction policies at capacity 8 ({FLOWS:,} flows)",
    ))
    print()

    # --- capacity sweep with timeouts disabled (eviction pressure only) ------
    rows = []
    for capacity in (4, 8, 16):
        result = runner.run(spec_with(
            FlowTableConfig(policy="lru"), capacity, f"capacity-{capacity}"
        ))
        openflow = result.runs["openflow"].tables
        lazyctrl = result.runs["lazyctrl-dynamic"].tables
        rows.append([
            capacity,
            openflow.reinstalls,
            lazyctrl.reinstalls,
            openflow.overflows,
            lazyctrl.overflows,
        ])
    print(format_table(
        ["capacity", "OF re-installs", "LC re-installs", "OF overflows", "LC overflows"],
        rows,
        title="Re-install load vs table capacity (lru: eviction is the only removal)",
    ))
    print()
    print("LazyCtrl's edge tables hold only inter-group fine-grained rules, so")
    print("the same capacity that thrashes the reactive baseline stays quiet.")


if __name__ == "__main__":
    main()
