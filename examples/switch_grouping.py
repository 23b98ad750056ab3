#!/usr/bin/env python3
"""Switch grouping with SGI: initial grouping quality and incremental updates.

Demonstrates the grouping subsystem in isolation (the paper's Fig. 6 story):

1. build a multi-tenant data center and a skewed trace;
2. run ``IniGroup`` (size-constrained multi-level k-way partitioning) for a
   range of group counts and report the normalized inter-group intensity;
3. shift the traffic pattern and show how ``IncUpdate`` (merge + minimum
   re-bisection) repairs the grouping at a fraction of the cost of a full
   regroup.

Run with::

    python examples/switch_grouping.py
"""

from __future__ import annotations

import time

from repro.common.formatting import format_percent, format_table
from repro.common.config import GroupingConfig
from repro.datastructures.intensity import IntensityMatrix
from repro.partitioning.sgi import SgiGrouper, grouping_quality
from repro.topology.builder import TopologyProfile, build_multi_tenant_datacenter
from repro.traffic.realistic import RealisticTraceGenerator, RealisticTraceProfile


def main() -> None:
    network = build_multi_tenant_datacenter(
        TopologyProfile(switch_count=60, host_count=900, seed=7, home_switches_per_tenant=3)
    )
    trace = RealisticTraceGenerator(
        network, RealisticTraceProfile(total_flows=30_000, seed=7)
    ).generate(name="grouping-demo")
    matrix = trace.switch_intensity()

    # --- IniGroup quality vs. number of groups (Fig. 6(a) shape) -------------
    rows = []
    for group_count in (4, 6, 10, 15, 20):
        limit = max(3, -(-network.switch_count() // group_count))
        grouper = SgiGrouper(GroupingConfig(group_size_limit=limit, random_seed=7))
        started = time.perf_counter()
        grouping = grouper.initial_grouping(matrix, group_count=group_count, group_size_limit=limit)
        elapsed_ms = (time.perf_counter() - started) * 1000.0
        rows.append([
            group_count,
            limit,
            format_percent(grouping_quality(matrix, grouping)),
            f"{elapsed_ms:.1f} ms",
        ])
    print(format_table(
        ["# groups", "Size limit", "Inter-group traffic (W_inter)", "IniGroup time"],
        rows,
        title="IniGroup: fewer, larger groups keep the controller lazier",
    ))

    # --- IncUpdate after a traffic shift --------------------------------------
    grouper = SgiGrouper(GroupingConfig(group_size_limit=10, random_seed=7))
    grouping = grouper.initial_grouping(matrix)
    print(f"\nInitial grouping: {grouping.group_count()} groups, "
          f"W_inter = {format_percent(grouping_quality(matrix, grouping))}")

    # Shift: two previously unrelated switch sets start exchanging traffic.
    recent = IntensityMatrix(matrix.switches())
    switches = matrix.switches()
    for a in switches[:5]:
        for b in switches[-5:]:
            recent.record(a, b, 40.0)
    shifted = matrix.copy()
    shifted.merge(recent)
    print(f"After the shift the old grouping leaks "
          f"{format_percent(shifted.normalized_inter_group_intensity(grouping.as_sets()))} "
          "of the traffic to the controller.")

    report = grouper.incremental_update(grouping, matrix, recent)
    print(f"IncUpdate ({report.merge_split_count} merge/split steps, "
          f"{report.elapsed_seconds * 1000:.1f} ms) brings it back to "
          f"{format_percent(shifted.normalized_inter_group_intensity(report.grouping.as_sets()))}.")


if __name__ == "__main__":
    main()
