"""Ablation A2 — group-size limit sweep and bargained group sizes (Appendix C).

The paper's Appendix C discusses the trade-off behind the group-size limit:
larger groups shield the controller better (less inter-group traffic) but
cost more switch-side state (more Bloom filters per G-FIB).  This ablation
sweeps the limit, reports both sides of the trade-off, and shows where the
Rubinstein-bargained size lands.
"""

from __future__ import annotations

import pytest

from repro.common.formatting import format_table
from repro.common.config import BloomFilterConfig, GroupingConfig
from repro.negotiation.bargaining import BargainingConfig, GroupSizeBargainer
from repro.partitioning.sgi import SgiGrouper, grouping_quality


def _sweep(real_trace, limits):
    matrix = real_trace.switch_intensity()
    bloom_bytes = BloomFilterConfig().size_bytes
    rows = []
    series = []
    for limit in limits:
        grouper = SgiGrouper(GroupingConfig(group_size_limit=limit, random_seed=2015))
        grouping = grouper.initial_grouping(matrix)
        w_inter = grouping_quality(matrix, grouping)
        max_group = grouping.largest_group_size()
        storage = (max_group - 1) * bloom_bytes
        series.append((limit, w_inter, storage))
        rows.append([limit, grouping.group_count(), f"{100 * w_inter:.1f}%", f"{storage:,}"])
    return rows, series


@pytest.mark.benchmark(group="ablation-group-size")
def test_ablation_group_size_tradeoff(benchmark, real_trace, real_topology):
    switch_count = real_topology.switch_count()
    limits = sorted({max(3, switch_count // 12), max(4, switch_count // 8),
                     max(5, switch_count // 6), max(6, switch_count // 3), switch_count})

    rows, series = benchmark.pedantic(_sweep, args=(real_trace, limits), rounds=1, iterations=1)
    print()
    print(format_table(
        ["Group size limit", "# groups", "W_inter (controller exposure)", "Worst-case G-FIB bytes/switch"],
        rows,
        title="Ablation A2 — group-size limit trade-off",
    ))

    # Larger limits expose the controller to no more traffic, but cost more
    # switch memory (the Appendix C trade-off).
    w_inter_values = [w for _, w, _ in series]
    storage_values = [s for _, _, s in series]
    assert w_inter_values[-1] <= w_inter_values[0] + 1e-9
    assert storage_values[-1] >= storage_values[0]

    # The bargained size lands strictly between the two extremes and within
    # the feasible range.
    bargainer = GroupSizeBargainer(
        BargainingConfig(minimum_group_size=limits[0], maximum_group_size=limits[-1])
    )
    outcome = bargainer.negotiate(switch_memory_capacity_entries=limits[-1])
    print(f"\nBargained group-size limit: {outcome.agreed_group_size} (range {limits[0]}..{limits[-1]}, "
          f"{outcome.rounds} rounds)")
    assert limits[0] <= outcome.agreed_group_size <= limits[-1]
