"""Fig. 6(a) — normalized inter-group traffic intensity vs. number of groups.

Runs the size-constrained MLkP (SGI's ``IniGroup``) on the intensity graphs
of the three synthetic traces for an increasing number of groups and reports
the normalized inter-group traffic intensity ``W_inter``.  The paper's shape:
``W_inter`` increases (roughly linearly) with the number of groups, and
traces with higher average centrality sit lower.
"""

from __future__ import annotations

import pytest

from repro.common.formatting import format_table
from repro.common.config import GroupingConfig
from repro.partitioning.sgi import SgiGrouper, grouping_quality

GROUP_COUNTS = (4, 8, 16, 32, 64)


def _sweep(synthetic_traces):
    results = {}
    for trace in synthetic_traces:
        matrix = trace.switch_intensity()
        switch_count = len(matrix.switches())
        series = []
        for group_count in GROUP_COUNTS:
            if group_count > switch_count:
                continue
            limit = max(2, -(-switch_count // group_count))  # ceil division
            grouper = SgiGrouper(GroupingConfig(group_size_limit=limit, random_seed=2015))
            grouping = grouper.initial_grouping(matrix, group_count=group_count, group_size_limit=limit)
            series.append((group_count, grouping_quality(matrix, grouping)))
        results[trace.name] = series
    return results


@pytest.mark.benchmark(group="fig6a")
def test_fig6a_inter_group_traffic_vs_group_count(benchmark, synthetic_traces):
    results = benchmark.pedantic(_sweep, args=(synthetic_traces,), rounds=1, iterations=1)

    rows = []
    for name, series in results.items():
        for group_count, w_inter in series:
            rows.append([name, group_count, f"{100.0 * w_inter:.1f}%"])
    print()
    print(format_table(
        ["Trace", "# of groups", "Normalized inter-group intensity"],
        rows,
        title="Fig. 6(a) — inter-group traffic intensity vs. number of groups",
    ))

    for name, series in results.items():
        w_values = [w for _, w in series]
        # W_inter grows with the number of groups (fewer, larger groups keep
        # the controller lazier), as in the paper.
        assert w_values[-1] >= w_values[0]
        assert all(0.0 <= w <= 1.0 for w in w_values)

    # Higher-centrality traces have lower inter-group intensity at every
    # group count where both are defined (Syn-A below Syn-C).
    syn_a = dict(results["Syn-A"])
    syn_c = dict(results["Syn-C"])
    common = sorted(set(syn_a) & set(syn_c))
    assert sum(syn_a[k] for k in common) < sum(syn_c[k] for k in common)
