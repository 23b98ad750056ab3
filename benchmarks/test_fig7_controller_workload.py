"""Fig. 7 — controller workload over a day.

Replays the (scaled) real trace against standard OpenFlow control and
LazyCtrl in static/dynamic mode, and the expanded trace against LazyCtrl in
static/dynamic mode, reporting controller workload per 2-hour bucket.  The
paper's headline: LazyCtrl reduces controller workload by 61-82 %, workload
stays relatively stable over the day on the real trace, and dynamic
(IncUpdate-enabled) grouping beats static grouping on the expanded trace.
"""

from __future__ import annotations

import pytest

from repro.common.formatting import format_table, two_hour_bucket_labels
from repro.core.results import WorkloadComparison


@pytest.mark.benchmark(group="fig7")
def test_fig7_controller_workload(benchmark, day_long_results):
    results = benchmark.pedantic(lambda: day_long_results, rounds=1, iterations=1)

    labels = list(results)
    buckets = two_hour_bucket_labels(2.0, 12)
    rows = []
    for index, bucket in enumerate(buckets):
        row = [bucket]
        for label in labels:
            krps = results[label].workload.krps
            row.append(f"{krps[index]:.3f}" if index < len(krps) else "-")
        rows.append(row)
    print()
    print(format_table(["Hour"] + labels, rows, title="Fig. 7 — controller workload (Krps per 2-hour bucket)"))

    openflow = results["OpenFlow"].workload
    real_static = results["LazyCtrl (real, static)"].workload
    real_dynamic = results["LazyCtrl (real, dynamic)"].workload
    expanded_static = results["LazyCtrl (expanded, static)"].workload
    expanded_dynamic = results["LazyCtrl (expanded, dynamic)"].workload

    reduction_static = WorkloadComparison(openflow, real_static).reduction_fraction()
    reduction_dynamic = WorkloadComparison(openflow, real_dynamic).reduction_fraction()
    print(f"\nWorkload reduction vs OpenFlow: static {reduction_static:.1%}, dynamic {reduction_dynamic:.1%} "
          f"(paper: 61%-82%)")

    # Shape assertions.
    assert 0.45 <= reduction_static <= 1.0
    assert 0.55 <= reduction_dynamic <= 1.0
    assert reduction_dynamic >= reduction_static - 0.05
    # Every LazyCtrl variant stays below the baseline in every bucket with traffic.
    for variant in (real_static, real_dynamic):
        for base, lazy in zip(openflow.krps, variant.krps):
            if base > 0:
                assert lazy <= base + 1e-9
    # On the expanded trace the incremental updates keep the controller at
    # least as lazy as the frozen static grouping.  At reduced benchmark
    # scale the uniformly random extra flows leave little locality for
    # regrouping to recover, so the two can be nearly tied — allow a small
    # tolerance rather than requiring a strict win.
    assert sum(expanded_dynamic.krps) <= sum(expanded_static.krps) * 1.05 + 1e-9
    # The expanded trace generates more controller work than the real one for
    # the same (static) grouping — the extra flows break the locality.
    assert sum(expanded_static.krps) >= sum(real_static.krps) - 1e-9
