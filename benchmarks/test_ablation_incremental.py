"""Ablation A1 — value of incremental grouping updates (IncUpdate on/off).

The paper argues (§V-D) that on the expanded trace the controller workload
"can be significantly reduced when the IncUpdate function is applied".  This
ablation quantifies that claim at benchmark scale by comparing the static and
dynamic LazyCtrl runs on both traces.
"""

from __future__ import annotations

import pytest

from repro.common.formatting import format_percent, format_table
from repro.core.results import WorkloadComparison


@pytest.mark.benchmark(group="ablation-incremental")
def test_ablation_incremental_updates(benchmark, day_long_results):
    results = benchmark.pedantic(lambda: day_long_results, rounds=1, iterations=1)

    openflow = results["OpenFlow"].workload
    rows = []
    comparisons = {}
    for label in (
        "LazyCtrl (real, static)",
        "LazyCtrl (real, dynamic)",
        "LazyCtrl (expanded, static)",
        "LazyCtrl (expanded, dynamic)",
    ):
        comparison = WorkloadComparison(openflow, results[label].workload)
        comparisons[label] = comparison
        rows.append([
            label,
            f"{sum(results[label].workload.krps):.3f}",
            format_percent(comparison.reduction_fraction()),
            f"{sum(results[label].updates_per_hour):.0f}",
        ])
    print()
    print(format_table(
        ["Configuration", "Total workload (Krps-buckets)", "Reduction vs OpenFlow", "Grouping updates"],
        rows,
        title="Ablation A1 — incremental updates (IncUpdate) on vs. off",
    ))

    real_gain = (
        comparisons["LazyCtrl (real, dynamic)"].reduction_fraction()
        - comparisons["LazyCtrl (real, static)"].reduction_fraction()
    )
    expanded_gain = (
        comparisons["LazyCtrl (expanded, dynamic)"].reduction_fraction()
        - comparisons["LazyCtrl (expanded, static)"].reduction_fraction()
    )
    print(f"\nIncUpdate benefit: real trace {real_gain:+.1%}, expanded trace {expanded_gain:+.1%}")

    # Dynamic grouping never hurts, and it matters more on the expanded trace
    # whose locality keeps eroding (the paper's observation iii in §V-D).
    assert real_gain >= -0.05
    assert expanded_gain >= -0.02
    assert expanded_gain >= real_gain - 0.10
