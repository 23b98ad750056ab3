"""Fig. 9 — steady-state forwarding latency.

Reports the mean per-packet forwarding latency per 2-hour bucket for the
OpenFlow baseline and LazyCtrl (dynamic) on the real trace.  The paper's
shape: LazyCtrl achieves roughly a 10 % lower average latency, a byproduct of
the lighter controller load and the intra-group fast path.
"""

from __future__ import annotations

import pytest

from repro.common.formatting import format_table, two_hour_bucket_labels


@pytest.mark.benchmark(group="fig9")
def test_fig9_steady_state_latency(benchmark, day_long_results):
    results = benchmark.pedantic(lambda: day_long_results, rounds=1, iterations=1)

    openflow = results["OpenFlow"].latency
    lazyctrl = results["LazyCtrl (real, dynamic)"].latency

    buckets = two_hour_bucket_labels(2.0, 12)
    rows = []
    for index, bucket in enumerate(buckets):
        of_value = openflow.mean_latency_ms[index] if index < len(openflow.mean_latency_ms) else 0.0
        lc_value = lazyctrl.mean_latency_ms[index] if index < len(lazyctrl.mean_latency_ms) else 0.0
        rows.append([bucket, f"{of_value:.3f}", f"{lc_value:.3f}"])
    print()
    print(format_table(
        ["Hour", "OpenFlow (ms)", "LazyCtrl (ms)"],
        rows,
        title="Fig. 9 — steady-state average forwarding latency",
    ))

    reduction = 1.0 - lazyctrl.overall_mean_ms / openflow.overall_mean_ms
    print(f"\nOverall mean latency: OpenFlow {openflow.overall_mean_ms:.3f} ms, "
          f"LazyCtrl {lazyctrl.overall_mean_ms:.3f} ms (reduction {reduction:.1%}, paper: ~10%)")

    # LazyCtrl's average latency is lower in aggregate and in (almost) every
    # bucket that carries traffic.
    assert lazyctrl.overall_mean_ms < openflow.overall_mean_ms
    assert 0.02 <= reduction <= 0.6
    better_buckets = sum(
        1
        for of_value, lc_value in zip(openflow.mean_latency_ms, lazyctrl.mean_latency_ms)
        if of_value > 0 and lc_value <= of_value
    )
    traffic_buckets = sum(1 for value in openflow.mean_latency_ms if value > 0)
    assert better_buckets >= traffic_buckets * 0.75
