"""§V-E cold-cache forwarding latency (text experiment, no figure number).

Deploys 5 fresh hosts, launches the 45 flows among them and measures the
first-packet latency under LazyCtrl (intra-group and inter-group) and the
OpenFlow baseline.  Paper numbers: 0.83 ms / 5.38 ms / 15.06 ms; the
benchmark asserts the ordering and the order-of-magnitude gap between
intra-group LazyCtrl and the baseline.
"""

from __future__ import annotations

import pytest

from repro.common.formatting import format_table
from repro.common.config import GroupingConfig, LazyCtrlConfig
from repro.core.latency_eval import ColdCacheExperiment, ColdCacheExperimentConfig


@pytest.mark.benchmark(group="coldcache")
def test_cold_cache_forwarding_latency(benchmark):
    config = ColdCacheExperimentConfig(
        fresh_host_count=5,
        switch_count=24,
        background_host_count=240,
        warmup_flows=4000,
        seed=2015,
    )
    system_config = LazyCtrlConfig(grouping=GroupingConfig(group_size_limit=4, random_seed=2015))
    experiment = ColdCacheExperiment(config, system_config=system_config)

    result = benchmark.pedantic(experiment.run, rounds=1, iterations=1)

    print()
    print(format_table(
        ["Scenario", "Measured (ms)", "Paper (ms)"],
        [
            ["LazyCtrl, intra-group", f"{result.lazyctrl_intra_group_ms:.2f}", "0.83"],
            ["LazyCtrl, inter-group", f"{result.lazyctrl_inter_group_ms:.2f}", "5.38"],
            ["OpenFlow (reactive)", f"{result.openflow_ms:.2f}", "15.06"],
        ],
        title="§V-E — cold-cache forwarding latency (first packet of 45 fresh flows)",
    ))

    assert result.lazyctrl_intra_group_ms < result.lazyctrl_inter_group_ms < result.openflow_ms
    # "More than an order of magnitude smaller" for the intra-group path.
    assert result.intra_group_speedup() > 10.0
    # Magnitude bands.
    assert result.lazyctrl_intra_group_ms < 3.0
    assert 2.0 < result.lazyctrl_inter_group_ms < 12.0
    assert result.openflow_ms > 8.0
