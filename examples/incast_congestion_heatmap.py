#!/usr/bin/env python3
"""See where congestion lives: utilization heatmaps and the p99 it creates.

The ``incast-congestion`` preset fans most of a day's flows into two hot
destination hosts during a two-hour burst, against ~1 Mbps edge uplinks.
This example replays a scaled-down version with the timeline enabled and
renders the three artifacts the bandwidth subsystem adds:

* a per-uplink utilization heatmap — the burst shows up as a dark band on
  the two hot switches' rows while every other uplink stays blank;
* the hot-links report — which uplinks exceeded capacity and for how many
  accounting windows;
* per-system p50/p95/p99 first-packet latency — congestion is a tail
  phenomenon: both control planes pay the same M/M/1 queueing on the same
  overloaded pipes, so the *means* barely separate, but OpenFlow's tail
  compounds queueing onto reactive-setup round trips while LazyCtrl keeps
  the hot fan-in inside a group and its p99 stays visibly lower.

Run with::

    python examples/incast_congestion_heatmap.py
"""

from __future__ import annotations

import dataclasses

from repro.analysis import hot_links_report, latency_percentile_rows, render_heatmap
from repro.common.formatting import format_table
from repro.core.presets import get_preset
from repro.core.runner import ScenarioRunner
from repro.obs.tracer import TraceOptions

FLOWS = 40_000


def main() -> None:
    spec = get_preset("incast-congestion").specs()[0]
    # Offered load scales with the flow count, so shrink the uplinks by the
    # same factor to keep the burst just past capacity at example scale.
    scale = FLOWS / spec.traffic.params["total_flows"]
    links = dataclasses.replace(spec.links, uplink_mbps=spec.links.uplink_mbps * scale)
    spec = dataclasses.replace(
        spec, traffic=spec.traffic.with_params(total_flows=FLOWS), links=links
    )

    result = ScenarioRunner().run(spec, obs=TraceOptions(timeline=True))

    for run in result.runs.values():
        print(render_heatmap(run.links, label=f"{spec.name} · {run.label}"))
        print(hot_links_report(run.links))
        print()

    print(
        format_table(
            ["Control plane", "p50 (ms)", "p95 (ms)", "p99 (ms)"],
            latency_percentile_rows(list(result.runs.values())),
            title="First-packet latency percentiles",
        )
    )

    # The congestion accounting is shared by construction: both systems see
    # the same offered load on the same uplinks, so their matrices agree.
    runs = list(result.runs.values())
    assert all(run.links.peak_utilization == runs[0].links.peak_utilization for run in runs)
    print(f"\npeak offered load: {runs[0].links.peak_utilization:.2f}x capacity")


if __name__ == "__main__":
    main()
