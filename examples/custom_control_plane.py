#!/usr/bin/env python3
"""Plugging a third-party control-plane design into the scenario runner.

Registers an *omniscient* control plane — a what-if upper bound where every
switch magically knows every host location, so no flow ever reaches the
controller — and compares it declaratively against the OpenFlow baseline and
LazyCtrl through the same ``ScenarioRunner``.  Nothing in ``repro.core`` is
modified: the design plugs in via ``@register_control_plane`` and is
referenced by name in the ``ScenarioSpec``.

Run with::

    python examples/custom_control_plane.py
"""

from __future__ import annotations

from repro import (
    ScenarioRunner,
    ScenarioSpec,
    ScheduleSpec,
    TopologyProfile,
    TraceSpec,
    register_control_plane,
)
from repro.common.formatting import format_percent, format_table
from repro.core.results import SystemCounters
from repro.simulation.latency import LatencyModel
from repro.simulation.metrics import CounterSeries, LatencyRecorder
from repro.common.config import LazyCtrlConfig


class OmniscientControlPlane:
    """Upper bound: every first packet is forwarded as a flow-table hit."""

    def __init__(self, network, *, config=None, workload_bucket_seconds=7200.0,
                 latency_bucket_seconds=7200.0):
        self.network = network
        self.config = config or LazyCtrlConfig()
        self.counters = SystemCounters()
        self.latency_recorder = LatencyRecorder(latency_bucket_seconds)
        self._workload = CounterSeries(workload_bucket_seconds)
        self._latency_model = LatencyModel(self.config.latency)

    # -- ControlPlane protocol ------------------------------------------------

    def prepare(self, trace, *, warmup_end, now=0.0):
        """Omniscience needs no warm-up provisioning."""

    def handle_flow_arrival(self, flow, now):
        src = self.network.host(flow.src_host_id)
        dst = self.network.host(flow.dst_host_id)
        if src.switch_id == dst.switch_id:
            latency = self._latency_model.local_delivery().total_ms
            self.counters.local_flows += 1
        else:
            latency = self._latency_model.flow_table_hit_delivery().total_ms
        self.counters.flows_handled += 1
        self.latency_recorder.record(now, latency, count=flow.packet_count)

    def periodic(self, now):
        """No periodic housekeeping either."""

    def workload_series(self):
        return self._workload

    def total_controller_requests(self):
        return 0

    def updates_per_hour(self, *, hours):
        return [0.0] * hours


register_control_plane(
    "omniscient",
    label="Omniscient (bound)",
    description="What-if upper bound: all locations known, controller never involved",
)(OmniscientControlPlane)


def main() -> None:
    spec = ScenarioSpec(
        name="custom-plane-demo",
        topology=TopologyProfile(switch_count=24, host_count=300, seed=42),
        traffic=TraceSpec.realistic(total_flows=8_000, seed=42),
        systems=("openflow", "lazyctrl-dynamic", "omniscient"),
        schedule=ScheduleSpec(),
    )
    print(f"Running '{spec.name}' with systems: {', '.join(spec.systems)}...\n")
    result = ScenarioRunner().run(spec)

    rows = []
    for name, run in result.runs.items():
        reduction = result.reduction("openflow", name) if name != "openflow" else 0.0
        rows.append([
            run.label,
            run.total_controller_requests,
            format_percent(reduction) if name != "openflow" else "-",
            f"{run.latency.overall_mean_ms:.3f}",
        ])
    print(format_table(
        ["Control plane", "Controller requests", "Workload reduction", "Mean latency (ms)"],
        rows,
        title="OpenFlow vs LazyCtrl vs the omniscient upper bound",
    ))
    print("\nLazyCtrl should land between the reactive baseline and the bound.")


if __name__ == "__main__":
    main()
