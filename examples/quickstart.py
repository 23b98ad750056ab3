#!/usr/bin/env python3
"""Quickstart: reproduce the LazyCtrl headline result in under a minute.

Declares the paper's Fig. 7/8/9 experiment as a ``ScenarioSpec`` (the
``paper-fig7`` preset), runs it through the ``ScenarioRunner``, and prints
the controller-workload comparison and the latency improvement — the paper's
story at laptop scale.

Run with::

    python examples/quickstart.py

The same experiment from the command line::

    python -m repro run paper-fig7
"""

from __future__ import annotations

from repro import ScenarioRunner, get_preset
from repro.common.formatting import format_percent, format_table, two_hour_bucket_labels


def main() -> None:
    spec = get_preset("paper-fig7").specs()[0]
    switches, hosts = spec.topology.dimensions()
    print(f"Running scenario '{spec.name}': {switches} switches, "
          f"{hosts} hosts, {spec.traffic.total_flows} flows, "
          f"systems {', '.join(spec.systems)}...\n")
    result = ScenarioRunner().run(spec)

    baseline = spec.systems[0]
    buckets = two_hour_bucket_labels(spec.schedule.bucket_hours, 12)
    rows = []
    for index, bucket in enumerate(buckets):
        row = [bucket]
        for run in result.runs.values():
            krps = run.workload.krps
            row.append(f"{krps[index] * 1000:.1f}" if index < len(krps) else "-")
        rows.append(row)
    print(format_table(["Hour"] + [f"{label} (rps)" for label in result.labels()], rows,
                       title="Controller workload per 2-hour bucket"))

    print()
    rows = []
    for name, run in result.runs.items():
        reduction = result.reduction(baseline, name) if name != baseline else 0.0
        rows.append([
            run.label,
            run.total_controller_requests,
            format_percent(reduction) if name != baseline else "-",
            f"{run.latency.overall_mean_ms:.3f}",
            f"{sum(run.updates_per_hour):.0f}",
        ])
    print(format_table(
        ["Configuration", "Controller requests", "Workload reduction", "Mean latency (ms)", "Grouping updates"],
        rows,
        title="Summary (paper reports 61-82% workload reduction and ~10% latency reduction)",
    ))


if __name__ == "__main__":
    main()
