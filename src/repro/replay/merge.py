"""Deterministic merge of per-shard outcomes into one :class:`RunResult`.

Every shard of one system returns a :class:`ShardOutcome`: its full
:class:`~repro.core.results.RunResult` (series spanning the *whole* result
grid, zero outside the shard's window) plus the raw mergeable forms of the
two series a finished ``RunResult`` only carries as derived values — the
per-bucket controller-request counts behind the Krps workload series and
the per-bucket ``(latency_sum, sample_count)`` pairs behind the latency
means.  Merging raw counts and dividing once keeps the merged series
*exact*: summing already-derived Krps floats would be non-associative and
averaging bucket means would be wrong whenever shards contribute unequal
sample counts to a bucket.

Merge rules, chosen so the result is independent of shard execution order:

* counters, ``total_controller_requests``, ``failover_events``,
  ``updates_per_hour`` and timeline ``counts`` — field/element-wise sums;
* workload Krps and latency means — recomputed once from summed raw forms;
* table usage — sums, except ``peak_occupancy`` (max across shards) and
  ``final_occupancy`` (the last window's value);
* timeline gauges — ``*_peak`` series take the per-bucket max; every other
  gauge (``*_last``, latency percentiles) takes the last non-``None`` value
  in window order, matching "the latest observation wins";
* perf snapshots — counters sum, gauges max, stages merge by name,
  ``wall_seconds`` is the *max* shard wall (the critical path — what a
  perfectly parallel run would take), throughput is recomputed from it.

A single-shard merge returns the shard's ``RunResult`` untouched, which is
what makes a one-window plan bit-identical to the serial replay.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from repro.core.results import (
    LatencySeriesResult,
    RunResult,
    SystemCounters,
    TableUsageResult,
    WorkloadSeriesResult,
)
from repro.core.scenario import ScheduleSpec
from repro.replay.sharding import Shard

if TYPE_CHECKING:
    from repro.bandwidth.usage import LinkUsageResult
    from repro.obs.timeline import TimelineResult
    from repro.perf.report import PerfSnapshot

_COUNTER_FIELDS = tuple(field.name for field in dataclasses.fields(SystemCounters))
_TABLE_SUM_FIELDS = (
    "installs",
    "overflows",
    "evictions",
    "idle_timeouts",
    "hard_timeouts",
    "reinstalls",
    "flow_removed_messages",
)


@dataclass(frozen=True, slots=True)
class ShardOutcome:
    """One shard's run plus the raw mergeable forms of its derived series."""

    shard: Shard
    run: RunResult
    #: Wall-clock the shard cost end to end (build + prepare + replay);
    #: feeds the critical-path telemetry, not the perf snapshot.
    wall_seconds: float
    #: Raw per-bucket controller-request counts over the full result grid.
    workload_counts: List[float]
    #: Raw per-bucket ``(latency_sum, sample_count)`` pairs.
    latency_totals: Dict[int, Tuple[float, int]]


def merge_outcomes(outcomes: Sequence[ShardOutcome], *, schedule: ScheduleSpec) -> RunResult:
    """Fold one system's shard outcomes into a single :class:`RunResult`."""
    if not outcomes:
        raise ValueError("cannot merge zero shard outcomes")
    ordered = sorted(outcomes, key=lambda outcome: outcome.shard.index)
    if len(ordered) == 1:
        return ordered[0].run
    first = ordered[0].run

    counters = SystemCounters(
        **{
            name: sum(getattr(outcome.run.counters, name) for outcome in ordered)
            for name in _COUNTER_FIELDS
        }
    )

    bucket_count = len(first.workload.krps)
    request_totals = [0.0] * bucket_count
    for outcome in ordered:
        for index, count in enumerate(outcome.workload_counts):
            request_totals[index] += count
    workload = WorkloadSeriesResult(
        label=first.workload.label,
        bucket_hours=schedule.bucket_hours,
        krps=[count / schedule.bucket_seconds / 1000.0 for count in request_totals],
    )

    latency_sums: Dict[int, float] = {}
    latency_counts: Dict[int, int] = {}
    for outcome in ordered:
        for index, (bucket_sum, bucket_samples) in outcome.latency_totals.items():
            latency_sums[index] = latency_sums.get(index, 0.0) + bucket_sum
            latency_counts[index] = latency_counts.get(index, 0) + bucket_samples
    latency_bucket_count = len(first.latency.mean_latency_ms)
    mean_series = [
        latency_sums.get(index, 0.0) / latency_counts[index]
        if latency_counts.get(index)
        else 0.0
        for index in range(latency_bucket_count)
    ]
    total_samples = sum(latency_counts.values())
    latency = LatencySeriesResult(
        label=first.latency.label,
        bucket_hours=schedule.bucket_hours,
        mean_latency_ms=mean_series,
        overall_mean_ms=sum(latency_sums.values()) / total_samples if total_samples else 0.0,
    )

    updates_per_hour = [
        sum(outcome.run.updates_per_hour[hour] for outcome in ordered)
        for hour in range(len(first.updates_per_hour))
    ]

    return RunResult(
        label=first.label,
        workload=workload,
        latency=latency,
        updates_per_hour=updates_per_hour,
        counters=counters,
        total_controller_requests=sum(
            outcome.run.total_controller_requests for outcome in ordered
        ),
        failover_events=sum(outcome.run.failover_events for outcome in ordered),
        churn=None,  # plans with churn are rejected before sharding
        perf=_merge_perf([outcome.run.perf for outcome in ordered]),
        tables=_merge_tables([outcome.run.tables for outcome in ordered]),
        timeline=_merge_timelines([outcome.run.timeline for outcome in ordered]),
        links=_merge_links([outcome.run.links for outcome in ordered]),
    )


def _merge_tables(tables: Sequence[Optional[TableUsageResult]]) -> Optional[TableUsageResult]:
    if any(table is None for table in tables):
        return None
    summed = {
        name: sum(getattr(table, name) for table in tables) for name in _TABLE_SUM_FIELDS
    }
    return TableUsageResult(
        capacity=tables[0].capacity,
        policy=tables[0].policy,
        peak_occupancy=max(table.peak_occupancy for table in tables),
        final_occupancy=tables[-1].final_occupancy,
        **summed,
    )


def _merge_links(usages: Sequence[Optional[LinkUsageResult]]) -> Optional[LinkUsageResult]:
    """Sum per-shard utilization matrices cell-wise.

    Offered-load fractions are sums of per-flow contributions, so — like the
    counter series — disjoint time-window shards each contribute their own
    windows' loads and cell-wise addition reassembles the serial matrix.
    Series of unequal length (a shard ended early) are padded with zeros.
    """
    if any(usage is None for usage in usages):
        return None
    from repro.bandwidth.usage import LinkUsageResult

    merged: Dict[str, List[float]] = {}
    for usage in usages:
        for key, series in usage.utilization.items():
            into = merged.get(key)
            if into is None:
                merged[key] = list(series)
                continue
            if len(series) > len(into):
                into.extend([0.0] * (len(series) - len(into)))
            for index, value in enumerate(series):
                into[index] += value
    return LinkUsageResult(
        window_seconds=usages[0].window_seconds,
        capacities_mbps=dict(usages[0].capacities_mbps),
        utilization=dict(sorted(merged.items(), key=lambda item: int(item[0]))),
    )


def _merge_timelines(timelines: Sequence[Optional[TimelineResult]]) -> Optional[TimelineResult]:
    if any(timeline is None for timeline in timelines):
        return None
    from repro.obs.timeline import TimelineResult

    bucket_count = timelines[0].bucket_count

    counts: Dict[str, List[int]] = {}
    for timeline in timelines:
        for name, series in timeline.counts.items():
            merged = counts.get(name)
            if merged is None:
                counts[name] = list(series)
            else:
                for index, value in enumerate(series):
                    merged[index] += value

    gauge_names: List[str] = []
    for timeline in timelines:
        for name in timeline.gauges:
            if name not in gauge_names:
                gauge_names.append(name)
    gauges: Dict[str, List[Optional[float]]] = {}
    for name in sorted(gauge_names):
        merged_series: List[Optional[float]] = [None] * bucket_count
        take_peak = name.endswith("_peak")
        for timeline in timelines:
            series = timeline.gauges.get(name)
            if series is None:
                continue
            for index, value in enumerate(series):
                if value is None:
                    continue
                previous = merged_series[index]
                if take_peak and previous is not None:
                    merged_series[index] = max(previous, value)
                else:
                    # Window order == shard order: the latest observation wins.
                    merged_series[index] = value
        gauges[name] = merged_series

    latency_bins: Dict[int, int] = {}
    for timeline in timelines:
        for index, count in timeline.latency_bins.items():
            index = int(index)
            latency_bins[index] = latency_bins.get(index, 0) + count

    return TimelineResult(
        bucket_seconds=timelines[0].bucket_seconds,
        bucket_count=bucket_count,
        counts=dict(sorted(counts.items())),
        gauges=gauges,
        latency_bins={str(index): latency_bins[index] for index in sorted(latency_bins)},
    )


def _merge_perf(snapshots: Sequence[Optional[PerfSnapshot]]) -> Optional[PerfSnapshot]:
    if any(snapshot is None for snapshot in snapshots):
        return None
    from repro.perf.report import PerfSnapshot, StageStats

    wall = max(snapshot.wall_seconds for snapshot in snapshots)
    flows = sum(snapshot.flows_replayed for snapshot in snapshots)

    counters: Dict[str, int] = {}
    gauges: Dict[str, float] = {}
    for snapshot in snapshots:
        for name, value in snapshot.counters.items():
            counters[name] = counters.get(name, 0) + value
        for name, value in snapshot.gauges.items():
            gauges[name] = max(gauges.get(name, value), value)

    stage_order: List[str] = []
    stage_acc: Dict[str, List[float]] = {}
    for snapshot in snapshots:
        for stage in snapshot.stages:
            if stage.name not in stage_acc:
                stage_order.append(stage.name)
                stage_acc[stage.name] = [0, 0.0, 0.0]
            acc = stage_acc[stage.name]
            acc[0] += stage.calls
            acc[1] += stage.total_seconds
            acc[2] += stage.exclusive_seconds
    stages = tuple(
        StageStats(
            name=name,
            calls=int(stage_acc[name][0]),
            total_seconds=stage_acc[name][1],
            exclusive_seconds=stage_acc[name][2],
        )
        for name in stage_order
    )

    return PerfSnapshot(
        wall_seconds=wall,
        flows_replayed=flows,
        flows_per_second=flows / wall if wall > 0 else 0.0,
        counters=counters,
        stages=stages,
        gauges=gauges,
    )
