"""Tests for the per-bucket metrics timeline and its sparkline rendering."""

import dataclasses

import pytest

from repro.core.presets import get_preset
from repro.core.runner import ScenarioRunner
from repro.obs.events import (
    ChurnAppliedEvent,
    EvictionEvent,
    PacketInEvent,
    RegroupFinishEvent,
    RegroupStartEvent,
)
from repro.obs.timeline import MetricsTimeline, TimelineResult, render_timeline, sparkline
from repro.obs.tracer import TraceOptions


class TestBucketing:
    def test_events_land_in_their_time_bucket(self):
        timeline = MetricsTimeline(10.0)
        timeline.on_event(PacketInEvent(time=0.5, switch_id=0, kind="reactive"))
        timeline.on_event(PacketInEvent(time=9.99, switch_id=0, kind="reactive"))
        timeline.on_event(PacketInEvent(time=10.0, switch_id=0, kind="reactive"))
        result = timeline.result(3)
        assert result.counts["packet_ins"] == [2, 1, 0]

    def test_out_of_range_buckets_fold_into_the_last(self):
        timeline = MetricsTimeline(10.0)
        timeline.on_event(PacketInEvent(time=95.0, switch_id=0, kind="reactive"))
        result = timeline.result(2)
        assert result.counts["packet_ins"] == [0, 1]
        assert result.total("packet_ins") == 1

    def test_negative_time_clamps_to_bucket_zero(self):
        timeline = MetricsTimeline(10.0)
        timeline.on_event(PacketInEvent(time=-1.0, switch_id=0, kind="reactive"))
        assert timeline.result(2).counts["packet_ins"] == [1, 0]

    def test_bucket_width_must_be_positive(self):
        with pytest.raises(ValueError):
            MetricsTimeline(0.0)


class TestEventDispatch:
    def test_eviction_reason_splits_evictions_from_timeouts(self):
        timeline = MetricsTimeline(10.0)
        timeline.on_event(EvictionEvent(time=1.0, switch_id=0, reason="evicted"))
        timeline.on_event(EvictionEvent(time=1.0, switch_id=0, reason="idle_timeout"))
        timeline.on_event(EvictionEvent(time=1.0, switch_id=0, reason="hard_timeout"))
        result = timeline.result(1)
        assert result.total("evictions") == 1
        assert result.total("timeouts") == 2

    def test_noop_churn_events_are_not_counted(self):
        timeline = MetricsTimeline(10.0)
        timeline.on_event(ChurnAppliedEvent(time=1.0, kind="host_migration", applied=1))
        timeline.on_event(ChurnAppliedEvent(time=1.0, kind="host_migration", applied=0))
        assert timeline.result(1).total("churn_events") == 1

    def test_only_applied_regroupings_are_counted(self):
        timeline = MetricsTimeline(10.0)
        timeline.on_event(
            RegroupStartEvent(time=1.0, trigger="overload", churn_pending=0, workload_rps=1.0)
        )
        timeline.on_event(
            RegroupFinishEvent(
                time=1.0, applied=False, reason="update would not improve grouping",
                churn_attributed=False, group_count=3,
            )
        )
        timeline.on_event(
            RegroupFinishEvent(
                time=2.0, applied=True, reason="overload", churn_attributed=False, group_count=4
            )
        )
        assert timeline.result(1).total("regroups") == 1


class TestFlowAndGauges:
    def test_latency_percentiles_are_monotone_and_none_for_empty_buckets(self):
        timeline = MetricsTimeline(10.0)
        for latency in (0.1, 0.5, 1.0, 5.0, 50.0):
            timeline.record_flow(1.0, latency)
        result = timeline.result(2)
        p50, p95, p99 = (
            result.gauges["latency_p50_ms"], result.gauges["latency_p95_ms"],
            result.gauges["latency_p99_ms"],
        )
        assert p50[0] <= p95[0] <= p99[0]
        assert p50[1] is None and p95[1] is None and p99[1] is None
        assert result.counts["flows"] == [5, 0]

    def test_percentiles_land_near_the_sample_values(self):
        timeline = MetricsTimeline(10.0)
        for _ in range(90):
            timeline.record_flow(0.0, 1.0)
        for _ in range(10):
            timeline.record_flow(0.0, 100.0)
        result = timeline.result(1)
        # Log-scaled bins: the representative value is within ~12% of the bin.
        assert result.gauges["latency_p50_ms"][0] == pytest.approx(1.0, rel=0.15)
        assert result.gauges["latency_p99_ms"][0] == pytest.approx(100.0, rel=0.15)

    def test_gauges_keep_last_and_peak_per_bucket(self):
        timeline = MetricsTimeline(10.0)
        timeline.record_gauge("table_occupancy", 1.0, 40.0)
        timeline.record_gauge("table_occupancy", 9.0, 10.0)
        result = timeline.result(2)
        assert result.gauges["table_occupancy_last"] == [10.0, None]
        assert result.gauges["table_occupancy_peak"] == [40.0, None]


class TestSerialization:
    def test_round_trip(self):
        timeline = MetricsTimeline(10.0)
        timeline.on_event(PacketInEvent(time=1.0, switch_id=0, kind="reactive"))
        timeline.record_flow(1.0, 2.5)
        timeline.record_gauge("table_occupancy", 5.0, 12.0)
        result = timeline.result(3)
        rebuilt = TimelineResult.from_dict(result.to_dict())
        assert rebuilt == result
        # None entries in gauge series must survive the JSON round-trip.
        assert rebuilt.gauges["table_occupancy_last"] == [12.0, None, None]


class TestRendering:
    def test_sparkline_maps_none_to_space_and_peak_to_full_block(self):
        assert sparkline([0.0, None, 8.0]) == "▁ █"
        assert sparkline([0.0, 0.0]) == "▁▁"

    def test_render_includes_totals_and_skips_all_zero_series(self):
        timeline = MetricsTimeline(3600.0)
        timeline.on_event(PacketInEvent(time=1.0, switch_id=0, kind="reactive"))
        text = render_timeline(timeline.result(2), label="demo")
        assert "demo — 2 buckets × 1h" in text
        assert "packet_ins" in text and "total=1" in text
        assert "evictions" not in text


def small_table_pressure_spec():
    spec = get_preset("table-pressure").specs()[0]
    return dataclasses.replace(
        spec,
        traffic=spec.traffic.with_params(total_flows=40_000),
        schedule=dataclasses.replace(spec.schedule, duration_hours=6.0),
    )


class TestExactSums:
    """The acceptance invariant: per-bucket series sum to the scalar counters."""

    def test_timeline_sums_match_scalar_counters_under_table_pressure(self):
        result = ScenarioRunner().run(
            small_table_pressure_spec(), obs=TraceOptions(timeline=True)
        )
        for run in result.runs.values():
            timeline = run.timeline
            assert timeline is not None
            assert timeline.total("flows") == run.counters.flows_handled
            assert timeline.total("packet_ins") == run.total_controller_requests
            tables = run.tables
            assert timeline.total("flow_installs") == tables.installs
            assert timeline.total("overflows") == tables.overflows
            assert timeline.total("evictions") == tables.evictions
            assert timeline.total("timeouts") == tables.idle_timeouts + tables.hard_timeouts
            assert timeline.total("reinstalls") == tables.reinstalls
            assert timeline.total("flow_removed") == tables.flow_removed_messages
            # The pressure scenario must actually exercise the loop.
            assert timeline.total("reinstalls") > 0

    def test_regroup_series_matches_update_count(self):
        spec = small_table_pressure_spec()
        result = ScenarioRunner().run(spec, obs=TraceOptions(timeline=True))
        run = result.runs["lazyctrl-dynamic"]
        assert run.timeline.total("regroups") == sum(run.updates_per_hour)

    def test_churn_series_matches_applied_events(self):
        spec = get_preset("churn-migration").specs()[0]
        spec = dataclasses.replace(
            spec,
            traffic=spec.traffic.with_params(total_flows=2_000),
            schedule=dataclasses.replace(spec.schedule, duration_hours=6.0),
        )
        result = ScenarioRunner().run(spec, obs=TraceOptions(timeline=True))
        for run in result.runs.values():
            if run.churn is None:
                continue
            assert run.timeline.total("churn_events") == run.churn.total_events()
