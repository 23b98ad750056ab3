"""The bandwidth/congestion subsystem: metering, specs and replay wiring.

Covers the layers bottom-up: the per-flow constant rate (degenerate
durations are rejected before they can divide-by-zero), the per-uplink
window accounting of :class:`LinkUtilizationMeter`, the
serializable :class:`LinkUsageResult` matrix, ``ScenarioSpec.links``
and the queueing knobs in ``config.latency``, and the headline replay invariants: a capacity-less run stays
bit-identical to a build without the subsystem, a capacitated run pays
queueing and reports utilization, and sharded replays merge link matrices
and latency histograms without changing the contract.
"""

import dataclasses
import signal
from contextlib import contextmanager

import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis import hot_links_report, latency_percentile_rows, render_heatmap
from repro.bandwidth.meter import LinkUtilizationMeter, build_link_meter
from repro.bandwidth.spec import LinkCapacitySpec
from repro.bandwidth.usage import LinkUsageResult
from repro.common.config import LatencyModelConfig, LazyCtrlConfig
from repro.common.errors import ConfigurationError
from repro.common.serialize import dataclass_from_dict, dataclass_to_dict
from repro.core.runner import ScenarioRunner
from repro.core.scenario import ScenarioSpec, ScheduleSpec, TraceSpec
from repro.obs.tracer import TraceOptions
from repro.replay.spec import ExecutionSpec
from repro.topology.builder import TopologyProfile, build_multi_tenant_datacenter
from repro.traffic.flow import FlowRecord


def flow(start=0.0, flow_id=1, src=0, dst=1, byte_count=15_000, duration=1.0):
    return FlowRecord(
        start_time=start,
        flow_id=flow_id,
        src_host_id=src,
        dst_host_id=dst,
        byte_count=byte_count,
        duration=duration,
    )


@contextmanager
def deadline(seconds):
    """Interrupt the block after ``seconds``: a loop that never ends fails, not hangs."""

    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


def incast_spec(**overrides):
    """A small single-hotspot burst against deliberately thin uplinks."""
    defaults = dict(
        name="mini-incast",
        topology=TopologyProfile(switch_count=12, host_count=120, seed=2015),
        traffic=TraceSpec(
            model="incast-hotspot",
            params={
                "total_flows": 6_000,
                "hotspot_count": 1,
                "hotspot_flow_fraction": 0.9,
                "burst_window_hours": (9.0, 10.0),
                "seed": 2015,
            },
        ),
        systems=("openflow", "lazyctrl-dynamic"),
        schedule=ScheduleSpec(duration_hours=24.0, bucket_hours=2.0),
        config=LazyCtrlConfig(latency=LatencyModelConfig(queueing_service_ms=0.25)),
        links=LinkCapacitySpec(uplink_mbps=0.1),
    )
    defaults.update(overrides)
    return ScenarioSpec(**defaults)


def serialized_runs(result):
    return {name: run.to_dict() for name, run in result.runs.items()}


# -- the per-flow rate -----------------------------------------------------------


class TestFlowRecordRates:
    """Satellite regression: degenerate flows are rejected at construction."""

    @pytest.mark.parametrize("duration", [0.0, -1.0])
    def test_non_positive_duration_rejected(self, duration):
        with pytest.raises(ValueError, match="duration"):
            flow(duration=duration)

    @pytest.mark.parametrize("byte_count", [0, -5])
    def test_non_positive_byte_count_rejected(self, byte_count):
        with pytest.raises(ValueError, match="byte_count"):
            flow(byte_count=byte_count)


# -- the meter ------------------------------------------------------------------


class TestLinkUtilizationMeter:
    def test_bytes_spread_across_windows(self):
        # 1 Mbps uplink, 10 s windows: 1.25e6 bytes of capacity per window.
        meter = LinkUtilizationMeter({1: 1.0}, window_seconds=10.0)
        record = flow(start=5.0, byte_count=1_000_000, duration=10.0)  # 100 kB/s
        observation = meter.observe(record, 1, 2, 5.0)
        # Half the bytes land in the current window; the dst switch is untracked.
        assert observation.src_utilization == pytest.approx(500_000 / 1.25e6)
        assert observation.dst_utilization == 0.0
        assert observation.newly_congested == ()
        assert meter.usage(20.0).utilization["1"][1] == pytest.approx(500_000 / 1.25e6)

    def test_same_window_arrivals_see_growing_load(self):
        meter = LinkUtilizationMeter({1: 1.0}, window_seconds=10.0)
        first = meter.observe(flow(start=1.0, byte_count=250_000, duration=1.0), 1, 2, 1.0)
        second = meter.observe(
            flow(start=2.0, flow_id=2, byte_count=250_000, duration=1.0), 1, 2, 2.0
        )
        assert first.src_utilization == pytest.approx(0.2)
        assert second.src_utilization == pytest.approx(0.4)

    def test_congestion_crossing_reported_once_per_window(self):
        # 0.1 Mbps / 10 s window: 125 kB of capacity; 200 kB crosses it.
        meter = LinkUtilizationMeter({1: 0.1}, window_seconds=10.0)
        first = meter.observe(flow(start=0.0, byte_count=200_000, duration=5.0), 1, 2, 0.0)
        assert first.src_utilization >= 1.0
        assert first.newly_congested == ((1, pytest.approx(1.6)),)
        again = meter.observe(
            flow(start=1.0, flow_id=2, byte_count=200_000, duration=5.0), 1, 2, 1.0
        )
        assert again.src_utilization >= 1.0
        assert again.newly_congested == ()  # same window: already crossed
        next_window = meter.observe(
            flow(start=12.0, flow_id=3, byte_count=200_000, duration=5.0), 1, 2, 12.0
        )
        assert next_window.newly_congested != ()  # a fresh window crosses anew

    def test_usage_folds_spill_into_final_window(self):
        meter = LinkUtilizationMeter({1: 1.0}, window_seconds=10.0)
        meter.observe(flow(start=5.0, byte_count=1_000_000, duration=10.0), 1, 2, 5.0)
        split = meter.usage(20.0)
        assert split.window_count == 2
        assert split.utilization["1"] == [pytest.approx(0.4), pytest.approx(0.4)]
        folded = meter.usage(10.0)
        assert folded.window_count == 1
        assert folded.utilization["1"] == [pytest.approx(0.8)]

    def test_a_constant_rate_steps_across_several_windows(self):
        # 100 B/s from 5 s to 30 s over 10 s windows: a partial first window,
        # two whole ones, and nothing charged past the k * w boundary it ends on.
        meter = LinkUtilizationMeter({1: 1.0}, window_seconds=10.0)
        meter.observe(flow(start=5.0, byte_count=2_500, duration=25.0), 1, 2, 5.0)
        assert meter._bytes[1] == {0: 500.0, 1: 1_000.0, 2: 1_000.0}

    def test_a_flow_filling_one_window_exactly_is_one_product(self):
        # Starts on 1 * w and ends on 2 * w: all of it lands in window 1.
        meter = LinkUtilizationMeter({1: 1.0}, window_seconds=10.0)
        meter.observe(flow(start=10.0, byte_count=1_000, duration=10.0), 1, 2, 10.0)
        assert meter._bytes[1] == {1: 1_000.0}

    def test_a_run_of_flows_reads_what_one_at_a_time_reads(self):
        flows = [
            flow(start=1.0, byte_count=300_000, duration=25.0),
            flow(start=3.0, flow_id=2, byte_count=90_000, duration=2.0),
            flow(start=9.5, flow_id=3, byte_count=50_000, duration=0.5),
        ]
        one_by_one = LinkUtilizationMeter({1: 0.1, 2: 0.2}, window_seconds=10.0)
        observed = [one_by_one.observe(record, 1, 2, record.start_time) for record in flows]
        in_a_run = LinkUtilizationMeter({1: 0.1, 2: 0.2}, window_seconds=10.0)
        utilizations, crossings = in_a_run.account_run(
            [record.start_time for record in flows],
            [record.duration for record in flows],
            [record.byte_count for record in flows],
            [1, 1, 1],
            [2, 2, 2],
        )
        assert utilizations == [(seen.src_utilization, seen.dst_utilization) for seen in observed]
        assert [(switch, level) for _, switch, level in crossings] == [
            pair for seen in observed for pair in seen.newly_congested
        ]
        assert in_a_run._bytes == one_by_one._bytes

    def test_max_utilization_tracks_the_hottest_link(self):
        meter = LinkUtilizationMeter({1: 1.0, 2: 1.0}, window_seconds=10.0)
        meter.observe(flow(start=0.0, byte_count=250_000, duration=1.0), 1, 3, 0.0)
        meter.observe(flow(start=0.0, flow_id=2, byte_count=500_000, duration=1.0), 2, 3, 0.0)
        assert meter.max_utilization(0.0) == pytest.approx(0.4)

    def test_a_boundary_whose_quotient_rounds_down_still_advances(self):
        """``31245 * 1.1 == 34369.5`` but ``int(34369.5 / 1.1) == 31244``: an
        index re-derived from the cursor at that boundary named the window
        just left, and the spread never advanced."""
        meter = LinkUtilizationMeter({1: 1.0, 2: 1.0}, window_seconds=1.1)
        assert 31245 * 1.1 == 34369.5 and int(34369.5 / 1.1) == 31244
        with deadline(10.0):
            meter.observe(FlowRecord(34369.0, 0, 1, 2, 10, 1000, 2.0), 1, 2, 34369.0)
        for link in (1, 2):
            windows = meter._bytes[link]
            assert list(windows) == [31244, 31245, 31246]
            assert sum(windows.values()) == pytest.approx(1000.0, rel=1e-9)

    @given(
        window_seconds=st.floats(0.01, 500.0, exclude_min=True, exclude_max=True),
        flows=st.lists(
            st.tuples(
                # A start anywhere, or exactly on the k-th window boundary.
                st.floats(0.0, 1e5) | st.integers(0, 200_000),
                st.floats(0.0, 60.0),  # windows spanned
                st.integers(1, 10**9),
            ),
            min_size=1,
            max_size=5,
        ),
    )
    @settings(max_examples=300, deadline=None)
    def test_every_window_width_terminates_and_conserves_bytes(self, window_seconds, flows):
        meter = LinkUtilizationMeter({1: 1.0, 2: 1.0}, window_seconds=window_seconds)
        total = 0
        with deadline(20.0):
            for position, (start, spanned, byte_count) in enumerate(flows):
                if isinstance(start, int):
                    start = min(start * window_seconds, 1e5)
                # Long enough that rounding ``start + duration`` is below the tolerance.
                duration = max(0.1, spanned * window_seconds)
                meter.observe(
                    FlowRecord(start, position, 1, 2, 10, byte_count, duration), 1, 2, start
                )
                total += byte_count
        for link in (1, 2):
            assert sum(meter._bytes[link].values()) == pytest.approx(total, rel=1e-9)

    def test_window_seconds_must_be_positive(self):
        with pytest.raises(ValueError):
            LinkUtilizationMeter({1: 1.0}, window_seconds=0.0)

    def test_build_link_meter_requires_capacities(self):
        network = build_multi_tenant_datacenter(
            TopologyProfile(switch_count=4, host_count=16, seed=3)
        )
        assert build_link_meter(network) is None
        network.set_uplink_capacity_mbps(0, 10.0)
        meter = build_link_meter(network)
        assert meter is not None
        assert meter.window_seconds == 300.0


# -- the serializable usage matrix ----------------------------------------------


class TestLinkUsageResult:
    def usage(self):
        return LinkUsageResult(
            window_seconds=10.0,
            capacities_mbps={"1": 1.0, "2": 1.0},
            utilization={"1": [0.2, 1.4, 0.9], "2": [0.0, 0.5, 1.0]},
        )

    def test_peaks_and_congested_cells(self):
        usage = self.usage()
        assert usage.window_count == 3
        assert usage.peak_utilization == 1.4
        assert usage.congested_cells == 2

    def test_hot_links_sorted_by_peak(self):
        assert self.usage().hot_links(1.0) == [(1, 1.4, 1), (2, 1.0, 1)]
        assert self.usage().hot_links(2.0) == []

    def test_bucket_maxima_aggregates_windows(self):
        assert self.usage().bucket_maxima(20.0, 2) == [1.4, 1.0]
        assert self.usage().bucket_maxima(10.0, 0) == []

    def test_json_round_trip(self):
        usage = self.usage()
        rebuilt = dataclass_from_dict(LinkUsageResult, dataclass_to_dict(usage))
        assert rebuilt == usage


# -- the spec's link capacities ---------------------------------------------------


class TestLinkCapacitySpec:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            LinkCapacitySpec(uplink_mbps=0.0)
        with pytest.raises(ConfigurationError):
            LatencyModelConfig(queueing_service_ms=-0.1)

    def test_legacy_queueing_knobs_fold_into_latency_config(self):
        spec = ScenarioSpec.from_dict(
            {"name": "legacy", "links": {"queueing_service_ms": 0.25, "utilization_cap": 0.95}}
        )
        assert spec.config.latency == LatencyModelConfig(queueing_service_ms=0.25)
        assert spec.links == LinkCapacitySpec()

    def test_legacy_queueing_knobs_are_validated(self):
        with pytest.raises(ConfigurationError, match="queueing_service_ms"):
            ScenarioSpec.from_dict({"name": "legacy", "links": {"queueing_service_ms": -0.1}})
        # The cap is a fixed constant now: only its value loads.
        for cap in (0.9, "high"):
            with pytest.raises(ConfigurationError, match="queueing_utilization_cap"):
                ScenarioSpec.from_dict({"name": "legacy", "links": {"utilization_cap": cap}})

    def test_apply_network_capacitates_every_uplink(self):
        network = build_multi_tenant_datacenter(
            TopologyProfile(switch_count=4, host_count=16, seed=3)
        )
        LinkCapacitySpec(uplink_mbps=2.5).apply_network(network)
        capacities = network.link_capacities_mbps()
        assert set(capacities) == set(network.switch_ids())
        assert all(value == 2.5 for value in capacities.values())

    def test_spec_round_trips_through_scenario_json(self):
        spec = incast_spec()
        rebuilt = ScenarioSpec.from_dict(spec.to_dict())
        assert rebuilt.links == spec.links


# -- replay invariants ----------------------------------------------------------


class TestCongestionOffIdentity:
    """The subsystem's acceptance contract: no capacities, no change."""

    def test_capacity_less_run_has_no_link_artifacts(self):
        result = ScenarioRunner().run(incast_spec(links=None))
        for run in result.runs.values():
            assert run.links is None
            assert run.counters.congested_flows == 0

    def test_queueing_knobs_without_capacities_change_nothing(self):
        # A queueing service time with no capacitated link must be inert:
        # the meter never exists, so the M/M/1 term never sees a utilization.
        plain = ScenarioRunner().run(incast_spec(links=None, config=LazyCtrlConfig()))
        knobs_only = ScenarioRunner().run(
            incast_spec(
                links=LinkCapacitySpec(),
                config=LazyCtrlConfig(latency=LatencyModelConfig(queueing_service_ms=0.5)),
            )
        )
        assert serialized_runs(knobs_only) == serialized_runs(plain)


class TestCongestedReplay:
    @pytest.fixture(scope="class")
    def traced(self):
        return ScenarioRunner().run(incast_spec(), obs=TraceOptions(timeline=True))

    def test_capacitated_run_reports_utilization(self, traced):
        for run in traced.runs.values():
            assert run.links is not None
            assert run.links.peak_utilization > 1.0
            assert run.links.congested_cells > 0
            assert run.counters.congested_flows > 0

    def test_queueing_raises_latency_over_uncapacitated_run(self, traced):
        plain = ScenarioRunner().run(incast_spec(links=None))
        for name, run in traced.runs.items():
            assert run.latency.overall_mean_ms > plain.runs[name].latency.overall_mean_ms

    def test_congestion_crossings_reach_the_timeline(self, traced):
        for run in traced.runs.values():
            assert run.timeline.total("link_congested") > 0

    def test_whole_run_percentiles_derivable(self, traced):
        for run in traced.runs.values():
            p50 = run.timeline.latency_percentile(0.50)
            p99 = run.timeline.latency_percentile(0.99)
            assert p50 is not None and p99 is not None
            assert p99 >= p50

    def test_run_result_round_trips_links(self, traced):
        run = next(iter(traced.runs.values()))
        rebuilt = type(run).from_dict(run.to_dict())
        assert rebuilt.links == run.links


class TestShardedCongestedReplay:
    def test_system_shards_reproduce_the_serial_run(self):
        spec = incast_spec()
        serial = ScenarioRunner().run(spec, obs=TraceOptions(timeline=True))
        sharded = ScenarioRunner().run(
            dataclasses.replace(spec, execution=ExecutionSpec(workers=2)),
            obs=TraceOptions(timeline=True),
        )
        assert serialized_runs(sharded) == serialized_runs(serial)

    def test_time_window_shards_bit_identical_across_worker_counts(self):
        spec = incast_spec()
        windowed = ExecutionSpec(workers=1, shard_strategy="time-window", shard_count=4)
        one = ScenarioRunner().run(
            dataclasses.replace(spec, execution=windowed),
            obs=TraceOptions(timeline=True),
        )
        two = ScenarioRunner().run(
            dataclasses.replace(spec, execution=dataclasses.replace(windowed, workers=2)),
            obs=TraceOptions(timeline=True),
        )
        assert serialized_runs(one) == serialized_runs(two)
        for run in one.runs.values():
            assert run.links is not None
            assert run.links.peak_utilization > 0.0
            # The merged whole-run histogram stays percentile-derivable.
            assert run.timeline.latency_percentile(0.99) is not None


# -- analysis rendering ---------------------------------------------------------


class TestHeatmapRendering:
    def usage(self):
        return LinkUsageResult(
            window_seconds=300.0,
            capacities_mbps={"1": 1.0, "2": 1.0},
            utilization={"1": [0.0, 0.3, 1.2, 0.8], "2": [0.1, 0.0, 0.4, 0.0]},
        )

    def test_render_heatmap_lists_hottest_links_first(self):
        rendered = render_heatmap(self.usage(), label="test")
        lines = rendered.splitlines()
        assert "test" in lines[0]
        link_lines = [line for line in lines if "| peak=" in line]
        assert link_lines[0].strip().startswith("sw   1")
        assert "█" in rendered  # the >=1.0 cell renders at full shade
        assert "legend" in lines[-1]

    def test_render_heatmap_announces_hidden_rows(self):
        rendered = render_heatmap(self.usage(), max_rows=1)
        assert "1 cooler uplinks not shown" in rendered

    def test_render_heatmap_empty_matrix(self):
        empty = LinkUsageResult(window_seconds=300.0)
        assert "no capacitated links saw traffic" in render_heatmap(empty)

    def test_hot_links_report(self):
        report = hot_links_report(self.usage(), threshold=1.0)
        assert "1" in report
        calm = hot_links_report(self.usage(), threshold=5.0)
        assert "no uplink" in calm

    def test_latency_percentile_rows(self):
        result = ScenarioRunner().run(
            incast_spec(traffic=TraceSpec.realistic(total_flows=500, seed=7), links=None),
            obs=TraceOptions(timeline=True),
        )
        rows = dict(
            (label, (p50, p95, p99))
            for label, p50, p95, p99 in latency_percentile_rows(list(result.runs.values()))
        )
        assert len(rows) == len(result.runs)
        for cells in rows.values():
            assert all(cell != "-" for cell in cells)

    def test_latency_percentile_rows_dash_without_timeline(self):
        result = ScenarioRunner().run(
            incast_spec(traffic=TraceSpec.realistic(total_flows=500, seed=7), links=None)
        )
        for _, p50, p95, p99 in latency_percentile_rows(list(result.runs.values())):
            assert (p50, p95, p99) == ("-", "-", "-")
