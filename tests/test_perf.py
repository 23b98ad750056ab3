"""Tests for the perf subsystem: recorders, snapshots and baseline checks."""

import json
import time

import pytest

from repro.core.runner import ScenarioResult, ScenarioRunner
from repro.core.scenario import ScenarioSpec, ScheduleSpec, TraceSpec
from repro.perf.baseline import check_against_baselines, compare_payloads
from repro.perf.recorder import NULL_RECORDER, NullRecorder, PerfRecorder, peak_rss_bytes
from repro.perf.report import PerfSnapshot, StageStats, format_stage_breakdown
from repro.replay.spec import ExecutionSpec
from repro.topology.builder import TopologyProfile


def small_spec(**overrides) -> ScenarioSpec:
    defaults = dict(
        name="perf-test",
        topology=TopologyProfile(switch_count=8, host_count=60, seed=7),
        traffic=TraceSpec.realistic(total_flows=400, seed=7),
        systems=("openflow", "lazyctrl-dynamic"),
        schedule=ScheduleSpec(duration_hours=2.0, bucket_hours=2.0),
    )
    defaults.update(overrides)
    return ScenarioSpec(**defaults)


class TestPerfRecorder:
    def test_counters_accumulate(self):
        recorder = PerfRecorder()
        recorder.count("a")
        recorder.count("a", 4)
        recorder.count("b", 2)
        assert recorder.counter("a") == 5
        assert recorder.counter("b") == 2
        assert recorder.counter("never") == 0

    def test_timer_records_calls_and_time(self):
        recorder = PerfRecorder()
        with recorder.timeit("outer"):
            time.sleep(0.01)
        (stage,) = recorder.stage_stats()
        assert stage.calls == 1
        assert stage.total_seconds == recorder.stage_total_seconds("outer") >= 0.01

    def test_snapshot_wall_defaults_to_the_replay_stage(self):
        recorder = PerfRecorder()
        with recorder.timeit("replay"):
            time.sleep(0.01)
        snapshot = recorder.snapshot(flows_replayed=10)
        assert snapshot.wall_seconds == recorder.stage_total_seconds("replay") >= 0.01
        assert snapshot.flows_per_second == 10 / snapshot.wall_seconds

    def test_timer_nesting_attributes_exclusive_time(self):
        recorder = PerfRecorder()
        with recorder.timeit("outer"):
            time.sleep(0.01)
            with recorder.timeit("inner"):
                time.sleep(0.02)
        stats = {stage.name: stage for stage in recorder.stage_stats()}
        outer, inner = stats["outer"], stats["inner"]
        # Outer includes inner's time; exclusive time subtracts it.
        assert outer.total_seconds >= inner.total_seconds
        assert inner.total_seconds >= 0.02
        assert outer.exclusive_seconds <= outer.total_seconds - inner.total_seconds + 1e-6
        assert outer.exclusive_seconds >= 0.0

    def test_nested_same_stage_never_goes_negative(self):
        recorder = PerfRecorder()
        with recorder.timeit("loop"):
            with recorder.timeit("loop"):
                pass
        (stage,) = recorder.stage_stats()
        assert stage.calls == 2
        assert stage.exclusive_seconds >= 0.0

    def test_snapshot_computes_throughput(self):
        recorder = PerfRecorder()
        recorder.count("x", 3)
        snapshot = recorder.snapshot(wall_seconds=2.0, flows_replayed=500)
        assert snapshot.flows_per_second == 250.0
        assert snapshot.counters == {"x": 3}

    def test_gauges_record_last_observation(self):
        recorder = PerfRecorder()
        recorder.gauge("replay.peak_rss_bytes", 1000.0)
        recorder.gauge("replay.peak_rss_bytes", 2500)
        snapshot = recorder.snapshot(wall_seconds=1.0, flows_replayed=1)
        assert snapshot.gauges == {"replay.peak_rss_bytes": 2500.0}

    def test_peak_rss_bytes_reports_resident_memory(self):
        pytest.importorskip("resource")  # non-POSIX platforms return the 0 fallback
        value = peak_rss_bytes()
        # A running CPython interpreter holds at least a few MB resident.
        assert value > 1_000_000

    def test_null_recorder_is_inert(self):
        recorder = NullRecorder()
        recorder.count("anything", 5)
        recorder.gauge("anything", 1.0)
        with recorder.timeit("stage"):
            pass
        assert not recorder.enabled
        assert not NULL_RECORDER.enabled


class TestPerfSnapshotSerialization:
    def test_json_round_trip(self):
        snapshot = PerfSnapshot(
            wall_seconds=1.5,
            flows_replayed=100,
            flows_per_second=66.7,
            counters={"controller.requests": 42},
            stages=(StageStats(name="replay", calls=1, total_seconds=1.5, exclusive_seconds=0.1),),
            gauges={"replay.peak_rss_bytes": 123456.0},
        )
        revived = PerfSnapshot.from_dict(json.loads(json.dumps(snapshot.to_dict())))
        assert revived == snapshot

    def test_snapshot_json_without_gauges_loads(self):
        """Snapshots written before the gauge field existed still revive."""
        snapshot = PerfSnapshot(wall_seconds=1.0, flows_replayed=1, flows_per_second=1.0)
        data = snapshot.to_dict()
        del data["gauges"]
        assert PerfSnapshot.from_dict(data).gauges == {}

    def test_null_registries_load_as_empty_but_zero_gauge_is_preserved(self):
        """Absence and zero are different facts and must round-trip as such.

        A legacy/hand-written ``"gauges": null`` means "nothing collected"
        and loads as ``{}``; an explicit ``{"g": 0.0}`` is a recorded
        measurement of zero and must survive untouched.
        """
        base = {"wall_seconds": 1.0, "flows_replayed": 1, "flows_per_second": 1.0}
        nulled = PerfSnapshot.from_dict({**base, "counters": None, "gauges": None})
        assert nulled.counters == {} and nulled.gauges == {}
        zeroed = PerfSnapshot.from_dict({**base, "gauges": {"g": 0.0}})
        assert zeroed.gauges == {"g": 0.0}
        assert zeroed.gauges != nulled.gauges or "g" in zeroed.gauges
        # The writer side never emits null: an empty registry serializes as
        # an empty object, keeping absence representable.
        assert PerfSnapshot(**base).to_dict()["gauges"] == {}

    def test_counters_survive_scenario_result_round_trip(self):
        result = ScenarioRunner().run(small_spec(), collect_perf=True)
        revived = ScenarioResult.from_dict(json.loads(json.dumps(result.to_dict())))
        for name, run in result.runs.items():
            assert run.perf is not None
            revived_perf = revived.runs[name].perf
            assert revived_perf is not None
            assert revived_perf.counters == run.perf.counters
            assert revived_perf == run.perf

    def test_format_stage_breakdown_renders(self):
        result = ScenarioRunner().run(small_spec(systems=("lazyctrl-dynamic",)), collect_perf=True)
        perf = result.runs["lazyctrl-dynamic"].perf
        text = format_stage_breakdown(perf, label="x")
        assert "flows/sec" in text
        assert "replay" in text
        assert "dissemination" in text


class TestInstrumentedRuns:
    def test_null_recorder_produces_identical_results(self):
        """Instrumentation must not change any replay outcome, only observe it."""
        spec = small_spec()
        plain = ScenarioRunner().run(spec)
        instrumented = ScenarioRunner().run(spec, collect_perf=True)
        plain_dict = plain.to_dict()
        instrumented_dict = instrumented.to_dict()
        for name in plain_dict["runs"]:
            assert instrumented_dict["runs"][name].pop("perf") is not None
            assert plain_dict["runs"][name].pop("perf") is None
        assert plain_dict == instrumented_dict

    def test_uninstrumented_run_has_no_perf(self):
        result = ScenarioRunner().run(small_spec(systems=("openflow",)))
        assert result.runs["openflow"].perf is None

    def test_instrumented_run_collects_expected_stages_and_counters(self):
        result = ScenarioRunner().run(small_spec(), collect_perf=True)
        lazy = result.runs["lazyctrl-dynamic"].perf
        stage_names = {stage.name for stage in lazy.stages}
        assert {"replay", "flow_handling", "periodic", "dissemination", "regrouping"} <= stage_names
        # Only the flows inside the 2 h replay window are presented.
        assert lazy.counters["replay.flows_replayed"] == lazy.flows_replayed > 0
        assert lazy.counters["edge.packets_processed"] > 0
        assert lazy.counters["edge.gfib_queries"] >= lazy.counters["edge.gfib_query_cache_hits"]
        openflow = result.runs["openflow"].perf
        assert openflow.counters["controller.requests"] == result.runs["openflow"].total_controller_requests
        assert openflow.flows_per_second > 0

    def test_group_state_stages_nest_and_installs_are_set_against_summaries(self):
        from repro.churn import ChurnSpec
        from repro.common.config import GroupingConfig, LazyCtrlConfig

        spec = small_spec(
            traffic=TraceSpec.realistic(total_flows=1500, seed=7),
            schedule=ScheduleSpec(duration_hours=8.0, bucket_hours=2.0),
            config=LazyCtrlConfig(grouping=GroupingConfig(group_size_limit=3, random_seed=7)),
            churn=ChurnSpec(seed=7, migration_rate_per_hour=12.0, drift_rate_per_hour=2.0),
        )
        result = ScenarioRunner().run(spec, collect_perf=True)
        lazy = result.runs["lazyctrl-dynamic"].perf
        regrouping, decide, apply = (lazy.stage(n) for n in ("regrouping", "regroup_decide", "regroup_apply"))
        assert decide.calls == regrouping.calls
        assert apply.calls == sum(result.runs["lazyctrl-dynamic"].updates_per_hour) > 0
        assert decide.total_seconds + apply.total_seconds <= regrouping.total_seconds
        assert 0 < lazy.stage("live_dissemination").total_seconds <= lazy.stage("engine").total_seconds
        summaries = lazy.counters["edge.gfib_summaries_built"]
        installs = lazy.counters["edge.gfib_peer_installs"]
        assert 0 < summaries < installs
        text = format_stage_breakdown(lazy)
        assert f"peer installs: {installs:,} from {summaries:,} summaries" in text
        assert all(f"  {name}: " in text for name in ("regroup_decide", "regroup_apply", "live_dissemination"))
        assert "group state:" not in format_stage_breakdown(result.runs["openflow"].perf)

    @pytest.mark.parametrize("kernel", ("scalar", "vectorized"))
    def test_churn_events_fire_in_the_engine_stage_under_either_kernel(self, kernel):
        """Simultaneous events fire under one ``engine`` call, so there are
        at most as many calls as events drawn, applied or skipped."""
        from repro.churn import ChurnSpec

        if kernel == "vectorized":
            pytest.importorskip("numpy")
        spec = small_spec(
            traffic=TraceSpec.realistic(total_flows=800, seed=7),
            schedule=ScheduleSpec(duration_hours=4.0, bucket_hours=2.0),
            churn=ChurnSpec(seed=7, migration_rate_per_hour=12.0, drift_rate_per_hour=2.0),
            execution=ExecutionSpec(kernel=kernel),
        )
        result = ScenarioRunner().run(spec, collect_perf=True)
        for name, run in result.runs.items():
            drawn = run.churn.total_events() + run.churn.skipped_events
            assert 0 < run.perf.stage("engine").calls <= drawn, name
            assert run.perf.counters["replay.flows_replayed"] == run.counters.flows_handled > 0, name

    def test_churn_free_replay_times_no_engine_stage(self):
        result = ScenarioRunner().run(small_spec(), collect_perf=True)
        for run in result.runs.values():
            with pytest.raises(KeyError):
                run.perf.stage("engine")

    def test_instrumented_run_records_chunks_and_peak_rss(self):
        result = ScenarioRunner().run(small_spec(systems=("lazyctrl-dynamic",)), collect_perf=True)
        perf = result.runs["lazyctrl-dynamic"].perf
        # A materialized trace drains as one chunk; a streamed one as many.
        assert perf.counters["replay.chunks_drained"] == 1
        assert perf.gauges["replay.peak_rss_bytes"] > 1_000_000

    def test_streamed_instrumented_run_drains_multiple_chunks(self):
        import dataclasses

        spec = dataclasses.replace(
            small_spec(systems=("lazyctrl-dynamic",)),
            traffic=TraceSpec.realistic(total_flows=2000, seed=7),
            execution=ExecutionSpec(stream=True),
        )
        result = ScenarioRunner().run(spec, collect_perf=True)
        perf = result.runs["lazyctrl-dynamic"].perf
        # 2000 flows over a 24 h generation grid: one chunk per diurnal hour
        # falls inside the 2 h replay window plus the terminating peek.
        assert perf.counters["replay.chunks_drained"] >= 2
        assert perf.counters["replay.flows_replayed"] > 0


def payload(scenario="s", requests=50):
    return {
        "scenario": scenario,
        "flows": 400,
        "switches": 8,
        "hosts": 60,
        "systems": {
            "openflow": {
                "flows_handled": 400,
                "total_controller_requests": requests,
                "mean_krps": 0.5,
                "peak_krps": 0.9,
                "mean_latency_ms": 1.25,
                "grouping_updates": 0.0,
                "churn_events": 0,
                "churn_attributed_regroupings": 0,
            }
        },
    }


class TestBaselineComparison:
    def test_identical_payloads_pass(self):
        check = compare_payloads(payload(), payload())
        assert check.ok
        assert check.failures == []

    def test_deterministic_counter_drift_fails(self):
        check = compare_payloads(payload(requests=51), payload(requests=50))
        assert not check.ok
        assert any("total_controller_requests" in failure for failure in check.failures)

    def test_deterministic_float_drift_fails(self):
        current = payload()
        current["systems"]["openflow"]["mean_latency_ms"] = 1.26
        check = compare_payloads(current, payload())
        assert not check.ok

    @pytest.mark.parametrize("side", ("baseline", "both"))
    @pytest.mark.parametrize(
        "key, old, new",
        (
            ("runtime_seconds", 1.0, 100.0),
            ("flows_per_second", 1e6, 1.0),
            ("peak_rss_bytes", 1, 10**9),
            ("streaming", False, True),
        ),
    )
    def test_a_timing_key_is_gated_like_any_other(self, key, old, new, side):
        """The gate is equality, so no key goes unchecked; committed baselines
        carry no timing keys (``tests/test_cli.py``), so none can trip it.

        ``baseline``: a file carrying a key the fresh payload lacks;
        ``both``: the two disagree on it.
        """
        current, baseline = payload(), payload()
        baseline[key] = old
        if side == "both":
            current[key] = new
        check = compare_payloads(current, baseline)
        expected = f"{key}: missing from the fresh payload" if side == "baseline" else (
            f"{key}: expected {old!r}, got {new!r}"
        )
        assert check.failures == [expected]

    def test_missing_system_fails(self):
        current = payload()
        current["systems"] = {}
        assert not compare_payloads(current, payload()).ok

    def test_missing_baseline_file_reported(self, tmp_path):
        checks, problems, stale = check_against_baselines([payload("nope")], tmp_path)
        assert checks == []
        assert stale == []
        assert len(problems) == 1
        assert "BENCH_nope.json" in problems[0]

    def test_check_against_committed_file(self, tmp_path):
        (tmp_path / "BENCH_s.json").write_text(json.dumps(payload()))
        checks, problems, stale = check_against_baselines([payload()], tmp_path)
        assert problems == [] and stale == []
        assert len(checks) == 1 and checks[0].ok

    def test_uncovered_committed_baseline_reported_as_stale(self, tmp_path):
        (tmp_path / "BENCH_s.json").write_text(json.dumps(payload()))
        (tmp_path / "BENCH_removed-scenario.json").write_text(json.dumps(payload("removed-scenario")))
        checks, problems, stale = check_against_baselines([payload()], tmp_path)
        assert problems == []
        assert len(checks) == 1 and checks[0].ok
        assert len(stale) == 1 and "BENCH_removed-scenario.json" in stale[0]


class TestOnePassDriftReporting:
    """``bench --check`` reports every drifted metric in one pass, not just
    the first mismatch."""

    @staticmethod
    def timeline_payload(**series_overrides):
        data = payload()
        counts = {
            "flows_handled": [100] * 8,
            "controller_requests": [50] * 8,
        }
        counts.update(series_overrides)
        data["systems"]["openflow"]["timeline"] = {
            "bucket_seconds": 7200.0,
            "counts": counts,
        }
        return data

    def test_all_drifted_metrics_surface_together(self):
        current = payload(requests=51)
        current["systems"]["openflow"]["flows_handled"] = 399
        current["systems"]["openflow"]["mean_latency_ms"] = 9.99
        check = compare_payloads(current, payload())
        assert not check.ok
        joined = "\n".join(check.failures)
        assert "total_controller_requests" in joined
        assert "flows_handled" in joined
        assert "mean_latency_ms" in joined
        assert len(check.failures) >= 3

    def test_timeline_drift_pinpoints_bucket_indices(self):
        drifted = [100] * 8
        drifted[2] = 93
        drifted[5] = 101
        check = compare_payloads(
            self.timeline_payload(flows_handled=drifted), self.timeline_payload()
        )
        assert not check.ok
        (failure,) = [f for f in check.failures if "timeline.counts.flows_handled" in f]
        assert failure.startswith("systems.openflow.timeline.counts.flows_handled: 2/8 drifted")
        assert "[2] 100->93" in failure
        assert "[5] 100->101" in failure

    def test_timeline_drift_preview_caps_long_lists(self):
        check = compare_payloads(
            self.timeline_payload(flows_handled=[99] * 8), self.timeline_payload()
        )
        (failure,) = [f for f in check.failures if "timeline.counts.flows_handled" in f]
        assert "8/8 drifted" in failure
        assert "... 3 more" in failure

    def test_timeline_bucket_count_mismatch_is_described(self):
        check = compare_payloads(
            self.timeline_payload(flows_handled=[100] * 6), self.timeline_payload()
        )
        (failure,) = [f for f in check.failures if "timeline.counts.flows_handled" in f]
        assert "expected 8 entries, got 6" in failure

    def test_multiple_timeline_series_drift_in_one_pass(self):
        current = self.timeline_payload(
            flows_handled=[99] + [100] * 7, controller_requests=[50] * 7 + [49]
        )
        check = compare_payloads(current, self.timeline_payload())
        assert len([f for f in check.failures if ".timeline." in f]) == 2

    def test_a_dropped_timeline_is_reported(self):
        current = payload()
        check = compare_payloads(current, self.timeline_payload())
        assert check.failures == ["systems.openflow.timeline: missing from the fresh payload"]

    def test_a_bucket_width_change_is_reported(self):
        current = self.timeline_payload()
        current["systems"]["openflow"]["timeline"]["bucket_seconds"] = 3600.0
        check = compare_payloads(current, self.timeline_payload())
        assert check.failures == [
            "systems.openflow.timeline.bucket_seconds: expected 7200.0, got 3600.0"
        ]

    def test_a_scenario_header_change_is_reported(self):
        current = payload()
        current["switches"] = 9
        check = compare_payloads(current, payload())
        assert "switches: expected 8, got 9" in check.failures

    def test_missing_timeline_series_is_reported(self):
        current = self.timeline_payload()
        del current["systems"]["openflow"]["timeline"]["counts"]["controller_requests"]
        check = compare_payloads(current, self.timeline_payload())
        (failure,) = [f for f in check.failures if "controller_requests" in f]
        assert "missing" in failure
