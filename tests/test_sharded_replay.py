"""The sharded replay subsystem: planning invariants, telemetry and the result grid.

Sharded ≡ serial (the per-system strategy at any worker count) and
time-window ≡ time-window (across worker counts) are the equivalence
matrix's (``test_equivalence_matrix.py``), and so are the plans it refuses.
"""

import dataclasses
import json

import pytest
from hypothesis import given, settings, strategies as st

from equivalence import Cell, outcome
from equivalence import fig7 as mini_fig7
from repro.common.diff import payload_drift
from repro.common.errors import ConfigurationError, ReproError, ShardFailure, TrafficError
from repro.core.runner import ScenarioRunner
from repro.core.scenario import ScheduleSpec, TraceSpec
from repro.replay.sharding import plan_shards
from repro.replay.spec import SHARD_STRATEGIES, ExecutionSpec


# -- planning invariants --------------------------------------------------------


class TestShardPlanning:
    def test_system_strategy_one_whole_timeline_shard_per_system(self):
        spec = mini_fig7()
        plan = plan_shards(spec)
        assert plan.strategy == "system"
        assert plan.is_serial_per_system
        assert [shard.system for shard in plan.shards] == list(spec.systems)
        for shard in plan.shards:
            assert shard.start == 0.0
            assert shard.end == spec.schedule.duration_seconds

    def test_system_strategy_rejects_mismatched_shard_count(self):
        spec = mini_fig7(execution=ExecutionSpec(shard_count=5))
        with pytest.raises(ConfigurationError, match="shard"):
            plan_shards(spec)

    def test_time_window_rejects_interval_not_dividing_bucket(self):
        spec = mini_fig7(
            schedule=ScheduleSpec(duration_hours=8.0, bucket_hours=2.0,
                                  periodic_interval_seconds=7000.0),
            execution=ExecutionSpec(workers=2, shard_strategy="time-window"),
        )
        with pytest.raises(ConfigurationError, match="interval"):
            plan_shards(spec)

    @given(
        duration_buckets=st.integers(min_value=1, max_value=24),
        bucket_hours=st.sampled_from([0.5, 1.0, 2.0, 3.0]),
        shard_count=st.integers(min_value=0, max_value=12),
        workers=st.integers(min_value=1, max_value=6),
    )
    @settings(max_examples=60, deadline=None)
    def test_time_window_windows_are_contiguous_aligned_and_cover_the_replay(
        self, duration_buckets, bucket_hours, shard_count, workers
    ):
        schedule = ScheduleSpec(
            duration_hours=duration_buckets * bucket_hours, bucket_hours=bucket_hours
        )
        spec = mini_fig7(
            systems=("openflow",),
            schedule=schedule,
            execution=ExecutionSpec(
                workers=workers, shard_strategy="time-window", shard_count=shard_count
            ),
        )
        plan = plan_shards(spec)
        shards = [shard for shard in plan.shards if shard.system == "openflow"]
        # Contiguous cover of [0, duration) with no gaps or overlaps.
        assert shards[0].start == 0.0
        assert shards[-1].end == schedule.duration_seconds
        for left, right in zip(shards, shards[1:]):
            assert left.end == right.start
            assert left.end > left.start
        # Every interior edge sits on a whole result bucket.
        for shard in shards[:-1]:
            assert shard.end % schedule.bucket_seconds == 0.0
        # Never more windows than buckets, never fewer than one.
        assert 1 <= len(shards) <= duration_buckets

    @given(
        duration_buckets=st.integers(min_value=1, max_value=12),
        shard_count=st.integers(min_value=0, max_value=8),
        strategy=st.sampled_from(SHARD_STRATEGIES),
        edge_index=st.integers(min_value=0, max_value=12),
    )
    @settings(max_examples=60, deadline=None)
    def test_boundary_timestamp_is_owned_by_exactly_one_shard(
        self, duration_buckets, shard_count, strategy, edge_index
    ):
        """A flow arriving exactly on a window edge belongs to exactly one
        shard, for every strategy — the half-open [start, end) contract."""
        schedule = ScheduleSpec(duration_hours=duration_buckets * 2.0, bucket_hours=2.0)
        count = shard_count if strategy == "time-window" else 0
        spec = mini_fig7(
            systems=("openflow",),
            schedule=schedule,
            execution=ExecutionSpec(workers=2, shard_strategy=strategy, shard_count=count),
        )
        plan = plan_shards(spec)
        shards = [shard for shard in plan.shards if shard.system == "openflow"]
        edges = sorted({shard.start for shard in shards} | {shard.end for shard in shards})
        timestamp = edges[min(edge_index, len(edges) - 1)]
        owners = [shard for shard in shards if shard.start <= timestamp < shard.end]
        if timestamp < schedule.duration_seconds:
            assert len(owners) == 1
        else:
            # The replay window is [0, duration); the final edge belongs to
            # no shard, exactly like the serial replayer's half-open window.
            assert owners == []


class TestShardedResult:
    def test_sharded_result_round_trips_with_telemetry(self):
        from repro.core.runner import ScenarioResult

        spec = mini_fig7()
        result = ScenarioRunner().run(dataclasses.replace(spec, execution=ExecutionSpec(workers=2)))
        assert result.shards is not None
        assert result.shards["strategy"] == "system"
        assert result.shards["critical_path_seconds"] > 0
        restored = ScenarioResult.from_dict(json.loads(json.dumps(result.to_dict())))
        assert restored.shards == result.shards
        assert restored.to_dict()["runs"] == result.to_dict()["runs"]

    def test_perf_snapshots_merge_across_time_windows(self):
        cell = Cell(delivery="stream", shard="time-window", workers=2, perf=True)
        perf = outcome(mini_fig7(systems=("lazyctrl-dynamic",)), cell).result.runs["lazyctrl-dynamic"].perf
        assert perf is not None
        assert perf.flows_replayed > 0
        assert perf.counters["replay.flows_replayed"] == perf.flows_replayed


class TestOneExecutionPath:
    """Serial, pooled and windowed runs are one driver over one shard plan."""

    def test_in_process_time_windows_generate_a_materialized_trace_once(self, monkeypatch):
        calls = []
        build_stream = TraceSpec.build_stream

        def counting_build_stream(self, network, *, name="scenario"):
            calls.append(name)
            return build_stream(self, network, name=name)

        monkeypatch.setattr(TraceSpec, "build_stream", counting_build_stream)
        spec = mini_fig7(
            systems=("openflow", "lazyctrl-static", "lazyctrl-dynamic"),
            execution=ExecutionSpec(shard_strategy="time-window", shard_count=4),
        )
        result = ScenarioRunner().run(spec)
        assert result.shards["windows_per_system"] == 4
        assert result.shards["pooled"] is False
        assert len(calls) == 1


class TestResultGrid:
    """One bucket count for the result series, the timeline and the window planner."""

    @pytest.mark.parametrize(
        "duration_hours, bucket_hours, expected",
        [
            (39.6, 3.3, 12),
            (22.8, 3.8, 6),
            (33.2, 0.2, 166),
            (24.0, 2.0, 12),
            (25.0, 2.0, 13),
            (1.5, 1.0, 2),
            (0.5, 2.0, 1),
        ],
    )
    def test_float_error_adds_no_bucket_but_a_partial_bucket_counts(
        self, duration_hours, bucket_hours, expected
    ):
        schedule = ScheduleSpec(duration_hours=duration_hours, bucket_hours=bucket_hours)
        assert schedule.bucket_count() == expected

    @pytest.mark.parametrize(
        "cell",
        [Cell(timeline=True), Cell(shard="system", workers=2, timeline=True), Cell(shard="time-window", timeline=True)],
        ids=("serial", "per-system-pool", "time-window"),
    )
    def test_no_phantom_result_bucket(self, cell):
        spec = mini_fig7(schedule=ScheduleSpec(duration_hours=39.6, bucket_hours=3.3))
        for run in outcome(spec, cell).runs.values():
            assert len(run["workload"]["krps"]) == len(run["latency"]["mean_latency_ms"]) == 12
            assert run["timeline"]["bucket_count"] == 12

    def test_the_window_planner_uses_the_same_grid(self):
        spec = mini_fig7(
            systems=("openflow",),
            schedule=ScheduleSpec(duration_hours=33.2, bucket_hours=0.2),
            execution=ExecutionSpec(shard_strategy="time-window", shard_count=1000),
        )
        shards = plan_shards(spec).shards
        assert len(shards) == 166
        assert shards[-1].end == spec.schedule.duration_seconds


class TestPoolWorkerPayload:
    """What a pool worker runs, run in process: the payload and the outcome both ways."""

    def test_the_worker_body_is_execute_shard_through_dicts(self):
        from repro.replay.executor import (
            _execute_shard_payload,
            _outcome_from_dict,
            execute_shard,
            shard_trace,
            shard_tracer,
        )

        spec = mini_fig7(systems=("lazyctrl-dynamic",))
        (shard,) = plan_shards(spec).shards
        payload = {
            "spec": spec.to_dict(),
            "shard": {"index": shard.index, "system": shard.system, "start": shard.start, "end": shard.end},
            "collect_perf": False,
            "timeline_bucket_seconds": 3600.0,
        }
        shipped = _outcome_from_dict(_execute_shard_payload(payload))
        local = execute_shard(spec, shard, shard_trace(spec), shard_tracer(shard.system, 3600.0))
        assert shipped.shard == local.shard == shard
        assert payload_drift(local.run.to_dict(), shipped.run.to_dict()) == []
        assert (shipped.workload_counts, shipped.latency_totals) == (
            local.workload_counts,
            local.latency_totals,
        )

    def test_zero_outcomes_do_not_merge(self):
        from repro.replay.merge import merge_outcomes

        with pytest.raises(ValueError, match="zero shard outcomes"):
            merge_outcomes([], schedule=ScheduleSpec())


# -- a failing shard -------------------------------------------------------------------


class _FailingPlane:
    """A third-party plane whose flow handling raises from ``FAIL_FROM`` seconds on."""

    FAIL_FROM = 2 * 3600.0
    error = ValueError

    def __init__(self, network, *, config=None, workload_bucket_seconds, latency_bucket_seconds):
        from repro.core.results import SystemCounters
        from repro.simulation.metrics import CounterSeries, LatencyRecorder

        self.network = network
        self.counters = SystemCounters()
        self.latency_recorder = LatencyRecorder(latency_bucket_seconds)
        self._workload = CounterSeries(workload_bucket_seconds)

    def prepare(self, trace, *, warmup_end, now=0.0):
        pass

    def handle_flow_arrival(self, flow, now):
        if now >= self.FAIL_FROM:
            raise self.error(f"flow {flow.flow_id} refused")
        self.counters.flows_handled += 1
        self._workload.record(now)
        self.latency_recorder.record(now, 1.0)

    def periodic(self, now):
        pass

    def workload_series(self):
        return self._workload

    def total_controller_requests(self):
        return 0

    def updates_per_hour(self, *, hours):
        return [0.0] * hours


class TestAFailingShardNamesItself:
    """An exception out of a shard's replay says which shard, in process and from a pool."""

    @pytest.fixture(params=[ValueError, TrafficError], ids=["foreign", "repro"])
    def failing_plane(self, request, monkeypatch):
        from repro.core.registry import register_control_plane, unregister_control_plane

        monkeypatch.setattr(_FailingPlane, "error", request.param)
        register_control_plane("test-failing", label="Failing")(_FailingPlane)
        yield request.param
        unregister_control_plane("test-failing")

    @pytest.mark.parametrize("workers", [1, 2], ids=["in-process", "pooled"])
    def test_the_error_names_the_shard(self, failing_plane, workers):
        spec = mini_fig7(
            flows=600,
            systems=("test-failing",),
            schedule=ScheduleSpec(duration_hours=4.0, bucket_hours=2.0),
            execution=ExecutionSpec(workers=workers, shard_strategy="time-window", shard_count=2),
        )
        with pytest.raises(ReproError) as raised:
            ScenarioRunner().run(spec)
        error = raised.value
        # The second window, [2 h, 4 h), is the one that fails.
        assert str(error).startswith("shard 1 (test-failing, [7200.0, 14400.0)) failed: ")
        assert "refused" in str(error)
        if failing_plane is TrafficError:
            assert type(error) is TrafficError
        else:
            assert type(error) is ShardFailure and "ValueError" in str(error)
        if workers == 1:
            assert isinstance(error.__cause__, failing_plane)

    @pytest.mark.parametrize("workers", [1, 2], ids=["in-process", "pooled"])
    def test_the_cli_prints_a_bug_with_its_traceback(self, failing_plane, workers, capsys):
        """A usage error is one ``error:`` line (exit 2); a bug keeps its traceback (exit 1)."""
        from repro.cli import main

        code = main(
            [
                "run",
                "paper-fig7",
                "--flows=600",
                "--switches=8",
                "--hosts=60",
                "--duration-hours=4",
                "--systems=test-failing",
                f"--exec=workers={workers},shard-strategy=time-window,shard-count=2",
            ]
        )
        err = capsys.readouterr().err
        assert "shard 1 (test-failing, [7200.0, 14400.0)) failed: " in err
        if failing_plane is TrafficError:
            assert code == 2 and err.startswith("error: ") and "Traceback" not in err
        else:
            assert code == 1 and "Traceback" in err
            # The original raise site survives, from the worker too.
            assert "handle_flow_arrival" in err
