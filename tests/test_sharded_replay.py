"""The sharded replay subsystem: planning invariants and sharded≡serial equivalence.

The equivalence suite extends the streamed≡materialized harness one level
up: the per-system strategy must reproduce the serial run bit for bit at
any worker count, and the time-window strategy must be bit-identical
across worker counts (workers=k ≡ workers=1).
"""

import dataclasses
import json

import pytest
from hypothesis import given, settings, strategies as st

from repro.common.errors import ConfigurationError
from repro.core.runner import ScenarioRunner
from repro.core.scenario import (
    FailureInjectionSpec,
    ScenarioSpec,
    ScheduleSpec,
    TraceSpec,
)
from repro.churn.spec import ChurnSpec
from repro.obs.tracer import TraceOptions
from repro.replay.sharding import plan_shards
from repro.replay.spec import SHARD_STRATEGIES, ExecutionSpec
from repro.tables.spec import TableSpec
from repro.topology.builder import TopologyProfile


def mini_fig7(**overrides):
    """The paper-fig7 shape at test scale."""
    defaults = dict(
        name="mini-fig7",
        topology=TopologyProfile(switch_count=12, host_count=120, seed=2015),
        traffic=TraceSpec.realistic(total_flows=3_000, seed=2015),
        systems=("openflow", "lazyctrl-dynamic"),
        schedule=ScheduleSpec(duration_hours=8.0, bucket_hours=2.0),
    )
    defaults.update(overrides)
    return ScenarioSpec(**defaults)


def mini_fig7_expanded(**overrides):
    """The paper-fig7-expanded shape at test scale: +30 % flows among silent pairs, hours 2–8."""
    traffic = dataclasses.replace(
        mini_fig7().traffic, expand_fraction=0.3, expand_window_hours=(2.0, 8.0)
    )
    return mini_fig7(name="mini-fig7-expanded", traffic=traffic, **overrides)


#: The two Fig. 7 curves: every sharded ≡ serial claim is made for both.
FIG7_SHAPES = pytest.mark.parametrize(
    "shape", (mini_fig7, mini_fig7_expanded), ids=("fig7", "fig7-expanded")
)


def mini_table_pressure(**overrides):
    """The table-pressure shape at test scale: streamed flows vs tiny tables."""
    defaults = dict(
        name="mini-table-pressure",
        topology=TopologyProfile(switch_count=12, host_count=120, seed=2015),
        traffic=TraceSpec.realistic(total_flows=4_000, seed=2015),
        systems=("openflow", "lazyctrl-dynamic"),
        schedule=ScheduleSpec(duration_hours=8.0, bucket_hours=2.0),
        execution=ExecutionSpec(stream=True),
        tables=TableSpec(
            capacity=16,
            policy="idle-hard-hybrid",
            idle_timeout_seconds=1800.0,
            hard_timeout_seconds=7200.0,
        ),
    )
    defaults.update(overrides)
    return ScenarioSpec(**defaults)


def serialized_runs(result):
    return {name: run.to_dict() for name, run in result.runs.items()}


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

    def test_time_window_rejects_active_churn(self):
        spec = mini_fig7(
            execution=ExecutionSpec(workers=2, shard_strategy="time-window"),
            churn=ChurnSpec(seed=7, migration_rate_per_hour=5.0),
        )
        with pytest.raises(ConfigurationError, match="churn"):
            plan_shards(spec)

    def test_time_window_rejects_failure_injection(self):
        spec = mini_fig7(
            execution=ExecutionSpec(workers=2, shard_strategy="time-window"),
            failures=FailureInjectionSpec(at_hours=(2.0,), switches_per_event=1),
        )
        with pytest.raises(ConfigurationError, match="failure"):
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


# -- equivalence suite ----------------------------------------------------------


class TestShardedSerialEquivalence:
    @FIG7_SHAPES
    def test_system_strategy_workers_4_is_bit_identical_to_serial_fig7(self, shape):
        spec = shape()
        runner = ScenarioRunner()
        obs = TraceOptions(timeline=True)
        serial = runner.run(spec, obs=obs)
        sharded = runner.run(spec, obs=obs, execution=ExecutionSpec(workers=4))
        assert sharded.shards is not None and serial.shards is None
        assert serialized_runs(serial) == serialized_runs(sharded)

    def test_system_strategy_workers_4_is_bit_identical_to_serial_table_pressure(self):
        spec = mini_table_pressure()
        runner = ScenarioRunner()
        obs = TraceOptions(timeline=True)
        serial = runner.run(spec, obs=obs)
        sharded = runner.run(
            spec, obs=obs, execution=dataclasses.replace(spec.execution, workers=4)
        )
        assert serialized_runs(serial) == serialized_runs(sharded)
        for name in serial.runs:
            assert serial.runs[name].tables is not None

    @FIG7_SHAPES
    def test_time_window_workers_4_matches_workers_1_bit_for_bit(self, shape):
        spec = shape(systems=("lazyctrl-dynamic",), execution=ExecutionSpec(stream=True))
        runner = ScenarioRunner()
        obs = TraceOptions(timeline=True)
        window = lambda workers: ExecutionSpec(
            workers=workers, shard_strategy="time-window", shard_count=4, stream=True
        )
        one = runner.run(spec, obs=obs, execution=window(1))
        four = runner.run(spec, obs=obs, execution=window(4))
        left = json.dumps(serialized_runs(one), sort_keys=True)
        right = json.dumps(serialized_runs(four), sort_keys=True)
        assert left == right

    @FIG7_SHAPES
    def test_time_window_single_window_degenerates_to_the_serial_replay(self, shape):
        """Regression: a workers=1, one-window sharded run must serialize the
        exact bytes the serial path produces."""
        spec = shape(systems=("lazyctrl-dynamic",), execution=ExecutionSpec(stream=True))
        runner = ScenarioRunner()
        serial = runner.run(spec)
        single = runner.run(
            spec,
            execution=ExecutionSpec(
                workers=1, shard_strategy="time-window", shard_count=1, stream=True
            ),
        )
        left = json.dumps(serialized_runs(serial), sort_keys=True)
        right = json.dumps(serialized_runs(single), sort_keys=True)
        assert left == right

    @FIG7_SHAPES
    def test_time_window_merges_counters_to_the_streamed_totals(self, shape):
        """Windowed shards see exactly the flows of their window: summed
        counters equal the whole streamed replay's flow accounting."""
        spec = shape(systems=("lazyctrl-dynamic",), execution=ExecutionSpec(stream=True))
        runner = ScenarioRunner()
        serial = runner.run(spec)
        sharded = runner.run(
            spec,
            execution=ExecutionSpec(
                workers=2, shard_strategy="time-window", shard_count=4, stream=True
            ),
        )
        for name in serial.runs:
            flows = lambda run: run.counters.flows_handled + run.counters.departed_flows
            assert flows(sharded.runs[name]) == flows(serial.runs[name])

    def test_sharded_result_round_trips_with_telemetry(self):
        from repro.core.runner import ScenarioResult

        spec = mini_fig7()
        result = ScenarioRunner().run(spec, execution=ExecutionSpec(workers=2))
        assert result.shards is not None
        assert result.shards["strategy"] == "system"
        assert result.shards["critical_path_seconds"] > 0
        restored = ScenarioResult.from_dict(json.loads(json.dumps(result.to_dict())))
        assert restored.shards == result.shards
        assert serialized_runs(restored) == serialized_runs(result)

    def test_perf_snapshots_merge_across_time_windows(self):
        spec = mini_fig7(systems=("lazyctrl-dynamic",), execution=ExecutionSpec(stream=True))
        sharded = ScenarioRunner().run(
            spec,
            collect_perf=True,
            execution=ExecutionSpec(
                workers=2, shard_strategy="time-window", shard_count=4, stream=True
            ),
        )
        perf = sharded.runs["lazyctrl-dynamic"].perf
        assert perf is not None
        assert perf.flows_replayed > 0
        assert perf.counters["replay.flows_replayed"] == perf.flows_replayed

    def test_events_streaming_requires_the_per_system_strategy(self, tmp_path):
        spec = mini_fig7(
            systems=("openflow",),
            execution=ExecutionSpec(workers=2, shard_strategy="time-window", stream=True),
        )
        obs = TraceOptions(events_path=str(tmp_path / "events.jsonl"))
        with pytest.raises(ConfigurationError, match="events"):
            ScenarioRunner().run(spec, obs=obs)

    def test_spec_level_execution_is_honoured_without_a_call_override(self):
        spec = mini_fig7(execution=ExecutionSpec(workers=2))
        result = ScenarioRunner().run(spec)
        assert result.shards is not None
        assert result.shards["workers"] == 2


class TestPoolWorkerPayload:
    """What a pool worker runs, run in process: the payload and the outcome both ways."""

    def test_the_worker_body_is_execute_shard_through_dicts(self):
        from repro.replay.executor import (
            _execute_shard_payload,
            _outcome_from_dict,
            execute_shard,
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
        local = execute_shard(spec, shard, timeline_bucket_seconds=3600.0)
        assert shipped.shard == local.shard == shard
        assert shipped.run.to_dict() == local.run.to_dict()
        assert (shipped.workload_counts, shipped.latency_totals) == (
            local.workload_counts,
            local.latency_totals,
        )

    def test_zero_outcomes_do_not_merge(self):
        from repro.replay.merge import merge_outcomes

        with pytest.raises(ValueError, match="zero shard outcomes"):
            merge_outcomes([], schedule=ScheduleSpec())

