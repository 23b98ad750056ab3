"""Tests for the Scenario API: specs, the registry, the runner and presets."""

import dataclasses
import json

import pytest

from repro.common.config import GroupingConfig, LazyCtrlConfig
from repro.common.errors import ConfigurationError
from repro.common.serialize import dataclass_to_dict
from repro.core.presets import get_preset, list_presets
from repro.core.registry import (
    available_control_planes,
    get_control_plane,
    register_control_plane,
    unregister_control_plane,
)
from repro.core.results import RunResult, SystemCounters
from repro.core.runner import ScenarioResult, ScenarioRunner
from repro.core.scenario import (
    FailureInjectionSpec,
    ScenarioSpec,
    ScheduleSpec,
    TopologySpec,
    TraceSpec,
)
from repro.replay.spec import ExecutionSpec
from repro.simulation.metrics import CounterSeries, LatencyRecorder
from repro.topology.builder import TopologyProfile
from repro.traffic.synthetic import SyntheticTraceSpec


def tiny_spec(name="tiny", *, systems=("openflow", "lazyctrl-dynamic"), **overrides) -> ScenarioSpec:
    """A scenario small enough to run in a second or two."""
    defaults = dict(
        name=name,
        topology=TopologyProfile(switch_count=8, host_count=60, seed=5),
        traffic=TraceSpec.realistic(total_flows=800, seed=5),
        systems=systems,
        schedule=ScheduleSpec(duration_hours=4.0, bucket_hours=2.0),
        config=LazyCtrlConfig(grouping=GroupingConfig(group_size_limit=3, random_seed=5)),
    )
    defaults.update(overrides)
    return ScenarioSpec(**defaults)


class TestScenarioSpec:
    def test_dict_round_trip(self):
        spec = tiny_spec()
        assert ScenarioSpec.from_dict(spec.to_dict()) == spec

    def test_stream_flag_round_trips(self):
        spec = dataclasses.replace(tiny_spec(), execution=ExecutionSpec(stream=True))
        rebuilt = ScenarioSpec.from_dict(spec.to_dict())
        assert rebuilt.stream is True
        assert rebuilt == spec

    def test_spec_json_without_execution_key_defaults_to_materialized(self):
        data = tiny_spec().to_dict()
        del data["execution"]
        rebuilt = ScenarioSpec.from_dict(data)
        assert rebuilt.stream is False
        assert rebuilt.execution == ExecutionSpec()

    def test_legacy_spec_json_with_top_level_stream_key_still_loads(self):
        data = tiny_spec().to_dict()
        del data["execution"]
        data["stream"] = True
        rebuilt = ScenarioSpec.from_dict(data)
        assert rebuilt.stream is True
        assert rebuilt.execution == ExecutionSpec(stream=True)

    def test_json_round_trip_through_serialized_text(self):
        spec = tiny_spec(
            failures=FailureInjectionSpec(at_hours=(1.0, 2.5), switches_per_event=2),
        )
        rebuilt = ScenarioSpec.from_json(spec.to_json())
        assert rebuilt == spec
        # Tuples must survive the JSON list detour.
        assert rebuilt.systems == ("openflow", "lazyctrl-dynamic")
        assert rebuilt.failures.at_hours == (1.0, 2.5)

    def test_synthetic_trace_round_trip(self):
        spec = tiny_spec(
            traffic=TraceSpec(
                model="synthetic",
                params=dataclass_to_dict(
                    SyntheticTraceSpec(
                        name="syn-a",
                        concentrated_flow_fraction=0.9,
                        concentrated_pair_fraction=0.1,
                        total_flows=500,
                        seed=5,
                    )
                ),
            ),
        )
        assert ScenarioSpec.from_dict(json.loads(spec.to_json())) == spec

    def test_save_and_load(self, tmp_path):
        spec = tiny_spec()
        path = spec.save(tmp_path / "spec.json")
        assert ScenarioSpec.load(path) == spec

    def test_rejects_empty_systems(self):
        with pytest.raises(ConfigurationError):
            tiny_spec(systems=())

    def test_rejects_empty_name(self):
        with pytest.raises(ConfigurationError):
            tiny_spec(name="  ")

    def test_normalizes_systems_to_tuple(self):
        spec = tiny_spec(systems=["openflow"])
        assert spec.systems == ("openflow",)

    def test_rejects_bare_string_systems(self):
        with pytest.raises(ConfigurationError, match="bare string"):
            tiny_spec(systems="openflow")

    def test_rejects_duplicate_systems(self):
        with pytest.raises(ConfigurationError, match="duplicate"):
            tiny_spec(systems=("openflow", "openflow"))

    def test_unknown_model_fails_at_resolution(self):
        spec = TraceSpec(model="no-such-model")
        with pytest.raises(ConfigurationError, match="unknown traffic model"):
            spec.entry()

    def test_unknown_param_names_offending_key(self):
        spec = TraceSpec(model="realistic", params={"total_flowz": 100})
        with pytest.raises(ConfigurationError, match="total_flowz"):
            spec.resolved_params()

    def test_topology_profile_still_accepted(self):
        spec = tiny_spec()
        assert isinstance(spec.topology, TopologySpec)
        assert spec.topology.shape == "multi-tenant"
        assert spec.topology.dimensions() == (8, 60)

    def test_schedule_validation(self):
        with pytest.raises(ConfigurationError):
            ScheduleSpec(duration_hours=0.0)
        with pytest.raises(ConfigurationError):
            ScheduleSpec(periodic_interval_seconds=0.0)

    @pytest.mark.parametrize(
        "kwargs, field",
        [
            ({"bucket_hours": 0.0}, "bucket_hours"),
            ({"bucket_hours": -2.0}, "bucket_hours"),
        ],
    )
    def test_schedule_rejects(self, kwargs, field):
        with pytest.raises(ConfigurationError, match=field):
            ScheduleSpec(**kwargs)

    def test_failure_spec_validation(self):
        with pytest.raises(ConfigurationError):
            FailureInjectionSpec(at_hours=())
        with pytest.raises(ConfigurationError):
            FailureInjectionSpec(switches_per_event=0)

    def test_failure_spec_rejects_a_negative_hour(self):
        with pytest.raises(ConfigurationError, match="non-negative"):
            FailureInjectionSpec(at_hours=(2.0, -1.0))

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"model": ""}, "non-empty"),
            ({"model": "   "}, "non-empty"),
            ({"expand_fraction": -0.1}, "expand_fraction"),
            ({"expand_fraction": 5.5}, "expand_fraction"),
        ],
    )
    def test_trace_spec_rejects(self, kwargs, message):
        with pytest.raises(ConfigurationError, match=message):
            TraceSpec(**kwargs)

    @pytest.mark.parametrize("systems", [("openflow", ""), ("openflow", 3)])
    def test_rejects_a_system_that_is_not_a_name(self, systems):
        with pytest.raises(ConfigurationError, match="non-empty strings"):
            tiny_spec(systems=systems)


class TestRegistry:
    def test_builtin_planes_registered(self):
        names = [entry.name for entry in available_control_planes()]
        assert {"openflow", "lazyctrl-static", "lazyctrl-dynamic"} <= set(names)

    def test_unknown_name_raises_with_suggestions(self):
        with pytest.raises(ConfigurationError, match="openflow"):
            get_control_plane("no-such-design")

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ConfigurationError):
            register_control_plane("openflow")(lambda *a, **k: None)

    def test_labels(self):
        assert get_control_plane("lazyctrl-dynamic").label == "LazyCtrl (dynamic)"


class _CountingPlane:
    """A minimal third-party control plane: every flow costs one request."""

    def __init__(self, network, *, config=None, workload_bucket_seconds, latency_bucket_seconds):
        self.network = network
        self.config = config
        self.counters = SystemCounters()
        self.latency_recorder = LatencyRecorder(latency_bucket_seconds)
        self._workload = CounterSeries(workload_bucket_seconds)
        self.prepared = False

    def prepare(self, trace, *, warmup_end, now=0.0):
        self.prepared = True

    def handle_flow_arrival(self, flow, now):
        self.counters.flows_handled += 1
        self.counters.controller_requests += 1
        self._workload.record(now)
        self.latency_recorder.record(now, 1.0)

    def periodic(self, now):
        pass

    def workload_series(self):
        return self._workload

    def total_controller_requests(self):
        return self.counters.controller_requests

    def updates_per_hour(self, *, hours):
        return [0.0] * hours


class TestRunner:
    @pytest.fixture(scope="class")
    def tiny_result(self):
        return ScenarioRunner().run(tiny_spec())

    def test_runs_keyed_by_registry_name(self, tiny_result):
        assert list(tiny_result.runs) == ["openflow", "lazyctrl-dynamic"]
        assert tiny_result.labels() == ["OpenFlow", "LazyCtrl (dynamic)"]

    def test_result_lookup_by_name_or_label(self, tiny_result):
        assert tiny_result.result_for("openflow") is tiny_result.result_for("OpenFlow")
        with pytest.raises(KeyError):
            tiny_result.result_for("nope")

    def test_lazyctrl_reduces_workload(self, tiny_result):
        assert tiny_result.reduction("openflow", "lazyctrl-dynamic") > 0.0

    def test_bucket_counts_follow_schedule(self, tiny_result):
        run = tiny_result.result_for("openflow")
        assert len(run.workload.krps) == 2  # 4 h / 2 h buckets
        assert len(run.latency.mean_latency_ms) == 2

    def test_result_round_trip(self, tiny_result):
        rebuilt = ScenarioResult.from_dict(tiny_result.to_dict())
        assert rebuilt == tiny_result

    def test_result_save_load(self, tiny_result, tmp_path):
        path = tiny_result.save(tmp_path / "result.json")
        assert ScenarioResult.load(path) == tiny_result

    def test_unknown_system_fails_before_any_replay(self):
        with pytest.raises(ConfigurationError):
            ScenarioRunner().run(tiny_spec(systems=("openflow", "typo")))

    def test_run_many_serial(self):
        specs = [tiny_spec("a", systems=("openflow",)), tiny_spec("b", systems=("openflow",))]
        results = ScenarioRunner().run_many(specs)
        assert [result.spec.name for result in results] == ["a", "b"]

    def test_run_many_with_two_workers(self):
        specs = [tiny_spec("wa", systems=("openflow",)), tiny_spec("wb", systems=("openflow",))]
        parallel = ScenarioRunner().run_many(specs, execution=ExecutionSpec(workers=2))
        serial = ScenarioRunner().run_many(specs)
        assert parallel == serial

    def test_run_many_empty(self):
        assert ScenarioRunner().run_many([]) == []

    def test_run_many_empty_with_parallel_workers(self):
        """Regression: an empty spec list with workers >= 2 must return []
        instead of reaching ``Pool(processes=0)`` (which raises ValueError)."""
        assert ScenarioRunner().run_many([], execution=ExecutionSpec(workers=4)) == []
        assert ScenarioRunner().run_many(iter(()), execution=ExecutionSpec(workers=2)) == []

    def test_run_many_rejects_negative_workers(self):
        with pytest.raises(ConfigurationError):
            ScenarioRunner().run_many([tiny_spec()], execution=ExecutionSpec(workers=-1))

    def test_custom_control_plane_end_to_end(self):
        register_control_plane("test-counting", label="Counting")(_CountingPlane)
        try:
            result = ScenarioRunner().run(tiny_spec(systems=("test-counting",)))
            run = result.result_for("test-counting")
            assert run.label == "Counting"
            assert run.counters.flows_handled > 0
            assert run.total_controller_requests == run.counters.flows_handled
            assert ScenarioResult.from_dict(result.to_dict()) == result
        finally:
            unregister_control_plane("test-counting")

    def test_failure_injection_drives_failover(self):
        spec = tiny_spec(
            "storm",
            systems=("lazyctrl-dynamic",),
            failures=FailureInjectionSpec(at_hours=(1.0,), switches_per_event=2),
        )
        result = ScenarioRunner().run(spec)
        # One injection time in the plan -> exactly one event, regardless of
        # how many recovery records each event produces.
        assert result.result_for("lazyctrl-dynamic").failover_events == 1

    def test_partial_final_bucket_is_reported(self):
        """A 3 h run with 2 h buckets must report 2 buckets, not drop hour 3."""
        spec = tiny_spec("partial", systems=("openflow",),
                         schedule=ScheduleSpec(duration_hours=3.0, bucket_hours=2.0))
        run = ScenarioRunner().run(spec).result_for("openflow")
        assert len(run.workload.krps) == 2
        assert len(run.latency.mean_latency_ms) == 2

    def test_fractional_duration_rounds_hours_up(self):
        """Regression: duration_hours=1.5 must report 2 hours of updates."""
        spec = tiny_spec("frac", schedule=ScheduleSpec(duration_hours=1.5, bucket_hours=1.5))
        result = ScenarioRunner().run(spec)
        for run in result.runs.values():
            assert len(run.updates_per_hour) == 2


class TestPresets:
    def test_list_presets_nonempty(self):
        names = [preset.name for preset in list_presets()]
        assert "paper-fig7" in names
        assert "failover" in names
        assert "scale-sweep" in names

    def test_unknown_preset(self):
        with pytest.raises(ConfigurationError):
            get_preset("no-such-preset")

    def test_preset_specs_are_valid_and_serializable(self):
        for preset in list_presets():
            for spec in preset.specs():
                assert ScenarioSpec.from_dict(spec.to_dict()) == spec
                for system in spec.systems:
                    get_control_plane(system)

    def test_scale_sweep_is_a_fan_out(self):
        assert len(get_preset("scale-sweep").specs()) == 3

    def test_paper_fig7_10m_preset_is_streaming_at_scale(self):
        (spec,) = get_preset("paper-fig7-10m").specs()
        assert spec.stream is True
        assert spec.traffic.total_flows == 10_000_000
        # One system keeps the smoke affordable; the spec stays overridable.
        assert spec.systems == ("lazyctrl-dynamic",)


class TestRunResultSerialization:
    def test_round_trip(self):
        result = ScenarioRunner().run(tiny_spec(systems=("openflow",)))
        run = result.result_for("openflow")
        assert RunResult.from_dict(json.loads(json.dumps(run.to_dict()))) == run


class TestTraceIdentity:
    @pytest.mark.xfail(
        strict=True,
        reason="the realistic model labels its RNG with the scenario's name "
        "(ScenarioSpec.build_trace / build_stream pass name=self.name to make_rng), "
        "so a rename draws other flows; fixing it moves every ledger digest",
    )
    def test_renaming_a_spec_leaves_its_trace_unchanged(self):
        spec = tiny_spec()
        network = spec.build_network()
        renamed = dataclasses.replace(spec, name="tiny-renamed")
        assert list(renamed.build_trace(network).flows) == list(spec.build_trace(network).flows)
