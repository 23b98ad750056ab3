"""Tests for the ``python -m repro`` command-line interface."""

import argparse
import dataclasses
import json
from pathlib import Path

import pytest

from repro.cli import BENCH_PRESETS, OVERRIDE_FLAGS, SMOKE_BENCH_PRESETS, _apply_overrides, build_parser, main
from repro.common.config import FlowTableConfig
from repro.core.presets import get_preset
from repro.core.runner import ScenarioResult, ScenarioRunner
from repro.core.scenario import ScenarioSpec, ScheduleSpec, TraceSpec
from repro.replay.sharding import plan_shards
from repro.topology.builder import TopologyProfile

#: The committed ``BENCH_<scenario>.json`` files ``repro bench --check`` gates on.
COMMITTED_BASELINES = sorted(
    (Path(__file__).parent.parent / "benchmarks" / "baselines").glob("BENCH_*.json")
)


def timed_keys(payload):
    """Every key of a bench payload, at any depth, that names a wall-clock,
    throughput or memory measurement (``bucket_seconds`` is the timeline's
    simulated bucket width, not a timing)."""

    def keys(value):
        if isinstance(value, dict):
            for key, item in value.items():
                yield key
                yield from keys(item)
        elif isinstance(value, list):
            for item in value:
                yield from keys(item)

    return [
        key for key in keys(payload)
        if (key.endswith(("_seconds", "_per_second")) and key != "bucket_seconds")
        or key == "peak_rss_bytes"
    ]


RUN_SMALL = [
    "--flows", "400",
    "--switches", "8",
    "--hosts", "60",
    "--duration-hours", "2",
]


class TestListScenarios:
    def test_exits_zero_and_lists_everything(self, capsys):
        assert main(["list-scenarios"]) == 0
        out = capsys.readouterr().out
        assert "paper-fig7" in out
        assert "lazyctrl-dynamic" in out


class TestListWorkloads:
    def test_list_traffic_models_shows_all_builtins(self, capsys):
        assert main(["list-traffic-models"]) == 0
        out = capsys.readouterr().out
        for model in ("realistic", "synthetic", "elephant-mice", "incast-hotspot",
                      "all-to-all-shuffle", "uniform", "mix"):
            assert model in out
        assert "total_flows" in out  # params column

    def test_list_topologies_shows_all_builtins(self, capsys):
        assert main(["list-topologies"]) == 0
        out = capsys.readouterr().out
        for shape in ("multi-tenant", "paper-real", "paper-synthetic", "striped", "multi-pod"):
            assert shape in out


class TestWorkloadOverrides:
    def test_traffic_override_swaps_the_model(self, tmp_path, capsys):
        out_path = tmp_path / "results.json"
        code = main(["run", "paper-fig7", *RUN_SMALL, "--systems", "openflow",
                     "--traffic", "uniform", "--out", str(out_path)])
        assert code == 0
        result = ScenarioResult.from_dict(json.loads(out_path.read_text()))
        assert result.spec.traffic.model == "uniform"
        assert result.spec.traffic.params["total_flows"] == 400

    def test_topology_override_swaps_the_shape_and_carries_dimensions(self, tmp_path, capsys):
        out_path = tmp_path / "results.json"
        code = main(["run", "paper-fig7", *RUN_SMALL, "--systems", "openflow",
                     "--topology", "striped", "--out", str(out_path)])
        assert code == 0
        result = ScenarioResult.from_dict(json.loads(out_path.read_text()))
        assert result.spec.topology.shape == "striped"
        assert result.spec.topology.dimensions() == (8, 60)

    def test_unknown_traffic_model_fails_cleanly(self, capsys):
        assert main(["run", "paper-fig7", *RUN_SMALL, "--traffic", "nope"]) == 2
        assert "unknown traffic model" in capsys.readouterr().err

    def test_unknown_topology_fails_cleanly(self, capsys):
        assert main(["run", "paper-fig7", *RUN_SMALL, "--topology", "nope"]) == 2
        assert "unknown topology" in capsys.readouterr().err

    def test_traffic_swap_carries_the_preset_scale(self, tmp_path, capsys):
        # Without --flows, a --traffic swap must keep the preset's flow
        # budget/seed rather than fall back to the model's 200k default.
        out_path = tmp_path / "results.json"
        code = main(["run", "paper-fig7", "--switches", "8", "--hosts", "60",
                     "--duration-hours", "2", "--systems", "openflow",
                     "--traffic", "uniform", "--out", str(out_path)])
        assert code == 0
        result = ScenarioResult.from_dict(json.loads(out_path.read_text()))
        assert result.spec.traffic.model == "uniform"
        assert result.spec.traffic.params["total_flows"] == 20_000
        assert result.spec.traffic.params["seed"] == 2015

    def test_mix_preset_runs_end_to_end(self, tmp_path, capsys):
        out_path = tmp_path / "results.json"
        code = main(["run", "traffic-mix", *RUN_SMALL, "--systems", "openflow",
                     "--out", str(out_path)])
        assert code == 0
        result = ScenarioResult.from_dict(json.loads(out_path.read_text()))
        assert result.spec.traffic.model == "mix"
        assert result.runs["openflow"].counters.flows_handled > 0


class TestTableFlags:
    def test_list_table_policies_shows_all_builtins(self, capsys):
        assert main(["list-table-policies"]) == 0
        out = capsys.readouterr().out
        for name in ("static-idle", "static-hard", "idle-hard-hybrid", "lru", "adaptive"):
            assert name in out
        assert "min_timeout_seconds" in out  # params column

    def test_table_overrides_edit_the_flow_table(self, tmp_path, capsys):
        out_path = tmp_path / "results.json"
        code = main(["run", "paper-fig7", *RUN_SMALL, "--systems", "openflow",
                     "--table-capacity", "32", "--table-policy", "lru",
                     "--out", str(out_path)])
        assert code == 0
        result = ScenarioResult.from_dict(json.loads(out_path.read_text()))
        assert result.spec.config.flow_table.capacity == 32
        assert result.spec.config.flow_table.policy == "lru"
        run = result.runs["openflow"]
        assert run.tables is not None
        assert run.tables.capacity == 32 and run.tables.policy == "lru"

    def test_table_capacity_alone_keeps_default_policy(self, tmp_path, capsys):
        out_path = tmp_path / "results.json"
        code = main(["run", "paper-fig7", *RUN_SMALL, "--systems", "openflow",
                     "--table-capacity", "16", "--out", str(out_path)])
        assert code == 0
        result = ScenarioResult.from_dict(json.loads(out_path.read_text()))
        table = result.spec.config.flow_table
        assert (table.capacity, table.eviction_batch, table.policy) == (16, 16, "static-idle")

    @pytest.mark.parametrize(
        "table",
        [
            FlowTableConfig(policy="lru"),
            FlowTableConfig(policy="adaptive", policy_params={"margin": 3.0}),
        ],
        ids=["lru", "adaptive"],
    )
    def test_table_capacity_changes_the_capacity_only(self, table):
        (preset,) = get_preset("paper-fig7").specs()
        spec = dataclasses.replace(preset, config=dataclasses.replace(preset.config, flow_table=table))
        args = build_parser().parse_args(["run", "paper-fig7", "--table-capacity", "128"])
        assert _apply_overrides(spec, args).config.flow_table == dataclasses.replace(
            table, capacity=128, eviction_batch=64
        )

    def test_unknown_table_policy_fails_cleanly(self, capsys):
        assert main(["run", "paper-fig7", *RUN_SMALL, "--table-policy", "nope"]) == 2
        assert "unknown table policy" in capsys.readouterr().err

    def test_table_pressure_preset_runs_small(self, capsys):
        assert main(["run", "table-pressure", *RUN_SMALL]) == 0
        assert "OpenFlow" in capsys.readouterr().out

    def test_bench_payload_reports_table_pressure_counters(self, tmp_path, capsys):
        code = main(["bench", "--presets", "table-pressure", *RUN_SMALL,
                     "--out-dir", str(tmp_path)])
        assert code == 0
        payload = json.loads((tmp_path / "BENCH_table-pressure.json").read_text())
        for record in payload["systems"].values():
            assert {"table_overflows", "table_evictions", "table_timeouts",
                    "table_reinstalls", "table_peak_occupancy",
                    "flow_removed_messages"} <= set(record)


class TestRun:
    def test_preset_run_exits_zero(self, capsys):
        assert main(["run", "paper-fig7", *RUN_SMALL]) == 0
        out = capsys.readouterr().out
        assert "OpenFlow" in out
        assert "LazyCtrl (dynamic)" in out

    def test_run_writes_results_json(self, tmp_path, capsys):
        out_path = tmp_path / "results.json"
        code = main(["run", "paper-fig7", *RUN_SMALL, "--systems", "openflow",
                     "--out", str(out_path)])
        assert code == 0
        result = ScenarioResult.from_dict(json.loads(out_path.read_text()))
        assert list(result.runs) == ["openflow"]

    def test_stream_flag_selects_bounded_memory_replay(self, tmp_path, capsys):
        out_path = tmp_path / "results.json"
        code = main(["run", "paper-fig7", *RUN_SMALL, "--systems", "openflow",
                     "--exec", "stream=true", "--out", str(out_path)])
        assert code == 0
        result = ScenarioResult.from_dict(json.loads(out_path.read_text()))
        assert result.spec.stream is True

    def test_no_stream_forces_materialized_path_on_streaming_preset(self, tmp_path, capsys):
        out_path = tmp_path / "results.json"
        code = main(["run", "paper-fig7-10m", "--flows", "2000", "--switches", "8",
                     "--hosts", "60", "--duration-hours", "2",
                     "--exec", "stream=false", "--out", str(out_path)])
        assert code == 0
        result = ScenarioResult.from_dict(json.loads(out_path.read_text()))
        assert result.spec.stream is False

    def test_streamed_run_matches_materialized_results(self, tmp_path, capsys):
        materialized, streamed = tmp_path / "mat.json", tmp_path / "str.json"
        base = ["run", "paper-fig7", *RUN_SMALL, "--systems", "openflow,lazyctrl-dynamic"]
        assert main([*base, "--out", str(materialized)]) == 0
        assert main([*base, "--exec", "stream=true", "--out", str(streamed)]) == 0
        left = json.loads(materialized.read_text())
        right = json.loads(streamed.read_text())
        # Identical replay outcomes; only the spec's execution differs.
        assert left["runs"] == right["runs"]
        assert left["spec"]["execution"]["stream"] is False
        assert right["spec"]["execution"]["stream"] is True

    def test_run_spec_file(self, tmp_path, capsys):
        spec = ScenarioSpec(
            name="from-file",
            topology=TopologyProfile(switch_count=8, host_count=60, seed=9),
            traffic=TraceSpec.realistic(total_flows=300, seed=9),
            systems=("openflow",),
            schedule=ScheduleSpec(duration_hours=2.0, bucket_hours=2.0),
        )
        path = spec.save(tmp_path / "spec.json")
        assert main(["run", str(path)]) == 0
        assert "from-file" in capsys.readouterr().out

    def test_unknown_preset_fails(self, capsys):
        assert main(["run", "no-such-preset"]) == 2
        assert "unknown preset" in capsys.readouterr().err


def _malformed(data, key_path, value):
    """``data`` with the value at ``key_path`` (a tuple of keys) replaced."""
    *parents, last = key_path
    target = data
    for key in parents:
        if target.get(key) is None:
            target[key] = {}
        target = target[key]
    target[last] = value
    return data


class TestMalformedSpecFiles:
    """A spec file with a value of the wrong JSON kind exits 2 with one ``error:`` line naming it."""

    @pytest.fixture
    def spec_dict(self):
        return ScenarioSpec(
            name="malformed",
            topology=TopologyProfile(switch_count=8, host_count=60, seed=9),
            traffic=TraceSpec.realistic(total_flows=300, seed=9),
            systems=("openflow",),
            schedule=ScheduleSpec(duration_hours=2.0, bucket_hours=2.0),
        ).to_dict()

    def _assert_error(self, tmp_path, capsys, data, message):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(data), encoding="utf-8")
        assert main(["run", str(path)]) == 2
        assert capsys.readouterr().err.splitlines() == [f"error: {message}"]

    def test_traffic_params_as_a_list(self, tmp_path, capsys, spec_dict):
        data = _malformed(spec_dict, ("traffic", "params"), [1, 2])
        self._assert_error(tmp_path, capsys, data, "spec.traffic.params: expected a JSON object, got list")

    def test_topology_params_as_a_list(self, tmp_path, capsys, spec_dict):
        data = _malformed(spec_dict, ("topology", "params"), [1, 2])
        self._assert_error(tmp_path, capsys, data, "spec.topology.params: expected a JSON object, got list")

    @pytest.mark.parametrize(
        "key_path", [("config", "flow_table", "policy_params"), ("tables", "params")], ids=["home", "legacy"]
    )
    def test_table_params_as_a_list(self, tmp_path, capsys, spec_dict, key_path):
        data = _malformed(spec_dict, key_path, [1, 2])
        message = "spec.config.flow_table.policy_params: expected a JSON object, got list"
        self._assert_error(tmp_path, capsys, data, message)

    def test_a_retired_setting_off_its_constant(self, tmp_path, capsys, spec_dict):
        data = {**spec_dict, "config": {**spec_dict["config"], "regrouping": {"min_interval_seconds": 60}}}
        message = (
            "spec.config.regrouping.min_interval_seconds is no longer a setting: it is fixed at "
            "120.0 (repro.controlplane.grouping_manager.MIN_INTERVAL_SECONDS), got 60"
        )
        self._assert_error(tmp_path, capsys, data, message)

    def test_systems_as_an_object(self, tmp_path, capsys, spec_dict):
        data = _malformed(spec_dict, ("systems",), {"openflow": 1})
        self._assert_error(tmp_path, capsys, data, "spec.systems: expected a JSON array, got dict")

    def test_model_as_a_number(self, tmp_path, capsys, spec_dict):
        data = _malformed(spec_dict, ("traffic", "model"), 5)
        self._assert_error(tmp_path, capsys, data, "spec.traffic.model: expected a string, got 5")

    def test_fractional_total_flows(self, tmp_path, capsys, spec_dict):
        data = _malformed(spec_dict, ("traffic", "params", "total_flows"), 300.5)
        self._assert_error(
            tmp_path, capsys, data,
            "traffic model 'realistic' params.total_flows: expected an integer, got 300.5",
        )

    def test_boolean_switch_count(self, tmp_path, capsys, spec_dict):
        data = _malformed(spec_dict, ("topology", "params", "switch_count"), True)
        self._assert_error(
            tmp_path, capsys, data,
            "topology 'multi-tenant' params.switch_count: expected an integer, got True",
        )

    def test_integral_float_is_an_integer(self, spec_dict):
        data = _malformed(spec_dict, ("traffic", "params", "total_flows"), 300.0)
        assert ScenarioSpec.from_dict(data).traffic.resolved_params().total_flows == 300

    @pytest.mark.parametrize(
        "path",
        [Path(__file__).parent.parent / "examples" / "traffic_mix.json",
         *sorted((Path(__file__).parent / "data" / "legacy_specs").glob("*.json"))],
        ids=lambda path: path.name,
    )
    def test_committed_spec_files_still_load(self, path):
        spec = ScenarioSpec.load(path)
        spec.topology.resolved_params()
        spec.traffic.resolved_params()


class TestChurnFlags:
    def test_churn_rate_flag_enables_churn(self, tmp_path, capsys):
        out_path = tmp_path / "results.json"
        code = main(["run", "paper-fig7", *RUN_SMALL, "--systems", "lazyctrl-dynamic",
                     "--churn-rate", "10", "--churn-seed", "5", "--out", str(out_path)])
        assert code == 0
        assert "Churn events" in capsys.readouterr().out
        result = ScenarioResult.from_dict(json.loads(out_path.read_text()))
        assert result.spec.churn is not None
        assert result.spec.churn.migration_rate_per_hour == 10.0
        assert result.spec.churn.seed == 5
        run = result.runs["lazyctrl-dynamic"]
        assert run.churn is not None and run.churn.migrations > 0

    def test_churn_preset_runs(self, capsys):
        assert main(["run", "churn-migration", *RUN_SMALL]) == 0
        assert "Churn events" in capsys.readouterr().out

    def test_churn_rate_zero_disables_preset_churn(self, tmp_path, capsys):
        out_path = tmp_path / "results.json"
        code = main(["run", "churn-migration", *RUN_SMALL, "--systems", "openflow",
                     "--churn-rate", "0", "--out", str(out_path)])
        assert code == 0
        result = ScenarioResult.from_dict(json.loads(out_path.read_text()))
        # Rates all zero -> inert spec -> no churn block in the run.
        assert result.runs["openflow"].churn is None


class TestBench:
    def test_bench_writes_machine_readable_files(self, tmp_path, capsys):
        code = main(["bench", "--presets", "churn-migration", *RUN_SMALL,
                     "--out-dir", str(tmp_path)])
        assert code == 0
        path = tmp_path / "BENCH_churn-migration.json"
        assert path.is_file()
        payload = json.loads(path.read_text())
        assert payload["scenario"] == "churn-migration"
        for record in payload["systems"].values():
            assert {"total_controller_requests", "grouping_updates", "mean_krps",
                    "churn_events"} <= set(record)
        dynamic = payload["systems"]["lazyctrl-dynamic"]
        assert dynamic["churn_events"] > 0

    def test_bench_unknown_preset_fails(self, tmp_path, capsys):
        assert main(["bench", "--presets", "nope", "--out-dir", str(tmp_path)]) == 2
        assert "unknown preset" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "mode, extra",
        (
            ("serial", []),
            ("pooled", ["--exec", "workers=2,shard-strategy=time-window,shard-count=2"]),
            ("streamed", ["--exec", "stream=true"]),
            ("vectorized", ["--exec", "kernel=vectorized"]),
        ),
    )
    def test_bench_payload_carries_no_timing(self, mode, extra, tmp_path, capsys):
        """A payload is replay arithmetic only; timing is the ledger's job."""
        assert main(["bench", "--presets", "paper-fig7", *RUN_SMALL, *extra,
                     "--out-dir", str(tmp_path)]) == 0
        payload = json.loads((tmp_path / "BENCH_paper-fig7.json").read_text())
        if mode == "pooled":
            assert set(payload["execution"]) >= {"strategy", "pooled", "windows_per_system"}
        else:
            assert "execution" not in payload
        assert "streaming" not in payload
        assert timed_keys(payload) == []
        # Every system replays the identical flow sequence (only the flows
        # inside the --duration-hours window are presented).
        handled = {record["flows_handled"] for record in payload["systems"].values()}
        assert len(handled) == 1 and handled.pop() > 0

    def test_bench_streamed_counters_match_materialized(self, tmp_path, capsys):
        assert main(["bench", "--presets", "paper-fig7", *RUN_SMALL,
                     "--out-dir", str(tmp_path / "mat")]) == 0
        assert main(["bench", "--presets", "paper-fig7", *RUN_SMALL, "--exec", "stream=true",
                     "--out-dir", str(tmp_path / "str")]) == 0
        materialized = json.loads((tmp_path / "mat" / "BENCH_paper-fig7.json").read_text())
        streamed = json.loads((tmp_path / "str" / "BENCH_paper-fig7.json").read_text())
        assert streamed["systems"] == materialized["systems"]

    def test_bench_check_passes_against_self_generated_baseline(self, tmp_path, capsys):
        baseline_dir = tmp_path / "baselines"
        args = ["bench", "--presets", "paper-fig7", *RUN_SMALL]
        assert main([*args, "--out-dir", str(baseline_dir)]) == 0
        code = main([*args, "--out-dir", str(tmp_path / "fresh"),
                     "--check", "--baseline-dir", str(baseline_dir)])
        assert code == 0
        assert "OK: paper-fig7" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "extra",
        (["--exec", "kernel=vectorized"], ["--exec", "kernel=vectorized,stream=true"]),
        ids=("vectorized", "vectorized-streamed"),
    )
    def test_bench_check_holds_the_kernel_under_churn_to_a_scalar_baseline(
        self, extra, tmp_path, capsys
    ):
        """The churn events cut the kernel's batches; its counters and
        per-bucket timelines must equal the scalar run's exactly."""
        baseline_dir = tmp_path / "baselines"
        args = ["bench", "--presets", "churn-migration", *RUN_SMALL]
        assert main([*args, "--out-dir", str(baseline_dir)]) == 0
        scalar = json.loads((baseline_dir / "BENCH_churn-migration.json").read_text())
        assert all(record["churn_events"] > 0 for record in scalar["systems"].values())
        code = main([*args, *extra, "--out-dir", str(tmp_path / "fresh"),
                     "--check", "--baseline-dir", str(baseline_dir)])
        assert code == 0
        assert "OK: churn-migration" in capsys.readouterr().out

    def test_bench_check_fails_on_counter_drift(self, tmp_path, capsys):
        baseline_dir = tmp_path / "baselines"
        args = ["bench", "--presets", "paper-fig7", *RUN_SMALL]
        assert main([*args, "--out-dir", str(baseline_dir)]) == 0
        baseline_path = baseline_dir / "BENCH_paper-fig7.json"
        payload = json.loads(baseline_path.read_text())
        payload["systems"]["openflow"]["total_controller_requests"] += 1
        baseline_path.write_text(json.dumps(payload))
        code = main([*args, "--out-dir", str(tmp_path / "fresh"),
                     "--check", "--baseline-dir", str(baseline_dir)])
        assert code == 1
        err = capsys.readouterr().err
        assert "total_controller_requests" in err
        assert "regenerate" in err

    @pytest.mark.parametrize(
        "path, edit",
        [
            ("systems.openflow.label", lambda record: record.update(label="OpenFIow")),
            (
                "systems.openflow.link_utilization_max",
                lambda record: record["link_utilization_max"].__setitem__(0, -1.0),
            ),
        ],
        ids=["label", "link-utilization-cell"],
    )
    def test_bench_check_fails_on_any_drifted_key(self, path, edit, tmp_path, capsys):
        """Equality gates every key, including ones no hand-kept list named."""
        baseline_dir = tmp_path / "baselines"
        args = ["bench", "--presets", "paper-fig7", *RUN_SMALL, "--uplink-mbps", "0.5"]
        assert main([*args, "--out-dir", str(baseline_dir)]) == 0
        baseline_path = baseline_dir / "BENCH_paper-fig7.json"
        payload = json.loads(baseline_path.read_text())
        edit(payload["systems"]["openflow"])
        baseline_path.write_text(json.dumps(payload))
        capsys.readouterr()
        code = main([*args, "--out-dir", str(tmp_path / "fresh"),
                     "--check", "--baseline-dir", str(baseline_dir)])
        assert code == 1
        failures = [line for line in capsys.readouterr().err.splitlines() if line.startswith("FAIL")]
        assert len(failures) == 1
        assert failures[0].startswith(f"FAIL [paper-fig7]: {path}: ")

    def test_bench_check_ignores_the_execution_block(self, tmp_path, capsys):
        """How a run was executed is not what it computed: a pooled run
        matches the serial baseline, whatever either file records."""
        baseline_dir = tmp_path / "baselines"
        args = ["bench", "--presets", "paper-fig7", *RUN_SMALL]
        assert main([*args, "--out-dir", str(baseline_dir)]) == 0
        baseline_path = baseline_dir / "BENCH_paper-fig7.json"
        payload = json.loads(baseline_path.read_text())
        payload["execution"] = {"workers": 99}
        baseline_path.write_text(json.dumps(payload))
        code = main([*args, "--exec", "workers=2", "--out-dir", str(tmp_path / "fresh"),
                     "--check", "--baseline-dir", str(baseline_dir)])
        assert code == 0
        assert "execution" in json.loads((tmp_path / "fresh" / "BENCH_paper-fig7.json").read_text())

    def test_bench_check_warns_but_passes_on_stale_baseline_in_subset_run(self, tmp_path, capsys):
        baseline_dir = tmp_path / "baselines"
        args = ["bench", "--presets", "paper-fig7", *RUN_SMALL]
        assert main([*args, "--out-dir", str(baseline_dir)]) == 0
        (baseline_dir / "BENCH_ghost.json").write_text("{}")
        code = main([*args, "--out-dir", str(tmp_path / "fresh"),
                     "--check", "--baseline-dir", str(baseline_dir)])
        assert code == 0
        assert "warning: committed baseline" in capsys.readouterr().out

    def test_bench_check_fails_on_stale_baseline_in_full_run(self, tmp_path, capsys):
        baseline_dir = tmp_path / "baselines"
        args = ["bench", *RUN_SMALL]  # full default preset list
        assert main([*args, "--out-dir", str(baseline_dir)]) == 0
        (baseline_dir / "BENCH_removed-scenario.json").write_text("{}")
        code = main([*args, "--out-dir", str(tmp_path / "fresh"),
                     "--check", "--baseline-dir", str(baseline_dir)])
        assert code == 1
        assert "not covered by any benchmark preset" in capsys.readouterr().err

    def test_bench_check_never_flags_smoke_baselines_as_stale(self, tmp_path, capsys):
        """The 10M streaming smoke baseline belongs to its own CI job, so a
        full default bench run must not fail (or warn) on it."""
        baseline_dir = tmp_path / "baselines"
        args = ["bench", *RUN_SMALL]  # full default preset list
        assert main([*args, "--out-dir", str(baseline_dir)]) == 0
        (baseline_dir / "BENCH_paper-fig7-10m.json").write_text("{}")
        code = main([*args, "--out-dir", str(tmp_path / "fresh"),
                     "--check", "--baseline-dir", str(baseline_dir)])
        captured = capsys.readouterr()
        assert code == 0
        assert "paper-fig7-10m" not in captured.err
        assert "paper-fig7-10m" not in captured.out

    def test_bench_check_fails_without_committed_baselines(self, tmp_path, capsys):
        code = main(["bench", "--presets", "paper-fig7", *RUN_SMALL,
                     "--out-dir", str(tmp_path / "fresh"),
                     "--check", "--baseline-dir", str(tmp_path / "missing")])
        assert code == 1
        assert "no committed baseline" in capsys.readouterr().err


class TestProfile:
    def test_profile_prints_stage_breakdown(self, capsys):
        code = main(["profile", "paper-fig7", *RUN_SMALL, "--systems", "lazyctrl-dynamic"])
        assert code == 0
        out = capsys.readouterr().out
        assert "Stage breakdown" in out
        assert "flows/sec" in out
        assert "dissemination" in out
        assert "edge.packets_processed" in out

    def test_profile_writes_snapshots_json(self, tmp_path, capsys):
        out_path = tmp_path / "perf.json"
        code = main(["profile", "paper-fig7", *RUN_SMALL, "--systems", "openflow",
                     "--out", str(out_path)])
        assert code == 0
        snapshots = json.loads(out_path.read_text())
        assert snapshots[0]["system"] == "openflow"
        assert snapshots[0]["perf"]["flows_replayed"] > 0
        assert snapshots[0]["perf"]["wall_seconds"] > 0


class TestCompare:
    def test_compare_saved_results(self, tmp_path, capsys):
        out_path = tmp_path / "results.json"
        assert main(["run", "paper-fig7", *RUN_SMALL, "--out", str(out_path)]) == 0
        capsys.readouterr()
        assert main(["compare", str(out_path)]) == 0
        out = capsys.readouterr().out
        assert "Workload reduction vs OpenFlow" in out

    def test_compare_with_explicit_baseline(self, tmp_path, capsys):
        out_path = tmp_path / "results.json"
        assert main(["run", "paper-fig7", *RUN_SMALL, "--out", str(out_path)]) == 0
        capsys.readouterr()
        assert main(["compare", str(out_path), "--baseline", "lazyctrl-static"]) == 0
        assert "LazyCtrl (static)" in capsys.readouterr().out

    def test_compare_rejects_spec_file_with_helpful_error(self, tmp_path, capsys):
        spec = ScenarioSpec(name="just-a-spec", systems=("openflow",))
        path = spec.save(tmp_path / "spec.json")
        assert main(["compare", str(path)]) == 2
        err = capsys.readouterr().err
        assert "not a results file" in err and "run --out" in err

    def test_compare_unknown_baseline_fails_cleanly(self, tmp_path, capsys):
        out_path = tmp_path / "results.json"
        assert main(["run", "paper-fig7", *RUN_SMALL, "--out", str(out_path)]) == 0
        capsys.readouterr()
        assert main(["compare", str(out_path), "--baseline", "no-such-plane"]) == 2
        assert "no run for 'no-such-plane'" in capsys.readouterr().err

    def test_switch_override_resizes_grouping_config(self, tmp_path, capsys):
        # Shrinking a preset topology must re-run the group-size heuristic,
        # otherwise every switch lands in one group and the comparison is
        # meaningless (0 inter-group flows, fake 100% reduction).
        out_path = tmp_path / "results.json"
        assert main(["run", "paper-fig7", *RUN_SMALL, "--systems", "openflow",
                     "--out", str(out_path)]) == 0
        result = ScenarioResult.from_dict(json.loads(out_path.read_text()))
        assert result.spec.config.grouping.group_size_limit == 4  # max(4, 8 // 6)

    def test_compare_missing_file_fails(self, capsys):
        assert main(["compare", "/definitely/not/here.json"]) == 2

    def test_compare_runs_a_preset_under_the_override_flags(self, monkeypatch, capsys):
        flows = []
        run = ScenarioRunner.run

        def recording_run(self, spec, **options):
            flows.append(spec.traffic.total_flows)
            return run(self, spec, **options)

        monkeypatch.setattr(ScenarioRunner, "run", recording_run)
        assert main(["compare", "paper-fig7", "--flows", "500"]) == 0
        assert flows == [500]
        assert "Workload reduction vs OpenFlow" in capsys.readouterr().out

    def test_compare_refuses_override_flags_on_a_results_file(self, tmp_path, capsys):
        out_path = tmp_path / "results.json"
        assert main(["run", "paper-fig7", *RUN_SMALL, "--out", str(out_path)]) == 0
        capsys.readouterr()
        assert main(["compare", str(out_path), "--flows", "500"]) == 2
        assert "override flags apply to a preset run" in capsys.readouterr().err


class TestOverrideFlags:
    RUN_LIKE = ("run", "profile", "timeline", "heatmap", "bench", "compare")

    @staticmethod
    def flags(command):
        (subparsers,) = [
            action for action in build_parser()._actions
            if isinstance(action, argparse._SubParsersAction)
        ]
        return {
            option
            for action in subparsers.choices[command]._actions
            for option in action.option_strings
        }

    def test_every_run_like_subcommand_takes_every_override_flag(self):
        table = {flag for flag, *_ in OVERRIDE_FLAGS}
        assert len(table) == len(OVERRIDE_FLAGS) == 15
        for command in self.RUN_LIKE:
            assert self.flags(command) >= table, command
        others = {command: self.flags(command) - table for command in self.RUN_LIKE}
        assert others == {
            "run": {"-h", "--help", "--workers", "--out", "--events-out", "--trace-sample"},
            "profile": {"-h", "--help", "--out"},
            "timeline": {"-h", "--help", "--bucket-seconds"},
            "heatmap": {"-h", "--help", "--threshold"},
            "bench": {"-h", "--help", "--presets", "--out-dir", "--check", "--baseline-dir"},
            "compare": {"-h", "--help", "--baseline"},
        }

    def test_no_flag_leaves_the_spec_as_it_is(self):
        (spec,) = get_preset("paper-fig7").specs()
        assert _apply_overrides(spec, build_parser().parse_args(["run", "paper-fig7"])) is spec


class TestCongestionCli:
    def test_heatmap_renders_matrix_and_percentiles(self, capsys):
        assert main(["heatmap", "incast-congestion", "--flows", "2000"]) == 0
        out = capsys.readouterr().out
        assert "legend" in out
        assert "p99 (ms)" in out
        assert "OpenFlow" in out and "LazyCtrl (dynamic)" in out

    def test_heatmap_requires_capacities(self, capsys):
        assert main(["heatmap", "paper-fig7", *RUN_SMALL]) == 2
        err = capsys.readouterr().err
        assert "assigns no link capacities" in err
        assert "--uplink-mbps" in err

    def test_heatmap_with_queueing_but_no_capacities_fails_before_replay(self, capsys):
        assert main(["heatmap", "paper-fig7", *RUN_SMALL, "--queueing-ms", "0.3"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("error: ") == 1
        assert "assigns no link capacities" in captured.err

    def test_uplink_override_capacitates_any_preset(self, tmp_path, capsys):
        out_path = tmp_path / "results.json"
        code = main(["run", "paper-fig7", *RUN_SMALL, "--out", str(out_path),
                     "--uplink-mbps", "0.5", "--queueing-ms", "0.25"])
        assert code == 0
        result = ScenarioResult.from_dict(json.loads(out_path.read_text()))
        assert result.spec.links.uplink_mbps == 0.5
        assert result.spec.config.latency.queueing_service_ms == 0.25
        for run in result.runs.values():
            assert run.links is not None

    def test_compare_preset_shows_latency_percentile_columns(self, capsys):
        assert main(["compare", "failover"]) == 0
        out = capsys.readouterr().out
        assert "p50 (ms)" in out and "p95 (ms)" in out and "p99 (ms)" in out
        # Preset targets are re-run with a timeline, so the cells are numeric.
        assert " - " not in out.split("p99 (ms)")[-1].splitlines()[2]

    def test_compare_saved_results_dash_without_timeline(self, tmp_path, capsys):
        out_path = tmp_path / "results.json"
        assert main(["run", "paper-fig7", *RUN_SMALL, "--out", str(out_path)]) == 0
        capsys.readouterr()
        assert main(["compare", str(out_path)]) == 0
        out = capsys.readouterr().out
        assert "p99 (ms)" in out  # columns stay; untraced runs render "-"

    def test_bench_payload_reports_congestion_keys(self, tmp_path, capsys):
        code = main(["bench", "--presets", "incast-congestion", "--flows", "3000",
                     "--out-dir", str(tmp_path)])
        assert code == 0
        payload = json.loads((tmp_path / "BENCH_incast-congestion.json").read_text())
        for record in payload["systems"].values():
            assert {"congested_flows", "link_congested_cells", "link_peak_utilization",
                    "link_utilization_max", "latency_p50_ms", "latency_p95_ms",
                    "latency_p99_ms"} <= set(record)


class TestBenchBaselineCoverage:
    def test_every_committed_baseline_is_produced_by_a_bench_preset(self):
        """Static stale-baseline tripwire.

        CI's gating bench step may run a preset subset (which only warns on
        uncovered baselines), so this test enforces the invariant directly:
        every committed BENCH_<scenario>.json must correspond to a scenario
        some default bench preset still produces.
        """
        produced = {
            spec.name
            for preset_name in (*BENCH_PRESETS, *SMOKE_BENCH_PRESETS)
            for spec in get_preset(preset_name).specs()
        }
        committed = {path.stem.removeprefix("BENCH_") for path in COMMITTED_BASELINES}
        assert committed, "no committed baselines found — the perf gate is empty"
        assert committed <= produced, (
            f"committed baselines {sorted(committed - produced)} are not produced by "
            f"any default bench preset ({', '.join(BENCH_PRESETS)}); remove the file "
            "or restore its scenario"
        )

    @pytest.mark.parametrize("path", COMMITTED_BASELINES, ids=lambda path: path.stem)
    def test_committed_baseline_records_its_preset_plan(self, path):
        """A baseline's execution block must be the plan its preset makes today.

        Time-window counters depend on the window count, so a baseline
        recorded under another plan gates numbers no ``--check`` run
        reproduces.  A baseline without the block must come from a preset
        that still replays each system whole, in one process.  Checked
        statically: no replay needed.
        """
        payload = json.loads(path.read_text())
        plan = plan_shards(get_preset(payload["preset"]).specs()[0])
        if "execution" in payload:
            recorded = payload["execution"]
            assert (recorded["strategy"], recorded["windows_per_system"]) == (
                plan.strategy, plan.windows_per_system
            ), f"{path.name} records a plan its preset {payload['preset']!r} no longer makes"
        else:
            assert plan.is_serial_per_system and (plan.workers <= 1 or len(plan.shards) <= 1), (
                f"{path.name} records a serial run but its preset {payload['preset']!r} "
                f"now shards ({plan.strategy}, {len(plan.shards)} shards, "
                f"{plan.workers} workers)"
            )

    @pytest.mark.parametrize("path", COMMITTED_BASELINES, ids=lambda path: path.stem)
    def test_committed_baseline_carries_no_timing(self, path):
        """Committed baselines hold exact counters only, like fresh payloads."""
        payload = json.loads(path.read_text())
        assert "streaming" not in payload
        assert timed_keys(payload) == [], f"{path.name} still carries timing keys"
