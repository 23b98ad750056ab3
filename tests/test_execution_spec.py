"""The ExecutionSpec API surface: validation, parsing, and the legacy-JSON upgrade."""

import dataclasses
import json

import pytest
from hypothesis import given, settings, strategies as st

from repro.common.errors import ConfigurationError
from repro.core.scenario import ScenarioSpec, ScheduleSpec, TraceSpec
from repro.replay.spec import SHARD_STRATEGIES, ExecutionSpec
from repro.topology.builder import TopologyProfile


def tiny_spec(name="exec-test", **overrides):
    defaults = dict(
        name=name,
        topology=TopologyProfile(switch_count=6, host_count=48, seed=11),
        traffic=TraceSpec.realistic(total_flows=300, seed=11),
        systems=("openflow",),
        schedule=ScheduleSpec(duration_hours=2.0, bucket_hours=2.0),
    )
    defaults.update(overrides)
    return ScenarioSpec(**defaults)


class TestExecutionSpec:
    def test_defaults_are_the_serial_path(self):
        spec = ExecutionSpec()
        assert spec.workers == 1
        assert spec.shard_strategy == "system"
        assert spec.shard_count == 0
        assert spec.stream is False
        assert spec.kernel == "scalar"

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"workers": 0},
            {"workers": -1},
            {"shard_strategy": "typo"},
            {"shard_count": -1},
            {"kernel": "simd"},
        ],
    )
    def test_validation_rejects_bad_values(self, kwargs):
        with pytest.raises(ConfigurationError):
            ExecutionSpec(**kwargs)

    @pytest.mark.parametrize(
        "key, value",
        [
            ("workers", 2.7),
            ("workers", True),
            ("workers", "2"),
            ("workers", None),
            ("shard_count", 1.5),
            ("shard_count", False),
            ("stream", "no"),
            ("stream", 1),
        ],
    )
    def test_validation_rejects_wrong_types(self, key, value):
        with pytest.raises(ConfigurationError, match=f"execution key '{key}'"):
            ExecutionSpec(**{key: value})

    def test_dict_round_trip(self):
        spec = ExecutionSpec(
            workers=4,
            shard_strategy="time-window",
            shard_count=8,
            stream=True,
            kernel="vectorized",
        )
        assert ExecutionSpec.from_dict(spec.to_dict()) == spec
        # to_dict must be JSON-serializable as-is.
        assert ExecutionSpec.from_dict(json.loads(json.dumps(spec.to_dict()))) == spec


class TestExecutionSpecParse:
    def test_key_value_pairs_with_dashes(self):
        spec = ExecutionSpec.parse("workers=4,shard-strategy=time-window,shard-count=8,stream=true")
        assert spec == ExecutionSpec(
            workers=4, shard_strategy="time-window", shard_count=8, stream=True
        )

    def test_underscores_also_accepted(self):
        assert ExecutionSpec.parse("shard_count=3").shard_count == 3

    def test_kernel_key(self):
        assert ExecutionSpec.parse("kernel=vectorized").kernel == "vectorized"
        with pytest.raises(ConfigurationError, match="kernel"):
            ExecutionSpec.parse("kernel=simd")

    def test_json_object(self):
        spec = ExecutionSpec.parse('{"workers": 2, "stream": true}')
        assert spec == ExecutionSpec(workers=2, stream=True)

    def test_base_keeps_unmentioned_keys(self):
        base = ExecutionSpec(workers=4, shard_strategy="time-window", shard_count=8)
        spec = ExecutionSpec.parse("workers=1", base=base)
        assert spec == dataclasses.replace(base, workers=1)

    @pytest.mark.parametrize("word,expected", [("yes", True), ("off", False), ("1", True)])
    def test_bool_words(self, word, expected):
        assert ExecutionSpec.parse(f"stream={word}").stream is expected

    @pytest.mark.parametrize(
        "text",
        [
            "",
            "workers",
            "workers=two",
            "unknown-key=1",
            "chunk-flows=1",  # a key until PR 21
            "stream=maybe",
            '{"workers": 4',
            '["workers"]',
        ],
    )
    def test_parse_errors_are_configuration_errors(self, text):
        with pytest.raises(ConfigurationError):
            ExecutionSpec.parse(text)

    def test_unknown_key_error_lists_valid_keys(self):
        with pytest.raises(ConfigurationError, match="shard-strategy"):
            ExecutionSpec.parse("sharding=time-window")

    def test_the_removed_chunk_flows_key_is_an_unknown_key(self, capsys):
        from repro.cli import main

        valid = "kernel, shard-count, shard-strategy, stream, workers"
        message = f"unknown execution key 'chunk-flows'; valid keys: {valid}"
        with pytest.raises(ConfigurationError, match=f"^{message}$"):
            ExecutionSpec.parse("chunk-flows=1")
        assert main(["run", "paper-fig7", "--flows", "50", "--exec", "chunk-flows=1"]) == 2
        assert capsys.readouterr().err.strip() == f"error: {message}"
        assert len(dataclasses.fields(ExecutionSpec)) == 5

    def test_parsed_spec_is_still_validated(self):
        with pytest.raises(ConfigurationError):
            ExecutionSpec.parse("workers=0")

    @pytest.mark.parametrize(
        "text, key",
        [
            ('{"workers": 2.7}', "workers"),
            ('{"shard_count": 1.5}', "shard_count"),
            ('{"workers": true}', "workers"),
            ("workers=2.7", "workers"),
        ],
    )
    def test_a_fractional_count_is_rejected_not_truncated(self, text, key):
        with pytest.raises(ConfigurationError, match=key.replace("_", "[-_]")):
            ExecutionSpec.parse(text)

    def test_json_strings_are_parsed_as_key_value_words(self):
        assert ExecutionSpec.parse('{"workers": "3", "stream": "yes"}') == ExecutionSpec(workers=3, stream=True)


class TestBadExecutionInputAtTheCli:
    """Each ends as one ``error:`` line and exit 2, before anything replays."""

    def run(self, argv, capsys):
        from repro.cli import main

        code = main(argv)
        return code, capsys.readouterr().err.strip().splitlines()

    def test_exec_json_with_a_fractional_worker_count(self, capsys):
        code, err = self.run(["run", "paper-fig7", "--flows", "50", "--exec", '{"workers": 2.7}'], capsys)
        assert code == 2
        assert err == ["error: execution key 'workers' expects an integer, got 2.7"]

    @pytest.mark.parametrize(
        "execution, message",
        [
            (
                {"workers": 2.5, "shard_strategy": "time-window"},
                "execution key 'workers' expects an integer, got 2.5",
            ),
            ({"stream": "no"}, "execution key 'stream' expects a boolean, got 'no'"),
        ],
    )
    def test_spec_file_with_a_wrongly_typed_execution_block(self, tmp_path, capsys, execution, message):
        data = tiny_spec().to_dict()
        data["execution"] = execution
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(data), encoding="utf-8")
        code, err = self.run(["run", str(path)], capsys)
        assert code == 2
        assert err == [f"error: {message}"]


#: Any JSON value: what a spec file or an ``--exec`` object may hold.
json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 2**40) | st.floats() | st.text(max_size=12),
    lambda children: st.lists(children, max_size=3) | st.dictionaries(st.text(max_size=6), children, max_size=3),
    max_leaves=6,
)
FIELDS = [field.name for field in dataclasses.fields(ExecutionSpec)]
execution_keys = st.sampled_from(FIELDS + ["shard-count", "Workers", "chunk_flows"]) | st.text(max_size=8)
execution_values = json_values | st.sampled_from(["time-window", "vectorized", "4", "yes"])
execution_blocks = st.dictionaries(execution_keys, execution_values, max_size=5)


def well_typed(spec):
    return (
        type(spec.workers) is int and spec.workers >= 1
        and type(spec.shard_count) is int and spec.shard_count >= 0
        and type(spec.stream) is bool
        and spec.shard_strategy in SHARD_STRATEGIES
        and spec.kernel in ("scalar", "vectorized")
    )


class TestExecutionFuzz:
    """Whatever the ``execution`` input, a well-typed spec or a ``ConfigurationError``."""

    @given(
        text=st.text(max_size=40)
        | execution_blocks.map(json.dumps)
        | st.lists(st.tuples(execution_keys, st.text(max_size=8)), max_size=4).map(
            lambda pairs: ",".join(f"{key}={value}" for key, value in pairs)
        )
    )
    @settings(max_examples=300, deadline=None)
    def test_parse(self, text):
        try:
            spec = ExecutionSpec.parse(text)
        except ConfigurationError:
            return
        assert well_typed(spec)

    @given(block=execution_blocks)
    @settings(max_examples=300, deadline=None)
    def test_from_dict(self, block):
        try:
            spec = ExecutionSpec.from_dict(block)
        except ConfigurationError:
            return
        assert well_typed(spec)

    @given(block=execution_blocks | json_values)
    @settings(max_examples=200, deadline=None)
    def test_scenario_spec_from_dict(self, block):
        data = tiny_spec().to_dict()
        data["execution"] = block
        try:
            spec = ScenarioSpec.from_dict(data)
        except ConfigurationError:
            return
        assert well_typed(spec.execution)


class TestScenarioSpecExecution:
    def test_spec_carries_default_execution(self):
        assert tiny_spec().execution == ExecutionSpec()

    def test_stream_property_reads_execution(self):
        spec = tiny_spec(execution=ExecutionSpec(stream=True))
        assert spec.stream is True

    def test_replace_with_new_execution_is_preserved(self):
        """Regression: ``dataclasses.replace`` must not resurrect the old
        stream flag over a freshly supplied execution spec."""
        spec = tiny_spec()
        replaced = dataclasses.replace(spec, execution=ExecutionSpec(workers=2, stream=True))
        assert replaced.execution == ExecutionSpec(workers=2, stream=True)

    def test_property_read_is_silent(self, recwarn):
        spec = tiny_spec()
        assert spec.stream is False
        assert not [w for w in recwarn.list if issubclass(w.category, DeprecationWarning)]

    def test_serialized_spec_has_execution_not_stream(self):
        data = tiny_spec(execution=ExecutionSpec(stream=True)).to_dict()
        assert "stream" not in data
        assert data["execution"]["stream"] is True

    def test_legacy_json_with_stream_key_loads(self):
        data = tiny_spec().to_dict()
        del data["execution"]
        data["stream"] = True
        spec = ScenarioSpec.from_dict(data)
        assert spec.execution == ExecutionSpec(stream=True)


class TestStrategies:
    def test_registered_strategies(self):
        assert SHARD_STRATEGIES == ("system", "time-window")
