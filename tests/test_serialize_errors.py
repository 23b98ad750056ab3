"""Tests for strict dataclass deserialization errors.

``dataclass_from_dict`` must reject unknown and missing keys with a
:class:`~repro.common.errors.ConfigurationError` that names the offending
key and the dotted path of the dataclass it belongs to — not surface a bare
``TypeError`` from a constructor several frames down.
"""

import copy
import dataclasses
from typing import Dict, Optional, Tuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import ConfigurationError
from repro.common.serialize import dataclass_from_dict, from_jsonable
from repro.core.scenario import ScenarioSpec


@dataclasses.dataclass(frozen=True)
class Inner:
    value: int
    scale: float = 1.0


@dataclasses.dataclass(frozen=True)
class Outer:
    name: str
    inner: Inner = Inner(value=0)
    window: Optional[Tuple[float, float]] = None


class TestUnknownKeys:
    def test_unknown_key_names_key_and_dataclass(self):
        with pytest.raises(ConfigurationError) as error:
            dataclass_from_dict(Outer, {"name": "x", "nmae": "typo"})
        message = str(error.value)
        assert "'nmae'" in message
        assert "Outer" in message
        assert "valid keys" in message and "name" in message

    def test_nested_unknown_key_reports_dotted_path(self):
        with pytest.raises(ConfigurationError) as error:
            dataclass_from_dict(Outer, {"name": "x", "inner": {"value": 1, "scal": 2.0}})
        message = str(error.value)
        assert "'scal'" in message
        assert "Outer.inner" in message
        assert "Inner" in message

    def test_multiple_unknown_keys_all_reported(self):
        with pytest.raises(ConfigurationError) as error:
            dataclass_from_dict(Outer, {"name": "x", "a": 1, "b": 2})
        assert "'a'" in str(error.value) and "'b'" in str(error.value)

    def test_scenario_spec_typo_reports_spec_path(self):
        data = ScenarioSpec(name="t", systems=("openflow",)).to_dict()
        data["schedule"]["duration_hourz"] = 4.0
        with pytest.raises(ConfigurationError) as error:
            ScenarioSpec.from_dict(data)
        message = str(error.value)
        assert "'duration_hourz'" in message
        assert "spec.schedule" in message


class TestMissingKeys:
    def test_missing_required_key_names_key(self):
        with pytest.raises(ConfigurationError) as error:
            dataclass_from_dict(Outer, {"inner": {"value": 1}})
        message = str(error.value)
        assert "'name'" in message
        assert "missing required key" in message
        assert "Outer" in message

    def test_nested_missing_required_key(self):
        with pytest.raises(ConfigurationError) as error:
            dataclass_from_dict(Outer, {"name": "x", "inner": {"scale": 2.0}})
        message = str(error.value)
        assert "'value'" in message
        assert "Outer.inner" in message

    def test_keys_with_defaults_may_be_omitted(self):
        rebuilt = dataclass_from_dict(Outer, {"name": "x"})
        assert rebuilt == Outer(name="x")


class TestShapeErrors:
    def test_non_mapping_payload_for_dataclass(self):
        with pytest.raises(ConfigurationError, match="expected a JSON object"):
            dataclass_from_dict(Outer, ["not", "a", "dict"])

    def test_path_defaults_to_class_name(self):
        with pytest.raises(ConfigurationError, match="Outer"):
            dataclass_from_dict(Outer, {"name": "x", "oops": 1})

    def test_explicit_path_is_used(self):
        with pytest.raises(ConfigurationError, match="my.custom.path"):
            from_jsonable(Outer, {"name": "x", "oops": 1}, path="my.custom.path")

    @pytest.mark.parametrize(
        "data, message",
        [
            ({"name": "x", "inner": {"value": 1, "scale": [1]}}, "Outer.inner.scale: expected a number"),
            ({"name": "x", "inner": {"value": 1, "scale": True}}, "expected a number, got True"),
            ({"name": "x", "inner": {"value": 1, "scale": "4"}}, "expected a number, got '4'"),
            ({"name": "x", "inner": None}, "Outer.inner: expected a value, got null"),
            ({"name": "x", "window": [1.0]}, "Outer.window: expected an array of 2, got 1"),
            ({"name": "x", "window": [1.0, None]}, r"Outer.window\[1\]: expected a value, got null"),
        ],
    )
    def test_wrong_kinds_and_nulls_are_configuration_errors(self, data, message):
        with pytest.raises(ConfigurationError, match=message):
            dataclass_from_dict(Outer, data)

    def test_null_loads_where_the_default_is_none(self):
        assert dataclass_from_dict(Outer, {"name": "x", "window": None}) == Outer(name="x")

    def test_only_dict_keys_are_revived_from_strings(self):
        assert from_jsonable(Dict[int, float], {"3": 1}) == {3: 1.0}
        with pytest.raises(ConfigurationError, match="expected int keys"):
            from_jsonable(Dict[int, float], {"three": 1})


def _nodes(tree, path=()):
    """Every position in a JSON tree below its root, containers included."""
    if path:
        yield path
    items = tree.items() if isinstance(tree, dict) else enumerate(tree) if isinstance(tree, list) else ()
    for key, value in items:
        yield from _nodes(value, (*path, key))


class TestMutatedPresetSpecs:
    """A spec file with one wrong value anywhere fails as a ConfigurationError.

    Every preset's ``to_dict()`` with one value swapped for one of the wrong
    JSON kind; loading it and what ``run`` resolves before any replay (the
    workload params, the systems, the table policy, the shard plan) either
    works or raises a ConfigurationError — never a TypeError from deep inside.
    """

    @staticmethod
    def trees():
        from repro.core.presets import get_preset, list_presets

        return [spec.to_dict() for entry in list_presets() for spec in get_preset(entry.name).specs()]

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_only_configuration_error_escapes(self, data):
        from repro.core.registry import get_control_plane
        from repro.replay.sharding import plan_shards
        from repro.tables.registry import get_table_policy

        tree = copy.deepcopy(data.draw(st.sampled_from(self.trees())))
        *parents, leaf = data.draw(st.sampled_from(list(_nodes(tree))))
        value = data.draw(st.sampled_from([None, True, 0, -1, 1.5, "4", "x", [], [1.0], [[]], {}, {"a": 1}]))
        node = tree
        for key in parents:
            node = node[key]
        node[leaf] = value
        try:
            spec = ScenarioSpec.from_dict(tree)
            spec.topology.resolved_params()
            spec.traffic.resolved_params()
            for system in spec.systems:
                get_control_plane(system)
            table = spec.config.flow_table
            get_table_policy(table.policy).make_params(table.policy_params)
            plan_shards(spec)
        except ConfigurationError:
            pass

    def test_a_number_written_as_a_string_is_refused(self):
        tree = ScenarioSpec(name="x").to_dict()
        tree["schedule"]["duration_hours"] = "4"
        with pytest.raises(ConfigurationError, match="spec.schedule.duration_hours: expected a number"):
            ScenarioSpec.from_dict(tree)
