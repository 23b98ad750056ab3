"""Pins of what the registries show: preset specs, ``list-*`` output, error strings.

``tests/data/registry_pins`` holds every preset's spec dicts and the stdout
of the four listing subcommands.  Regenerating them is a deliberate act:
drift there changes what a user runs or reads.
"""

import dataclasses
import json
from pathlib import Path

import pytest

from repro.cli import main
from repro.common.errors import ConfigurationError
from repro.core.presets import PRESETS, get_preset, list_presets
from repro.core.registry import get_control_plane, register_control_plane
from repro.tables.registry import get_table_policy, register_table_policy
from repro.topology.registry import get_topology, register_topology
from repro.traffic.registry import get_traffic_model, register_traffic_model

PINS = Path(__file__).parent / "data" / "registry_pins"
PRESET_SPECS = json.loads((PINS / "preset_specs.json").read_text(encoding="utf-8"))


@dataclasses.dataclass(frozen=True)
class _Params:
    seed: int = 1


def _factory(*args, **kwargs):
    raise AssertionError("never built")


class TestPresetSpecs:
    def test_every_preset_is_pinned(self):
        assert sorted(preset.name for preset in list_presets()) == sorted(PRESET_SPECS)

    @pytest.mark.parametrize("name", sorted(PRESET_SPECS))
    def test_spec_dicts_match_the_pin(self, name):
        specs = [json.loads(json.dumps(spec.to_dict())) for spec in get_preset(name).specs()]
        assert specs == PRESET_SPECS[name]


@pytest.mark.parametrize(
    "command",
    ["list-scenarios", "list-traffic-models", "list-topologies", "list-table-policies"],
)
def test_listing_stdout_matches_the_pin(command, capsys):
    assert main([command]) == 0
    assert capsys.readouterr().out == (PINS / f"{command}.txt").read_text(encoding="utf-8")


class TestErrorStrings:
    @pytest.mark.parametrize(
        "lookup, message",
        [
            (
                get_control_plane,
                "unknown control plane 'nope'; registered designs: "
                "lazyctrl-dynamic, lazyctrl-static, openflow",
            ),
            (
                get_traffic_model,
                "unknown traffic model 'nope'; registered models: all-to-all-shuffle, "
                "elephant-mice, incast-hotspot, mix, realistic, synthetic, uniform",
            ),
            (
                get_topology,
                "unknown topology 'nope'; registered shapes: "
                "multi-pod, multi-tenant, paper-real, paper-synthetic, striped",
            ),
            (
                get_table_policy,
                "unknown table policy 'nope'; registered policies: "
                "adaptive, idle-hard-hybrid, lru, static-hard, static-idle",
            ),
            (
                get_preset,
                "unknown preset 'nope'; available presets: capacity-sweep, churn-migration, "
                "churn-tenant-wave, failover, incast-congestion, multi-pod-shuffle, paper-fig7, "
                "paper-fig7-100m, paper-fig7-10m, paper-fig7-expanded, paper-fig7-vectorized, "
                "scale-sweep, striped-antilocal, table-pressure, timeout-sweep, traffic-mix",
            ),
        ],
        ids=["control-plane", "traffic-model", "topology", "table-policy", "preset"],
    )
    def test_unknown_name(self, lookup, message):
        with pytest.raises(ConfigurationError) as caught:
            lookup("nope")
        assert str(caught.value) == message

    @pytest.mark.parametrize(
        "register, name, kwargs, message",
        [
            (register_control_plane, "openflow", {}, "control plane 'openflow'"),
            (register_traffic_model, "realistic", {"params": _Params}, "traffic model 'realistic'"),
            (register_topology, "striped", {"params": _Params}, "topology 'striped'"),
            (register_table_policy, "lru", {"params": _Params}, "table policy 'lru'"),
        ],
        ids=["control-plane", "traffic-model", "topology", "table-policy"],
    )
    def test_duplicate_name(self, register, name, kwargs, message):
        with pytest.raises(ConfigurationError) as caught:
            register(name, **kwargs)(_factory)
        assert str(caught.value).startswith(f"{message} is already registered")

    def test_duplicate_preset(self):
        with pytest.raises(ConfigurationError) as caught:
            PRESETS.register("paper-fig7")(_factory)
        assert str(caught.value) == "preset 'paper-fig7' is already registered"

    @pytest.mark.parametrize(
        "register, kwargs, message",
        [
            (register_control_plane, {}, "control-plane name must be a non-empty string"),
            (register_traffic_model, {"params": _Params}, "traffic-model name must be a non-empty string"),
            (register_topology, {"params": _Params}, "topology name must be a non-empty string"),
            (register_table_policy, {"params": _Params}, "table-policy name must be a non-empty string"),
        ],
        ids=["control-plane", "traffic-model", "topology", "table-policy"],
    )
    def test_blank_name(self, register, kwargs, message):
        with pytest.raises(ConfigurationError) as caught:
            register("  ", **kwargs)
        assert str(caught.value) == message

    @pytest.mark.parametrize(
        "register, kind",
        [
            (register_traffic_model, "traffic model"),
            (register_topology, "topology"),
            (register_table_policy, "table policy"),
        ],
    )
    def test_params_must_be_a_dataclass(self, register, kind):
        with pytest.raises(ConfigurationError) as caught:
            register("bad", params=dict)
        assert str(caught.value) == f"{kind} 'bad' params must be a dataclass type, got {dict!r}"

    @pytest.mark.parametrize(
        "entry, anchor",
        [
            (lambda: get_traffic_model("uniform"), "at traffic model 'uniform' params;"),
            (lambda: get_topology("striped"), "at topology 'striped' params;"),
            (lambda: get_table_policy("adaptive"), "at table policy 'adaptive' params;"),
        ],
        ids=["traffic-model", "topology", "table-policy"],
    )
    def test_unknown_param_names_its_registry(self, entry, anchor):
        with pytest.raises(ConfigurationError) as caught:
            entry().make_params({"nonsense": 1})
        assert str(caught.value).startswith("unknown key 'nonsense' for ")
        assert anchor in str(caught.value)
