"""Compatibility tests: pre-registry spec JSON still loads and runs.

``tests/data/legacy_specs/`` holds the exact JSON the presets produced
before the workload registries existed (``topology`` as a bare profile dict,
``traffic`` with a ``kind`` discriminator).  Those files are frozen — they
must load through the :meth:`ScenarioSpec.from_dict` shim forever, resolve
to the same materialized workload as today's presets, and replay with
identical deterministic counters.
"""

import dataclasses
import json
from pathlib import Path

import pytest

from repro.bandwidth.spec import LinkCapacitySpec
from repro.common.errors import ConfigurationError
from repro.core.presets import get_preset
from repro.core.runner import ScenarioRunner
from repro.core.scenario import ScenarioSpec, ScheduleSpec, TopologySpec, TraceSpec

LEGACY_DIR = Path(__file__).parent / "data" / "legacy_specs"
LEGACY_FILES = sorted(LEGACY_DIR.glob("*.json"))
#: Every preset's spec dicts as pinned while a setting could live in two
#: places (a ``tables`` overlay, queueing in ``links``, topology ``uplink_mbps``).
LEGACY_PRESET_SPECS = json.loads(
    (Path(__file__).parent / "data" / "legacy_preset_specs.json").read_text(encoding="utf-8")
)

#: legacy file stem -> (preset name, index of the spec inside the preset)
LEGACY_TO_PRESET = {
    "paper-fig7": ("paper-fig7", 0),
    "paper-fig7-expanded": ("paper-fig7-expanded", 0),
    "failover": ("failover", 0),
    "churn-migration": ("churn-migration", 0),
    "churn-tenant-wave": ("churn-tenant-wave", 0),
    "scale-sweep-16sw": ("scale-sweep", 0),
    "scale-sweep-32sw": ("scale-sweep", 1),
    "scale-sweep-64sw": ("scale-sweep", 2),
}


def test_fixture_directory_is_populated():
    assert len(LEGACY_FILES) == len(LEGACY_TO_PRESET)


@pytest.mark.parametrize("path", LEGACY_FILES, ids=lambda p: p.stem)
class TestLegacySpecLoading:
    def test_loads_through_the_shim(self, path):
        spec = ScenarioSpec.from_json(path.read_text())
        legacy = json.loads(path.read_text())
        assert spec.name == legacy["name"]
        assert spec.topology.shape == "multi-tenant"
        assert spec.traffic.model == legacy["traffic"]["kind"]

    def test_round_trips_in_the_modern_shape(self, path):
        spec = ScenarioSpec.from_json(path.read_text())
        assert ScenarioSpec.from_dict(spec.to_dict()) == spec
        assert "kind" not in spec.to_dict()["traffic"]

    def test_resolves_to_the_same_workload_as_todays_preset(self, path):
        legacy_spec = ScenarioSpec.from_json(path.read_text())
        preset_name, index = LEGACY_TO_PRESET[path.stem]
        modern_spec = get_preset(preset_name).specs()[index]
        # The params dicts may be sparse vs. fully spelled out; the resolved
        # dataclasses are the ground truth for "same workload".
        assert legacy_spec.topology.resolved_params() == modern_spec.topology.resolved_params()
        assert legacy_spec.traffic.resolved_params() == modern_spec.traffic.resolved_params()
        assert legacy_spec.traffic.expand_fraction == modern_spec.traffic.expand_fraction
        assert legacy_spec.systems == modern_spec.systems
        assert legacy_spec.schedule == modern_spec.schedule
        assert legacy_spec.config == modern_spec.config
        assert legacy_spec.failures == modern_spec.failures
        assert legacy_spec.churn == modern_spec.churn


class TestLegacySpecRuns:
    def test_legacy_json_runs_with_identical_counters_to_modern_spec(self):
        legacy = json.loads((LEGACY_DIR / "paper-fig7.json").read_text())
        # Shrink the frozen legacy payload (old shape!) so the replay takes
        # ~a second, then run it against the equivalent modern spec.
        legacy["topology"].update(switch_count=8, host_count=60)
        legacy["traffic"]["realistic"].update(total_flows=600)
        legacy["systems"] = ["openflow", "lazyctrl-dynamic"]
        legacy_spec = ScenarioSpec.from_dict(legacy)
        legacy_spec = dataclasses.replace(
            legacy_spec, schedule=ScheduleSpec(duration_hours=4.0, bucket_hours=2.0)
        )

        # The same workload written natively against the new API, with sparse
        # params (defaults filled by the registry, not spelled out in JSON).
        modern_spec = ScenarioSpec(
            name=legacy_spec.name,
            topology=TopologySpec(
                shape="multi-tenant",
                params={"switch_count": 8, "host_count": 60, "seed": 2015},
            ),
            traffic=TraceSpec.realistic(total_flows=600, seed=2015),
            systems=legacy_spec.systems,
            schedule=legacy_spec.schedule,
            config=legacy_spec.config,
        )
        legacy_result = ScenarioRunner().run(legacy_spec)
        modern_result = ScenarioRunner().run(modern_spec)
        for name in legacy_result.runs:
            legacy_run = legacy_result.runs[name]
            modern_run = modern_result.runs[name]
            assert legacy_run.total_controller_requests == modern_run.total_controller_requests
            assert legacy_run.counters == modern_run.counters

    def test_legacy_synthetic_shape_loads_and_builds(self):
        legacy = {
            "name": "legacy-synthetic",
            "topology": {"switch_count": 6, "host_count": 40, "seed": 3},
            "traffic": {
                "kind": "synthetic",
                "realistic": None,
                "synthetic": {
                    "name": "syn-legacy",
                    "concentrated_flow_fraction": 0.9,
                    "concentrated_pair_fraction": 0.1,
                    "total_flows": 400,
                    "duration_hours": 24,
                    "seed": 3,
                },
                "expand_fraction": 0.0,
                "expand_window_hours": [8.0, 24.0],
                "expand_seed": 3,
            },
            "systems": ["openflow"],
        }
        spec = ScenarioSpec.from_dict(legacy)
        assert spec.traffic.model == "synthetic"
        trace = spec.build_trace(spec.build_network())
        assert len(trace) == 400


class TestLegacyExecutionKeys:
    def test_chunk_flows_written_before_pr21_is_dropped_on_load(self):
        """Spec, result and baseline JSON that carries the removed knob still loads."""
        modern = get_preset("paper-fig7").specs()[0]
        legacy = modern.to_dict()
        legacy["execution"] = {**legacy["execution"], "chunk_flows": 4096, "stream": True}
        spec = ScenarioSpec.from_dict(legacy)
        assert spec.execution == dataclasses.replace(modern.execution, stream=True)
        assert "chunk_flows" not in spec.to_dict()["execution"]
        # A genuinely unknown execution key is still an error.
        legacy["execution"]["chunk_rows"] = 1
        with pytest.raises(ConfigurationError, match="unknown key 'chunk_rows'"):
            ScenarioSpec.from_dict(legacy)

    def test_group_broadcast_ms_of_the_removed_arp_levels_is_dropped_on_load(self):
        """Spec JSON that still prices the per-packet ARP levels loads unchanged."""
        modern = get_preset("paper-fig7").specs()[0]
        legacy = modern.to_dict()
        legacy["config"]["latency"]["group_broadcast_ms"] = 0.3
        spec = ScenarioSpec.from_dict(legacy)
        assert spec == modern
        assert "group_broadcast_ms" not in spec.to_dict()["config"]["latency"]
        # A genuinely unknown latency key is still an error.
        legacy["config"]["latency"]["group_flood_ms"] = 0.3
        with pytest.raises(ConfigurationError, match="unknown key 'group_flood_ms'"):
            ScenarioSpec.from_dict(legacy)


@pytest.mark.parametrize("name", sorted(LEGACY_PRESET_SPECS))
def test_preset_specs_pinned_with_second_homes_load_as_todays_preset(name):
    legacy = [ScenarioSpec.from_dict(data) for data in LEGACY_PRESET_SPECS[name]]
    assert legacy == list(get_preset(name).specs())


class TestSettingsFoldIntoTheirHome:
    """A setting written in its old second place folds into its one home on load."""

    @staticmethod
    def load(topology_params, links=None, shape="multi-tenant"):
        data = {"name": "legacy", "topology": {"shape": shape, "params": topology_params}}
        if links is not None:
            data["links"] = links
        return ScenarioSpec.from_dict(data)

    def test_topology_uplink_folds_into_links(self):
        for shape in ("multi-tenant", "paper-real", "paper-synthetic", "striped", "multi-pod"):
            spec = self.load({"uplink_mbps": 2.0}, shape=shape)
            assert spec.links == LinkCapacitySpec(uplink_mbps=2.0), shape
            assert spec.topology.params == {}, shape

    def test_bare_profile_uplink_folds_into_links(self):
        spec = ScenarioSpec.from_dict(
            {"name": "legacy", "topology": {"switch_count": 4, "host_count": 20, "uplink_mbps": 1.5}}
        )
        assert spec.links == LinkCapacitySpec(uplink_mbps=1.5)
        network = spec.build_network()
        assert network.link_capacities_mbps() == {switch_id: 1.5 for switch_id in range(4)}

    def test_links_capacity_wins_over_the_topology(self):
        spec = self.load({"uplink_mbps": 2.0}, links={"uplink_mbps": 5.0})
        assert spec.links == LinkCapacitySpec(uplink_mbps=5.0)

    def test_topology_uplink_fills_a_null_links_capacity(self):
        spec = self.load({"uplink_mbps": 2.0}, links={"uplink_mbps": None})
        assert spec.links == LinkCapacitySpec(uplink_mbps=2.0)

    def test_null_second_homes_are_dropped(self):
        spec = self.load(
            {"uplink_mbps": None},
            links={"queueing_service_ms": None, "utilization_cap": None},
        )
        assert spec.links == LinkCapacitySpec()
        assert spec.config == ScenarioSpec(name="legacy").config
        assert ScenarioSpec.from_dict({"name": "legacy", "tables": None}) == ScenarioSpec(name="legacy")

    def test_a_third_party_shape_keeps_its_own_uplink_param(self):
        spec = self.load({"uplink_mbps": 2.0}, shape="plugin-shape-not-loaded")
        assert spec.topology.params == {"uplink_mbps": 2.0}
        assert spec.links is None
