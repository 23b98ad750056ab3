"""Pins what every preset runs with, wherever its spec writes each setting.

``tests/data/registry_pins/resolved_state.json`` holds, for every spec of
every preset, the system config the replay reads and the capacity of every
edge uplink of the built network.  A change
that only moves a setting to another part of the spec must leave this pin
untouched; drift here changes what a preset replays.
"""

import json
from pathlib import Path

import pytest

from repro.common.serialize import dataclass_to_dict
from repro.core.presets import get_preset, list_presets

PIN = Path(__file__).parent / "data" / "registry_pins" / "resolved_state.json"
RESOLVED_STATE = json.loads(PIN.read_text(encoding="utf-8"))


def resolved_state(spec):
    """The JSON-shaped state a run of ``spec`` starts from."""
    network = spec.build_network()
    return {
        "name": spec.name,
        "config": dataclass_to_dict(spec.effective_config()),
        "uplink_mbps": {
            str(switch_id): mbps for switch_id, mbps in network.link_capacities_mbps().items()
        },
    }


def test_every_preset_is_pinned():
    assert sorted(preset.name for preset in list_presets()) == sorted(RESOLVED_STATE)


@pytest.mark.parametrize("name", sorted(RESOLVED_STATE))
def test_preset_resolves_to_the_pinned_state(name):
    resolved = [json.loads(json.dumps(resolved_state(spec))) for spec in get_preset(name).specs()]
    assert resolved == RESOLVED_STATE[name]
