"""A census of the settings a scenario spec carries: every one is read and set.

A leaf of :class:`~repro.core.scenario.ScenarioSpec`'s dataclass tree is a
setting a user can write.  One that the library validates and serializes but
never reads is a knob that does nothing, so each leaf's name must be read as
an attribute somewhere in ``src/repro`` outside a ``__post_init__`` (where
only validation happens).  One that nothing sets off its default is a
constant in disguise, so each leaf must be set by a registered preset, or be
passed by keyword from the CLI, a benchmark or an example.  Spec JSON that
still carries a retired setting loads as if the key were absent when it
holds the value of the constant that replaced it, and is refused otherwise.
"""

import ast
import dataclasses
import re
import typing
from pathlib import Path

import pytest

from repro.bandwidth.spec import LinkCapacitySpec
from repro.churn.spec import ChurnSpec
from repro.common.errors import ConfigurationError
from repro.common.serialize import field_type
from repro.core.presets import list_presets
from repro.core.scenario import ScenarioSpec

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "repro"


def spec_leaves(cls, prefix=""):
    """``(dotted path, field name)`` of every non-dataclass field under ``cls``."""
    leaves = []
    for field in dataclasses.fields(cls):
        hint = field_type(cls, field.name)
        inner = [arg for arg in typing.get_args(hint) if arg is not type(None)]
        if typing.get_origin(hint) is typing.Union and len(inner) == 1:
            hint = inner[0]
        if dataclasses.is_dataclass(hint):
            leaves += spec_leaves(hint, f"{prefix}{field.name}.")
        else:
            leaves.append((prefix + field.name, field.name))
    return leaves


def attributes_read(root):
    """Every attribute name loaded in ``root``'s modules outside a ``__post_init__``."""
    names = set()
    for path in root.rglob("*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        validation = {
            id(node)
            for function in ast.walk(tree)
            if isinstance(function, ast.FunctionDef) and function.name == "__post_init__"
            for node in ast.walk(function)
        }
        names.update(
            node.attr
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and isinstance(node.ctx, ast.Load)
            and id(node) not in validation
        )
    return names


def leaves_set_off_default(spec, prefix=""):
    """Dotted paths of the leaves under ``spec`` whose value is not their field's default."""
    paths = set()
    for field in dataclasses.fields(spec):
        value = getattr(spec, field.name)
        if dataclasses.is_dataclass(value):
            paths |= leaves_set_off_default(value, f"{prefix}{field.name}.")
            continue
        if field.default is not dataclasses.MISSING:
            default = field.default
        elif field.default_factory is not dataclasses.MISSING:
            default = field.default_factory()
        else:
            continue  # required: every spec sets it
        if value != default:
            paths.add(prefix + field.name)
    return paths


def keywords_passed(paths):
    """Every keyword-argument name passed in the modules at ``paths``."""
    return {
        node.arg
        for path in paths
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.keyword) and node.arg is not None
    }


LEAVES = spec_leaves(ScenarioSpec)


def test_the_spec_has_38_settings():
    assert len(LEAVES) == 38


def test_every_setting_is_read_somewhere():
    read = attributes_read(SRC)
    assert [path for path, name in LEAVES if name not in read] == []


def test_every_setting_has_a_user():
    preset_set = set()
    for preset in list_presets():
        for spec in preset.specs():
            preset_set |= leaves_set_off_default(spec)
    callers = [SRC / "cli.py", *ROOT.glob("benchmarks/**/*.py"), *ROOT.glob("examples/*.py")]
    passed = keywords_passed(callers)
    assert [path for path, name in LEAVES if path not in preset_set and name not in passed] == []


#: Every retired setting: (path, the value it is fixed at).  The five that
#: were never read load as absent at any value; the others only at theirs.
NEVER_READ = (
    (("execution", "chunk_flows"), 4096),
    (("config", "latency", "group_broadcast_ms"), 0.3),
    (("config", "grouping", "imbalance_tolerance"), 0.05),
    (("config", "regrouping", "underload_threshold_rps"), 1500.0),
    (("config", "state_report_interval_seconds"), 5.0),
)
FIXED = (
    (("schedule", "warmup_hours"), 1.0),
    (("traffic", "expand_window_hours"), [8.0, 24.0]),
    (("config", "grouping", "coarsening_threshold"), 64),
    (("config", "grouping", "refinement_passes"), 8),
    (("config", "grouping", "restarts"), 3),
    (("config", "regrouping", "workload_growth_trigger"), 0.3),
    (("config", "regrouping", "min_interval_seconds"), 120.0),
    (("config", "regrouping", "max_interval_seconds"), 7200.0),
    (("config", "regrouping", "overload_threshold_rps"), 4000.0),
    (("config", "regrouping", "churn_event_trigger"), 25),
    (("config", "latency", "datapath_lookup_ms"), 0.03),
    (("config", "latency", "encapsulation_ms"), 0.05),
    (("config", "latency", "underlay_hop_ms"), 0.25),
    (("config", "latency", "host_link_ms"), 0.25),
    (("config", "latency", "controller_rtt_ms"), 2.0),
    (("config", "latency", "controller_base_processing_ms"), 1.2),
    (("config", "latency", "controller_per_krps_penalty_ms"), 1.4),
    (("config", "latency", "arp_flood_ms"), 4.0),
    (("config", "latency", "queueing_utilization_cap"), 0.95),
    (("config", "flow_table", "sweep_interval_seconds"), 300.0),
    (("config", "keepalive_interval_seconds"), 1.0),
    (("churn", "drift_batch_size"), 4),
    (("churn", "tenant_size_range"), [20, 40]),
    (("links", "window_seconds"), 300.0),
)
RETIRED = NEVER_READ + FIXED


def _ids(rows):
    return [".".join(path) for path, _ in rows]


#: A spec that has every section a retired setting lived in.
SPEC = ScenarioSpec(name="census", churn=ChurnSpec(), links=LinkCapacitySpec())


def with_setting(path, value):
    """:data:`SPEC`'s JSON with ``value`` written at ``path`` (sections created as needed)."""
    data = SPEC.to_dict()
    *sections, key = path
    target = data
    for section in sections:
        target = target.setdefault(section, {})
    assert key not in target
    target[key] = value
    return data


@pytest.mark.parametrize("path, value", RETIRED, ids=_ids(RETIRED))
def test_a_retired_setting_at_its_value_loads_as_if_absent(path, value):
    assert ScenarioSpec.from_dict(with_setting(path, value)) == SPEC
    assert ScenarioSpec.from_dict(with_setting(path, None)) == SPEC


@pytest.mark.parametrize("path, value", NEVER_READ, ids=_ids(NEVER_READ))
def test_a_never_read_setting_loads_as_absent_at_any_value(path, value):
    assert ScenarioSpec.from_dict(with_setting(path, value * 2)) == SPEC


@pytest.mark.parametrize("path, value", FIXED, ids=_ids(FIXED))
def test_a_retired_setting_at_another_value_is_refused(path, value):
    other = [item * 2 for item in value] if isinstance(value, list) else value * 2
    message = re.escape(f"spec.{'.'.join(path)} is no longer a setting: it is fixed at ")
    with pytest.raises(ConfigurationError, match=message):
        ScenarioSpec.from_dict(with_setting(path, other))


def test_a_retired_section_with_a_stray_key_is_still_refused():
    with pytest.raises(ConfigurationError, match="unknown key 'regrouping'"):
        ScenarioSpec.from_dict(with_setting(("config", "regrouping", "min_interval"), 60.0))
