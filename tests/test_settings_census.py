"""A census of the settings a scenario spec carries: every one is read.

A leaf of :class:`~repro.core.scenario.ScenarioSpec`'s dataclass tree is a
setting a user can write.  One that the library validates and serializes but
never reads is a knob that does nothing, so each leaf's name must be read as
an attribute somewhere in ``src/repro`` outside a ``__post_init__`` (where
only validation happens).  Spec JSON that still carries a removed setting
loads as if the key were absent.
"""

import ast
import dataclasses
import typing
from pathlib import Path

import pytest

from repro.core.scenario import ScenarioSpec

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"


def spec_leaves(cls, prefix=""):
    """``(dotted path, field name)`` of every non-dataclass field under ``cls``."""
    hints = typing.get_type_hints(cls)
    leaves = []
    for field in dataclasses.fields(cls):
        hint = hints[field.name]
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


LEAVES = spec_leaves(ScenarioSpec)


def test_the_spec_has_62_settings():
    assert len(LEAVES) == 62


def test_every_setting_is_read_somewhere():
    read = attributes_read(SRC)
    assert [path for path, name in LEAVES if name not in read] == []


#: Settings that were validated and serialized but never read, as (path, value).
REMOVED = (
    (("config", "grouping", "imbalance_tolerance"), 0.05),
    (("config", "regrouping", "underload_threshold_rps"), 1500.0),
    (("config", "state_report_interval_seconds"), 5.0),
)


@pytest.mark.parametrize("path, value", REMOVED, ids=[".".join(path) for path, _ in REMOVED])
def test_a_removed_setting_loads_as_if_absent(path, value):
    spec = ScenarioSpec(name="census")
    data = spec.to_dict()
    *sections, key = path
    target = data
    for section in sections:
        target = target[section]
    assert key not in target
    target[key] = value
    assert ScenarioSpec.from_dict(data) == spec
