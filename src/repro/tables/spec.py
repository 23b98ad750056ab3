"""Spec-level description of finite flow tables.

A :class:`TableSpec` is the declarative overlay a scenario puts on top of
the system config's :class:`~repro.common.config.FlowTableConfig`: which
capacity to give every edge switch, which registered timeout/eviction
policy to run, and the policy's raw params.  Like the other registry-backed
specs it is frozen, JSON-round-trippable, and resolves its registry entry
lazily, so specs referencing third-party policies can be built before the
plugin module is imported.

Fields left at ``None`` inherit the underlying config's value, which is
what lets presets say just "capacity 256, idle-hard-hybrid" without
restating every timeout knob.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Any, Dict, Optional

from repro.common.config import FlowTableConfig, LazyCtrlConfig
from repro.common.errors import ConfigurationError
from repro.common.registry import Entry
from repro.common.serialize import to_jsonable
from repro.tables.registry import get_table_policy


@dataclass(frozen=True, slots=True)
class TableSpec:
    """Finite-table overlay: capacity, policy name, and policy params.

    ``capacity`` / ``idle_timeout_seconds`` / ``hard_timeout_seconds`` /
    ``sweep_interval_seconds`` override the corresponding
    :class:`~repro.common.config.FlowTableConfig` fields when set; ``policy``
    names an entry of :mod:`repro.tables.registry` and ``params`` is the raw
    mapping validated into that policy's params dataclass when tables are
    built.
    """

    capacity: Optional[int] = None
    policy: str = "static-idle"
    params: Dict[str, Any] = field(default_factory=dict)
    idle_timeout_seconds: Optional[float] = None
    hard_timeout_seconds: Optional[float] = None
    sweep_interval_seconds: Optional[float] = None

    def __post_init__(self) -> None:
        if not self.policy or not self.policy.strip():
            raise ConfigurationError("table policy must be a non-empty string")
        if self.capacity is not None and self.capacity <= 0:
            raise ConfigurationError("table capacity must be positive")
        object.__setattr__(self, "params", dict(to_jsonable(dict(self.params))))

    # -- registry resolution -------------------------------------------------

    def entry(self) -> Entry:
        """The registry entry this spec references (raises on unknown policy)."""
        return get_table_policy(self.policy)

    def resolved_params(self) -> Any:
        """The params dict validated into the policy's params dataclass."""
        return self.entry().make_params(self.params)

    # -- application ---------------------------------------------------------

    def apply(self, config: LazyCtrlConfig) -> LazyCtrlConfig:
        """``config`` with this overlay folded into its ``flow_table``.

        The eviction batch is clamped to the (possibly much smaller) new
        capacity so a preset shrinking the table never trips the
        batch-exceeds-capacity validation.
        """
        table = config.flow_table
        capacity = table.capacity if self.capacity is None else self.capacity
        updated = FlowTableConfig(
            capacity=capacity,
            idle_timeout_seconds=(
                table.idle_timeout_seconds
                if self.idle_timeout_seconds is None
                else self.idle_timeout_seconds
            ),
            hard_timeout_seconds=(
                table.hard_timeout_seconds
                if self.hard_timeout_seconds is None
                else self.hard_timeout_seconds
            ),
            eviction_batch=min(table.eviction_batch, capacity),
            sweep_interval_seconds=(
                table.sweep_interval_seconds
                if self.sweep_interval_seconds is None
                else self.sweep_interval_seconds
            ),
            policy=self.policy,
            policy_params=self.params,
        )
        return dataclasses.replace(config, flow_table=updated)
