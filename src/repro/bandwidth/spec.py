"""The spec-level link capacities: ``ScenarioSpec.links``.

The one place a scenario sets uplink capacity.
``ScenarioSpec.build_network`` applies it to whatever topology shape it
built (:meth:`LinkCapacitySpec.apply_network`), so every path that rebuilds
the network from the spec sees the same capacities.  The queueing term the
capacities feed is configured in ``config.latency``.

Leaving ``ScenarioSpec.links`` as ``None`` (the default) keeps every run
bit-identical to a build without the bandwidth subsystem.
"""

from __future__ import annotations

import dataclasses
from typing import TYPE_CHECKING, Optional

from repro.common.errors import ConfigurationError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.topology.network import DataCenterNetwork


@dataclasses.dataclass(frozen=True, slots=True)
class LinkCapacitySpec:
    """Per-scenario uplink capacity; ``None`` keeps links uncapacitated."""

    uplink_mbps: Optional[float] = None

    def __post_init__(self) -> None:
        if self.uplink_mbps is not None and self.uplink_mbps <= 0:
            raise ConfigurationError("uplink_mbps must be positive")

    def apply_network(self, network: "DataCenterNetwork") -> None:
        """Assign these capacities to every edge switch of ``network``."""
        if self.uplink_mbps is not None:
            for switch_id in network.switch_ids():
                network.set_uplink_capacity_mbps(switch_id, self.uplink_mbps)
