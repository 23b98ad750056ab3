"""Topology shapes: the named network builders a :class:`~repro.core.scenario.TopologySpec` references.

A shape's factory takes its validated params and returns a
:class:`~repro.topology.network.DataCenterNetwork`.  Shapes whose params
expose ``switch_count`` / ``host_count`` (as fields or properties — all the
built-ins do) let the CLI and benchmark payloads report topology dimensions
without knowing the shape.  See :mod:`repro.common.registry`.
"""

from __future__ import annotations

from repro.common.registry import NamedRegistry

#: Each built-in shape is registered by its own module, imported on first use.
TOPOLOGIES = NamedRegistry(
    kind="topology",
    known_label="registered shapes",
    builtins={
        "multi-tenant": "repro.topology.builder",
        "paper-real": "repro.topology.builder",
        "paper-synthetic": "repro.topology.builder",
        "striped": "repro.topology.shapes",
        "multi-pod": "repro.topology.shapes",
    },
)
register_topology = TOPOLOGIES.register
unregister_topology = TOPOLOGIES.unregister
get_topology = TOPOLOGIES.get
available_topologies = TOPOLOGIES.available
