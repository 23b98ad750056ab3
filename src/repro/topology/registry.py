"""Topology shapes: the named network builders a :class:`~repro.core.scenario.TopologySpec` references.

A shape's factory takes its validated params and returns a
:class:`~repro.topology.network.DataCenterNetwork`.  Shapes whose params
expose ``switch_count`` / ``host_count`` (as fields or properties — all the
built-ins do) let the CLI and benchmark payloads report topology dimensions
without knowing the shape.  See :mod:`repro.common.registry`.
"""

from __future__ import annotations

from repro.common.registry import NamedRegistry
from repro.topology.builder import (
    PaperRealTopologyParams,
    PaperSyntheticTopologyParams,
    TopologyProfile,
    build_multi_tenant_datacenter,
    build_paper_scale_topology,
)
from repro.topology.shapes import (
    MultiPodTopologyParams,
    StripedTopologyParams,
    build_multi_pod_datacenter,
    build_striped_datacenter,
)

TOPOLOGIES = NamedRegistry(kind="topology", known_label="registered shapes")
register_topology = TOPOLOGIES.register
unregister_topology = TOPOLOGIES.unregister
get_topology = TOPOLOGIES.get
available_topologies = TOPOLOGIES.available


register_topology(
    "multi-tenant",
    params=TopologyProfile,
    label="Multi-tenant home-switch",
    description="Tenants placed on a few home switches with a spill fraction (paper §V-A)",
)(build_multi_tenant_datacenter)


register_topology(
    "paper-real",
    params=PaperRealTopologyParams,
    label="Paper real-trace scale",
    description="The published real-trace dimensions (272 switches / 6509 hosts), scalable",
)(build_paper_scale_topology)
register_topology(
    "paper-synthetic",
    params=PaperSyntheticTopologyParams,
    label="Paper synthetic scale",
    description="The 10x synthetic dimensions (2713 switches / 65090 hosts), scalable",
)(build_paper_scale_topology)
register_topology(
    "striped",
    params=StripedTopologyParams,
    label="Striped (anti-local)",
    description="Tenant VMs striped round-robin across all switches — defeats grouping",
)(build_striped_datacenter)
register_topology(
    "multi-pod",
    params=MultiPodTopologyParams,
    label="Multi-pod",
    description="Pods of switches with tenants confined to a home pod (two locality tiers)",
)(build_multi_pod_datacenter)

