"""Topology and tenancy: hosts, tenants, edge switches, shapes and the registry."""

from repro.topology.builder import (
    PaperRealTopologyParams,
    PaperSyntheticTopologyParams,
    TopologyProfile,
    build_multi_tenant_datacenter,
    build_paper_real_topology,
    build_paper_synthetic_topology,
)
from repro.topology.host import Host
from repro.topology.network import DataCenterNetwork, EdgeSwitchInfo
from repro.topology.registry import (
    available_topologies,
    get_topology,
    register_topology,
    unregister_topology,
)
from repro.topology.shapes import (
    MultiPodTopologyParams,
    StripedTopologyParams,
    build_multi_pod_datacenter,
    build_striped_datacenter,
)
from repro.topology.tenant import Tenant, TenantDirectory

__all__ = [
    "DataCenterNetwork",
    "EdgeSwitchInfo",
    "Host",
    "MultiPodTopologyParams",
    "PaperRealTopologyParams",
    "PaperSyntheticTopologyParams",
    "StripedTopologyParams",
    "Tenant",
    "TenantDirectory",
    "TopologyProfile",
    "available_topologies",
    "build_multi_pod_datacenter",
    "build_multi_tenant_datacenter",
    "build_paper_real_topology",
    "build_paper_synthetic_topology",
    "build_striped_datacenter",
    "get_topology",
    "register_topology",
    "unregister_topology",
]
