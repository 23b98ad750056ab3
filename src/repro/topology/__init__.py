"""Topology and tenancy: hosts, tenants, edge switches, shapes and the registry."""

from repro import _lazy_exports

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

__getattr__, __dir__ = _lazy_exports(
    __name__,
    {
        "repro.topology.builder": (
            "PaperRealTopologyParams",
            "PaperSyntheticTopologyParams",
            "TopologyProfile",
            "build_multi_tenant_datacenter",
            "build_paper_real_topology",
            "build_paper_synthetic_topology",
        ),
        "repro.topology.host": ("Host",),
        "repro.topology.network": ("DataCenterNetwork", "EdgeSwitchInfo"),
        "repro.topology.registry": (
            "available_topologies",
            "get_topology",
            "register_topology",
            "unregister_topology",
        ),
        "repro.topology.shapes": (
            "MultiPodTopologyParams",
            "StripedTopologyParams",
            "build_multi_pod_datacenter",
            "build_striped_datacenter",
        ),
        "repro.topology.tenant": ("Tenant", "TenantDirectory"),
    },
)
