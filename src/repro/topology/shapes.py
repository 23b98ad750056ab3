"""Topology shapes beyond the home-switch multi-tenant builder.

Two placement disciplines that bracket the locality spectrum the paper's
Table II varies:

* **striped** — anti-local placement: each tenant's VMs are striped
  round-robin across *all* edge switches, so intra-tenant traffic is almost
  always inter-switch and spread evenly.  This is the adversarial layout
  that defeats switch grouping — the workload a LazyCtrl deployment must
  not fall over on;
* **multi-pod** — hierarchical locality: switches are organized into pods
  and each tenant is confined to home switches inside one home pod (with a
  small spill fraction anywhere), producing two nested tiers of locality
  for the grouping to discover.

Both builders are deterministic given their seed and are registered in
:mod:`repro.topology.registry` next to the existing builders.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.common.errors import ConfigurationError
from repro.common.rng import make_rng
from repro.topology.network import DataCenterNetwork
from repro.topology.registry import register_topology


@dataclass(frozen=True, slots=True)
class StripedTopologyParams:
    """Parameters of the anti-local striped topology."""

    switch_count: int = 32
    host_count: int = 400
    min_tenant_size: int = 20
    max_tenant_size: int = 100
    seed: int = 2015

    def __post_init__(self) -> None:
        if self.switch_count <= 0:
            raise ConfigurationError("switch_count must be positive")
        if self.host_count <= 0:
            raise ConfigurationError("host_count must be positive")
        if not 1 <= self.min_tenant_size <= self.max_tenant_size:
            raise ConfigurationError("tenant size bounds must satisfy 1 <= min <= max")


def build_striped_datacenter(params: StripedTopologyParams) -> DataCenterNetwork:
    """Stripe every tenant's VMs round-robin across all switches (anti-local)."""
    rng = make_rng(params.seed, "topology-striped")
    network = DataCenterNetwork()
    for _ in range(params.switch_count):
        network.add_edge_switch()

    switch_ids = network.switch_ids()
    created_hosts = 0
    tenant_index = 0
    while created_hosts < params.host_count:
        remaining = params.host_count - created_hosts
        size = min(rng.randint(params.min_tenant_size, params.max_tenant_size), remaining)
        tenant = network.tenants.create_tenant(f"tenant-{tenant_index:04d}")
        # A rotating start offset keeps overall switch load even while each
        # tenant still touches as many distinct switches as it has VMs.
        offset = rng.randrange(len(switch_ids))
        for vm_index in range(size):
            switch_id = switch_ids[(offset + vm_index) % len(switch_ids)]
            network.attach_host(switch_id, tenant.tenant_id)
            created_hosts += 1
        tenant_index += 1
    return network


@dataclass(frozen=True, slots=True)
class MultiPodTopologyParams:
    """Parameters of the hierarchical multi-pod topology."""

    pod_count: int = 4
    switches_per_pod: int = 8
    host_count: int = 480
    min_tenant_size: int = 20
    max_tenant_size: int = 100
    home_switches_per_tenant: int = 2
    pod_spill_fraction: float = 0.03
    seed: int = 2015

    def __post_init__(self) -> None:
        if self.pod_count <= 0:
            raise ConfigurationError("pod_count must be positive")
        if self.switches_per_pod <= 0:
            raise ConfigurationError("switches_per_pod must be positive")
        if self.host_count <= 0:
            raise ConfigurationError("host_count must be positive")
        if not 1 <= self.min_tenant_size <= self.max_tenant_size:
            raise ConfigurationError("tenant size bounds must satisfy 1 <= min <= max")
        if self.home_switches_per_tenant < 1:
            raise ConfigurationError("home_switches_per_tenant must be at least 1")
        if not 0.0 <= self.pod_spill_fraction <= 1.0:
            raise ConfigurationError("pod_spill_fraction must be in [0, 1]")

    @property
    def switch_count(self) -> int:
        """Total number of edge switches across all pods."""
        return self.pod_count * self.switches_per_pod


def build_multi_pod_datacenter(params: MultiPodTopologyParams) -> DataCenterNetwork:
    """Confine each tenant to home switches inside one home pod."""
    rng = make_rng(params.seed, "topology-multi-pod")
    network = DataCenterNetwork()
    pods = []
    for _ in range(params.pod_count):
        pods.append(
            [network.add_edge_switch().switch_id for _ in range(params.switches_per_pod)]
        )
    all_switch_ids = network.switch_ids()

    created_hosts = 0
    tenant_index = 0
    while created_hosts < params.host_count:
        remaining = params.host_count - created_hosts
        size = min(rng.randint(params.min_tenant_size, params.max_tenant_size), remaining)
        tenant = network.tenants.create_tenant(f"tenant-{tenant_index:04d}")
        home_pod = pods[rng.randrange(len(pods))]
        home_count = min(params.home_switches_per_tenant, len(home_pod))
        home_switches = rng.sample(home_pod, home_count)
        for _ in range(size):
            if rng.random() < params.pod_spill_fraction:
                switch_id = rng.choice(all_switch_ids)
            else:
                switch_id = rng.choice(home_switches)
            network.attach_host(switch_id, tenant.tenant_id)
            created_hosts += 1
        tenant_index += 1
    return network


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
