"""Builders for realistic multi-tenant data-center topologies.

Two builders cover everything the evaluation needs:

* :func:`build_multi_tenant_datacenter` — the general-purpose builder.  It
  creates ``switch_count`` edge switches, then creates tenants whose sizes
  are drawn uniformly from the 20–100 VM range reported in the paper until
  ``host_count`` VMs exist.  Each tenant's VMs are placed on a small number
  of "home" switches (with a configurable spill fraction placed anywhere),
  which is what produces the traffic locality the grouping exploits.
* :func:`build_paper_real_topology` / :func:`build_paper_synthetic_topology`
  — convenience wrappers with the published dimensions (272 switches / 6509
  hosts, and the 10× scaled 2713 switches / 65090 hosts).  The synthetic
  scale is large; callers can pass ``scale`` to shrink it proportionally for
  quick runs while keeping the same shape.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.common.errors import ConfigurationError
from repro.common.rng import make_rng
from repro.topology.network import DataCenterNetwork
from repro.topology.registry import register_topology


@dataclass(frozen=True, slots=True)
class TopologyProfile:
    """Parameters controlling the generated multi-tenant topology."""

    switch_count: int
    host_count: int
    min_tenant_size: int = 20
    max_tenant_size: int = 100
    home_switches_per_tenant: int = 3
    spill_fraction: float = 0.05
    seed: int = 2015

    def __post_init__(self) -> None:
        if self.switch_count <= 0:
            raise ConfigurationError("switch_count must be positive")
        if self.host_count <= 0:
            raise ConfigurationError("host_count must be positive")
        if not 1 <= self.min_tenant_size <= self.max_tenant_size:
            raise ConfigurationError("tenant size bounds must satisfy 1 <= min <= max")
        if self.home_switches_per_tenant < 1:
            raise ConfigurationError("home_switches_per_tenant must be at least 1")
        if not 0.0 <= self.spill_fraction <= 1.0:
            raise ConfigurationError("spill_fraction must be in [0, 1]")


def build_multi_tenant_datacenter(profile: TopologyProfile) -> DataCenterNetwork:
    """Create a data center whose tenants exhibit the paper's locality properties."""
    rng = make_rng(profile.seed, "topology")
    network = DataCenterNetwork()
    for _ in range(profile.switch_count):
        network.add_edge_switch()

    switch_ids = network.switch_ids()
    created_hosts = 0
    tenant_index = 0
    while created_hosts < profile.host_count:
        remaining = profile.host_count - created_hosts
        size = rng.randint(profile.min_tenant_size, profile.max_tenant_size)
        size = min(size, remaining)
        tenant = network.tenants.create_tenant(f"tenant-{tenant_index:04d}")
        tenant_index += 1

        home_count = min(profile.home_switches_per_tenant, len(switch_ids))
        home_switches = rng.sample(switch_ids, home_count)
        for _ in range(size):
            if rng.random() < profile.spill_fraction and len(switch_ids) > home_count:
                switch_id = rng.choice(switch_ids)
            else:
                switch_id = rng.choice(home_switches)
            network.attach_host(switch_id, tenant.tenant_id)
            created_hosts += 1
    return network


@dataclass(frozen=True, slots=True)
class PaperRealTopologyParams:
    """Params of the registered ``"paper-real"`` shape (272 sw / 6509 hosts x scale)."""

    scale: float = 1.0
    seed: int = 2015

    def __post_init__(self) -> None:
        if self.scale <= 0:
            raise ConfigurationError("scale must be positive")

    @property
    def switch_count(self) -> int:
        """Edge switches at this scale."""
        return max(8, round(272 * self.scale))

    @property
    def host_count(self) -> int:
        """Hosts at this scale."""
        return max(64, round(6509 * self.scale))


@dataclass(frozen=True, slots=True)
class PaperSyntheticTopologyParams:
    """Params of the registered ``"paper-synthetic"`` shape (2713 sw / 65090 hosts x scale)."""

    scale: float = 1.0
    seed: int = 2015

    def __post_init__(self) -> None:
        if self.scale <= 0:
            raise ConfigurationError("scale must be positive")

    @property
    def switch_count(self) -> int:
        """Edge switches at this scale."""
        return max(16, round(2713 * self.scale))

    @property
    def host_count(self) -> int:
        """Hosts at this scale."""
        return max(128, round(65090 * self.scale))


def build_paper_scale_topology(params: PaperRealTopologyParams | PaperSyntheticTopologyParams) -> DataCenterNetwork:
    """A multi-tenant topology with the dimensions ``params`` gives at its scale."""
    profile = TopologyProfile(switch_count=params.switch_count, host_count=params.host_count, seed=params.seed)
    return build_multi_tenant_datacenter(profile)


def build_paper_real_topology(*, scale: float = 1.0, seed: int = 2015) -> DataCenterNetwork:
    """Topology with the dimensions of the paper's real trace (272 switches, 6509 hosts).

    ``scale`` shrinks both dimensions proportionally (minimum 8 switches / 64
    hosts) so tests and examples can run in seconds while benchmarks use the
    full size.
    """
    return build_paper_scale_topology(PaperRealTopologyParams(scale=scale, seed=seed))


def build_paper_synthetic_topology(*, scale: float = 1.0, seed: int = 2015) -> DataCenterNetwork:
    """Topology with the dimensions of the synthetic traces (2713 switches, 65090 hosts).

    The full synthetic scale is 10× the real one (paper §V-B); ``scale``
    shrinks it for tractable runs.
    """
    return build_paper_scale_topology(PaperSyntheticTopologyParams(scale=scale, seed=seed))


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
