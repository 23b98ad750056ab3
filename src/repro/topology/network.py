"""Data-center network model with core–edge separation.

The paper's architecture (§III-B.1) treats the core as an opaque IP underlay
providing one-hop logical connectivity between edge switches, and puts all
intelligence at the edge.  :class:`DataCenterNetwork` therefore records only
what the control plane needs: the set of edge switches (with their
management MACs), the hosts attached to each switch, and the tenant
directory.  VM migration updates the host-to-switch mapping, which
is the event that drives live state dissemination.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.common.addresses import MacAddress
from repro.common.errors import TopologyError, UnknownHostError, UnknownSwitchError
from repro.topology.host import Host
from repro.topology.tenant import TenantDirectory


@dataclass(frozen=True, slots=True)
class EdgeSwitchInfo:
    """Static facts about one edge switch."""

    switch_id: int
    management_mac: MacAddress


class DataCenterNetwork:
    """The emulated multi-tenant data center (edge view)."""

    def __init__(self) -> None:
        self._switches: Dict[int, EdgeSwitchInfo] = {}
        self._hosts: Dict[int, Host] = {}
        self._hosts_by_mac: Dict[MacAddress, Host] = {}
        self._hosts_on_switch: Dict[int, List[int]] = {}
        # Host identifiers are never reused: a VM arriving after another
        # departed (workload churn) must not inherit the departed VM's MAC.
        self._next_host_id = 0
        self.tenants = TenantDirectory()
        # Uplink capacities into the one-hop core, by switch.  Empty means
        # links are uncapacitated and the bandwidth subsystem stays inert.
        self._uplink_capacities: Dict[int, float] = {}

    # -- switches ----------------------------------------------------------

    def add_edge_switch(self) -> EdgeSwitchInfo:
        """Register a new edge switch and return its static description."""
        switch_id = len(self._switches)
        info = EdgeSwitchInfo(
            switch_id=switch_id,
            management_mac=MacAddress.from_switch_index(switch_id),
        )
        self._switches[switch_id] = info
        self._hosts_on_switch[switch_id] = []
        return info

    def switch(self, switch_id: int) -> EdgeSwitchInfo:
        """Return the description of ``switch_id`` (raises when unknown)."""
        try:
            return self._switches[switch_id]
        except KeyError as exc:
            raise UnknownSwitchError(f"unknown edge switch {switch_id}") from exc

    def switches(self) -> List[EdgeSwitchInfo]:
        """All edge switches ordered by identifier."""
        return [self._switches[switch_id] for switch_id in sorted(self._switches)]

    def switch_ids(self) -> List[int]:
        """All edge-switch identifiers."""
        return sorted(self._switches)

    def switch_count(self) -> int:
        """Number of edge switches."""
        return len(self._switches)

    # -- link capacities ----------------------------------------------------

    def set_uplink_capacity_mbps(self, switch_id: int, mbps: float) -> None:
        """Assign a capacity to ``switch_id``'s uplink into the core."""
        self.switch(switch_id)
        if mbps <= 0:
            raise TopologyError(f"uplink capacity must be positive, got {mbps}")
        self._uplink_capacities[switch_id] = float(mbps)

    def link_capacities_mbps(self) -> Dict[int, float]:
        """All assigned uplink capacities by switch id (possibly empty)."""
        return dict(self._uplink_capacities)

    def has_link_capacities(self) -> bool:
        """Whether any uplink has a capacity assigned."""
        return bool(self._uplink_capacities)

    # -- hosts ---------------------------------------------------------------

    def attach_host(self, switch_id: int, tenant_id: int) -> Host:
        """Create a VM on ``switch_id`` for ``tenant_id`` and return it."""
        self.switch(switch_id)
        if tenant_id not in self.tenants:
            raise TopologyError(f"unknown tenant {tenant_id}")
        host_id = self._next_host_id
        self._next_host_id += 1
        port = self._free_port(switch_id)
        host = Host(
            host_id=host_id,
            mac=MacAddress.from_host_index(host_id),
            tenant_id=tenant_id,
            switch_id=switch_id,
            port=port,
        )
        self._hosts[host_id] = host
        self._hosts_by_mac[host.mac] = host
        self._hosts_on_switch[switch_id].append(host_id)
        self.tenants.assign_host(tenant_id, host_id)
        return host

    def host(self, host_id: int) -> Host:
        """Return the host with ``host_id`` (raises when unknown)."""
        try:
            return self._hosts[host_id]
        except KeyError as exc:
            raise UnknownHostError(f"unknown host {host_id}") from exc

    def has_host(self, host_id: int) -> bool:
        """Whether ``host_id`` currently exists (it may have departed)."""
        return host_id in self._hosts

    def host_if_present(self, host_id: int) -> Optional[Host]:
        """The host with ``host_id``, or ``None`` when it departed.

        One dict probe instead of the ``has_host`` + ``host`` pair; the
        replay hot path resolves two endpoints per flow with this.
        """
        return self._hosts.get(host_id)

    def host_by_mac(self, mac: MacAddress) -> Host:
        """Return the host owning ``mac`` (raises when unknown)."""
        try:
            return self._hosts_by_mac[mac]
        except KeyError as exc:
            raise UnknownHostError(f"no host with MAC {mac}") from exc

    def hosts(self) -> List[Host]:
        """All hosts ordered by identifier."""
        return [self._hosts[host_id] for host_id in sorted(self._hosts)]

    def host_count(self) -> int:
        """Number of hosts (virtual machines)."""
        return len(self._hosts)

    def hosts_on_switch(self, switch_id: int) -> List[Host]:
        """The hosts currently attached to ``switch_id``."""
        self.switch(switch_id)
        return [self._hosts[host_id] for host_id in self._hosts_on_switch[switch_id]]

    def switch_of_host(self, host_id: int) -> int:
        """The switch currently hosting ``host_id``."""
        return self.host(host_id).switch_id

    def migrate_host(self, host_id: int, new_switch_id: int) -> Host:
        """Move a VM to another edge switch; returns the updated host record.

        Migration changes the host-to-switch mapping, which triggers live
        state dissemination in the control plane (paper §III-D.3).
        """
        host = self.host(host_id)
        self.switch(new_switch_id)
        if host.switch_id == new_switch_id:
            return host
        self._hosts_on_switch[host.switch_id].remove(host_id)
        new_port = self._free_port(new_switch_id)
        migrated = host.migrated_to(new_switch_id, new_port)
        self._hosts[host_id] = migrated
        self._hosts_by_mac[migrated.mac] = migrated
        self._hosts_on_switch[new_switch_id].append(host_id)
        return migrated

    def remove_host(self, host_id: int) -> Host:
        """Remove a VM entirely (tenant departure); returns the last record.

        The host's port becomes free for reuse and the tenant directory
        forgets the assignment; identifiers and MACs are never reused.
        """
        host = self.host(host_id)
        self._hosts_on_switch[host.switch_id].remove(host_id)
        del self._hosts[host_id]
        del self._hosts_by_mac[host.mac]
        self.tenants.unassign_host(host_id)
        return host

    def remove_tenant(self, tenant_id: int) -> List[Host]:
        """Remove a tenant and every VM it still owns (tenant departure)."""
        tenant = self.tenants.get(tenant_id)
        removed = [self.remove_host(host_id) for host_id in list(tenant.host_ids)]
        self.tenants.remove_tenant(tenant_id)
        return removed

    def _free_port(self, switch_id: int) -> int:
        """Smallest local port not used by any VM on ``switch_id``.

        With a static topology this is equivalent to ``host count + 1``; once
        VMs migrate away or depart it reuses freed ports instead of handing
        out a port that a later arrival would collide on.
        """
        used = {self._hosts[host_id].port for host_id in self._hosts_on_switch[switch_id]}
        port = 1
        while port in used:
            port += 1
        return port

    # -- derived views --------------------------------------------------------

    def switch_pair_of_hosts(self, src_host_id: int, dst_host_id: int) -> tuple[int, int]:
        """The (source switch, destination switch) pair for a host pair."""
        return self.host(src_host_id).switch_id, self.host(dst_host_id).switch_id

    def tenant_footprint(self, tenant_id: int) -> set[int]:
        """The set of switches hosting at least one VM of ``tenant_id``."""
        tenant = self.tenants.get(tenant_id)
        return {self._hosts[host_id].switch_id for host_id in tenant.host_ids}

    def describe(self) -> Dict[str, int]:
        """Small summary used by reports and examples."""
        return {
            "switches": self.switch_count(),
            "hosts": self.host_count(),
            "tenants": len(self.tenants),
        }
