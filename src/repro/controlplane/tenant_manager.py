"""Tenant information management at the controller.

The controller's tenant-information-management module (paper §IV-B) tracks
which edge switches host VMs of which tenant.  The controller consults it to
scope cross-group ARP relaying (paper §III-D.3, level iii) to the groups that
host the tenant.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, Mapping, Set

from repro.topology.network import DataCenterNetwork


class TenantManager:
    """Controller-side view of tenants and their switch footprints."""

    def __init__(self, network: DataCenterNetwork) -> None:
        self._network = network
        self._switches_by_tenant: Dict[int, Set[int]] = defaultdict(set)
        self.refresh()

    def refresh(self) -> None:
        """Recompute tenant footprints from the current topology."""
        self._switches_by_tenant.clear()
        for tenant in self._network.tenants.tenants():
            self._switches_by_tenant[tenant.tenant_id] = self._network.tenant_footprint(tenant.tenant_id)

    def note_host_location(self, tenant_id: int, switch_id: int) -> None:
        """Incrementally record that a VM of ``tenant_id`` lives on ``switch_id``."""
        self._switches_by_tenant[tenant_id].add(switch_id)

    def groups_with_tenant(self, tenant_id: int, group_of_switch: Mapping[int, int]) -> Set[int]:
        """Groups containing at least one switch that hosts ``tenant_id``.

        ``group_of_switch`` is the controller's current switch->group map.
        This is what the controller uses to decide which designated switches
        must relay a cross-group ARP request.
        """
        groups: Set[int] = set()
        for switch_id in self._switches_by_tenant.get(tenant_id, ()):
            group = group_of_switch.get(switch_id)
            if group is not None:
                groups.add(group)
        return groups
