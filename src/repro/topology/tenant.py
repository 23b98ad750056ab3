"""Tenant model for multi-tenant cloud data centers.

The paper's motivation (§II-B) is that tenants stay small (20–100 VMs each)
while the number of tenants grows; traffic is mostly confined within a
tenant.  The tenant model tracks which hosts belong to which tenant; the
tenant identifier is what the controller's tenant-information-management
module scopes ARP relaying by.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from repro.common.errors import TopologyError


@dataclass(slots=True)
class Tenant:
    """A tenant: an isolated slice of virtual machines."""

    tenant_id: int
    name: str
    host_ids: List[int] = field(default_factory=list)

    @property
    def size(self) -> int:
        """Number of virtual machines the tenant currently owns."""
        return len(self.host_ids)

    def add_host(self, host_id: int) -> None:
        """Attach a VM to the tenant."""
        if host_id in self.host_ids:
            raise TopologyError(f"host {host_id} already belongs to tenant {self.tenant_id}")
        self.host_ids.append(host_id)

    def remove_host(self, host_id: int) -> None:
        """Detach a VM from the tenant."""
        try:
            self.host_ids.remove(host_id)
        except ValueError as exc:
            raise TopologyError(f"host {host_id} does not belong to tenant {self.tenant_id}") from exc


class TenantDirectory:
    """Registry of all tenants in the data center."""

    __slots__ = ("_tenants", "_host_to_tenant", "_next_tenant_id")

    def __init__(self) -> None:
        self._tenants: Dict[int, Tenant] = {}
        self._host_to_tenant: Dict[int, int] = {}
        # Identifiers are never reused: a tenant arriving after a departure
        # (workload churn) must not inherit the departed tenant's flow keys.
        self._next_tenant_id = 0

    def create_tenant(self, name: str) -> Tenant:
        """Create a new tenant with a fresh identifier."""
        tenant_id = self._next_tenant_id
        self._next_tenant_id += 1
        tenant = Tenant(tenant_id=tenant_id, name=name)
        self._tenants[tenant_id] = tenant
        return tenant

    def get(self, tenant_id: int) -> Tenant:
        """Return the tenant with ``tenant_id`` (raises :class:`TopologyError` if absent)."""
        try:
            return self._tenants[tenant_id]
        except KeyError as exc:
            raise TopologyError(f"unknown tenant {tenant_id}") from exc

    def assign_host(self, tenant_id: int, host_id: int) -> None:
        """Record that ``host_id`` belongs to ``tenant_id``."""
        tenant = self.get(tenant_id)
        if host_id in self._host_to_tenant:
            raise TopologyError(f"host {host_id} is already assigned to a tenant")
        tenant.add_host(host_id)
        self._host_to_tenant[host_id] = tenant_id

    def unassign_host(self, host_id: int) -> int:
        """Detach ``host_id`` from its tenant; returns the former tenant id."""
        try:
            tenant_id = self._host_to_tenant.pop(host_id)
        except KeyError as exc:
            raise TopologyError(f"host {host_id} is not assigned to any tenant") from exc
        self.get(tenant_id).remove_host(host_id)
        return tenant_id

    def remove_tenant(self, tenant_id: int) -> Tenant:
        """Remove a tenant that no longer owns any VM (tenant departure)."""
        tenant = self.get(tenant_id)
        if tenant.host_ids:
            raise TopologyError(
                f"tenant {tenant_id} still owns {len(tenant.host_ids)} hosts; remove them first"
            )
        del self._tenants[tenant_id]
        return tenant

    def tenants(self) -> List[Tenant]:
        """All tenants, ordered by identifier."""
        return [self._tenants[tenant_id] for tenant_id in sorted(self._tenants)]

    def __len__(self) -> int:
        return len(self._tenants)

    def __contains__(self, tenant_id: int) -> bool:
        return tenant_id in self._tenants
