"""Churn processes: deterministic generators of workload-dynamics events.

Each process owns an independent RNG stream derived from the churn seed and
its own name, draws its event *times* up front (a Poisson arrival process
over the churn window) and picks event *targets* when the event fires, from
the network state of that moment.  Because a process only ever consumes its
own stream, and fires in the deterministic order of the scheduler's sorted
event list, two replays of the same spec — or the same spec against two
different control planes — apply exactly the same churn.

Processes do not touch control-plane state directly: they call the
:class:`ChurnTarget` hooks a system under test exposes
(``churn_migrate_host`` and friends), which route the change through
:class:`~repro.topology.network.DataCenterNetwork`, the
:class:`~repro.controlplane.tenant_manager.TenantManager` and
:class:`~repro.controlplane.state_dissemination.StateDisseminator`, so
L-FIB/G-FIB/C-LIB state and the intensity matrices all see it.
"""

from __future__ import annotations

import enum
import random
from typing import List, Protocol, Sequence, Tuple

from repro.churn.spec import ChurnSpec
from repro.common.rng import make_rng
from repro.topology.network import DataCenterNetwork

# A locality-drift event moves this many of one tenant's VMs together.
DRIFT_BATCH_SIZE = 4
# An arriving tenant brings a uniform draw of this many VMs (inclusive).
TENANT_SIZE_RANGE = (20, 40)


class ChurnKind(enum.Enum):
    """The churn event kinds; the values are ``ChurnAppliedEvent.kind`` in traces."""

    HOST_MIGRATION = "host_migration"
    TRAFFIC_DRIFT = "traffic_drift"
    TENANT_ARRIVAL = "tenant_arrival"
    TENANT_DEPARTURE = "tenant_departure"


class ChurnTarget(Protocol):
    """The hooks a system under test exposes to experience churn."""

    network: DataCenterNetwork

    def churn_migrate_host(self, host_id: int, new_switch_id: int, *, now: float) -> None:
        """Migrate one VM to another edge switch, updating control-plane state."""
        ...

    def churn_tenant_arrival(self, name: str, placements: Sequence[int], *, now: float) -> int:
        """Create a tenant with one VM per placement switch; returns its id."""
        ...

    def churn_tenant_departure(self, tenant_id: int, *, now: float) -> int:
        """Dissolve a tenant and all its VMs; returns the number removed."""
        ...


def poisson_event_times(rng: random.Random, rate_per_hour: float, start: float, end: float) -> List[float]:
    """Event times of a Poisson process with ``rate_per_hour`` over ``[start, end)``."""
    times: List[float] = []
    if rate_per_hour <= 0 or end <= start:
        return times
    rate_per_second = rate_per_hour / 3600.0
    t = start + rng.expovariate(rate_per_second)
    while t < end:
        times.append(t)
        t += rng.expovariate(rate_per_second)
    return times


class ChurnProcess:
    """Base class: a named process with its own deterministic RNG stream."""

    name: str = "churn"

    def __init__(self, spec: ChurnSpec) -> None:
        self.spec = spec
        self.rng = make_rng(spec.seed, "churn", self.name)

    def schedule(self, start: float, end: float) -> List[Tuple[float, ChurnKind]]:
        """Pre-draw the ``(time, kind)`` stream this process will fire."""
        raise NotImplementedError

    def fire(self, kind: ChurnKind, target: ChurnTarget, now: float) -> int:
        """Apply one event; returns the number of VM-level changes (0 = skipped)."""
        raise NotImplementedError


class MigrationProcess(ChurnProcess):
    """Independent single-VM migrations to uniformly random other switches."""

    name = "migration"

    def schedule(self, start: float, end: float) -> List[Tuple[float, ChurnKind]]:
        times = poisson_event_times(self.rng, self.spec.migration_rate_per_hour, start, end)
        return [(t, ChurnKind.HOST_MIGRATION) for t in times]

    def fire(self, kind: ChurnKind, target: ChurnTarget, now: float) -> int:
        network = target.network
        hosts = network.hosts()
        if not hosts or network.switch_count() < 2:
            return 0
        host = self.rng.choice(hosts)
        candidates = [s for s in network.switch_ids() if s != host.switch_id]
        target.churn_migrate_host(host.host_id, self.rng.choice(candidates), now=now)
        return 1


class DriftProcess(ChurnProcess):
    """Traffic-locality drift: a batch of one tenant's VMs moves together.

    Moving several VMs of the same tenant toward a common switch shifts that
    tenant's traffic footprint coherently — the kind of gradual drift that
    makes an initially good grouping stale (paper §IV-B), as opposed to the
    uncorrelated noise of :class:`MigrationProcess`.
    """

    name = "drift"

    def schedule(self, start: float, end: float) -> List[Tuple[float, ChurnKind]]:
        times = poisson_event_times(self.rng, self.spec.drift_rate_per_hour, start, end)
        return [(t, ChurnKind.TRAFFIC_DRIFT) for t in times]

    def fire(self, kind: ChurnKind, target: ChurnTarget, now: float) -> int:
        network = target.network
        tenants = network.tenants.tenants()
        if not tenants or network.switch_count() < 2:
            return 0
        tenant = self.rng.choice(tenants)
        destination = self.rng.choice(network.switch_ids())
        movable = [
            host_id
            for host_id in tenant.host_ids
            if network.host(host_id).switch_id != destination
        ]
        if not movable:
            return 0
        batch_size = min(DRIFT_BATCH_SIZE, len(movable))
        for host_id in sorted(self.rng.sample(movable, batch_size)):
            target.churn_migrate_host(host_id, destination, now=now)
        return batch_size


class TenantLifecycleProcess(ChurnProcess):
    """Tenant arrivals and departures (whole-tenant lifecycle churn)."""

    name = "tenant-lifecycle"

    def __init__(self, spec: ChurnSpec) -> None:
        super().__init__(spec)
        self._arrival_counter = 0

    def schedule(self, start: float, end: float) -> List[Tuple[float, ChurnKind]]:
        arrivals = poisson_event_times(self.rng, self.spec.tenant_arrival_rate_per_hour, start, end)
        departures = poisson_event_times(self.rng, self.spec.tenant_departure_rate_per_hour, start, end)
        events = [(t, ChurnKind.TENANT_ARRIVAL) for t in arrivals]
        events.extend((t, ChurnKind.TENANT_DEPARTURE) for t in departures)
        events.sort(key=lambda item: item[0])
        return events

    def fire(self, kind: ChurnKind, target: ChurnTarget, now: float) -> int:
        if kind == ChurnKind.TENANT_ARRIVAL:
            return self._arrive(target, now)
        return self._depart(target, now)

    def _arrive(self, target: ChurnTarget, now: float) -> int:
        network = target.network
        switch_ids = network.switch_ids()
        if not switch_ids:
            return 0
        low, high = TENANT_SIZE_RANGE
        size = self.rng.randint(low, high)
        # New tenants show the same locality as the seeded ones: a couple of
        # home switches absorb almost all of the VMs.
        home_count = min(2, len(switch_ids))
        homes = self.rng.sample(switch_ids, home_count)
        placements = [self.rng.choice(homes) for _ in range(size)]
        name = f"churn-tenant-{self._arrival_counter:04d}"
        self._arrival_counter += 1
        target.churn_tenant_arrival(name, placements, now=now)
        return size

    def _depart(self, target: ChurnTarget, now: float) -> int:
        network = target.network
        tenants = network.tenants.tenants()
        if len(tenants) < 2:
            # Never dissolve the last tenant; the topology must stay usable.
            return 0
        tenant = self.rng.choice(tenants)
        return target.churn_tenant_departure(tenant.tenant_id, now=now)


def build_processes(spec: ChurnSpec) -> List[ChurnProcess]:
    """The processes a spec enables, in a fixed deterministic order."""
    processes: List[ChurnProcess] = []
    if spec.migration_rate_per_hour > 0:
        processes.append(MigrationProcess(spec))
    if spec.drift_rate_per_hour > 0:
        processes.append(DriftProcess(spec))
    if spec.tenant_arrival_rate_per_hour > 0 or spec.tenant_departure_rate_per_hour > 0:
        processes.append(TenantLifecycleProcess(spec))
    return processes
