"""State dissemination helpers (paper §III-D.3).

Two dissemination styles exist in LazyCtrl:

* **Live / synchronized** dissemination is driven by end hosts (ARP at
  bootstrap, VM migration or removal): the event first updates the local
  switch, then cascades to the group, and only escalates to the controller
  when the group cannot resolve it.
* **Asynchronous** dissemination is switch-driven: L-FIB changes are pushed
  to the designated switch, relayed to peers and reported to the controller;
  and after a regrouping the controller pushes the relevant L-FIBs to the
  designated switches of the new groups.

The :class:`StateDisseminator` wires these flows between the topology, the
Local Control Groups and the controller, and counts the messages each style
generates so the control-plane overhead can be reported.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.common.errors import ControlPlaneError
from repro.controlplane.lazyctrl_controller import LazyCtrlController
from repro.topology.network import DataCenterNetwork


@dataclass(slots=True)
class DisseminationStats:
    """Counters of state-dissemination activity."""

    live_events: int = 0
    migration_events: int = 0
    departure_events: int = 0
    peer_messages: int = 0
    state_reports: int = 0
    controller_updates: int = 0


class StateDisseminator:
    """Coordinates live and asynchronous state dissemination."""

    def __init__(self, network: DataCenterNetwork, controller: LazyCtrlController) -> None:
        self._network = network
        self._controller = controller
        self.stats = DisseminationStats()

    # -- live (host-driven) dissemination ------------------------------------------

    def host_appeared(self, host_id: int) -> None:
        """A VM booted (or was discovered through its first ARP broadcast)."""
        host = self._network.host(host_id)
        switch = self._controller.switch(host.switch_id)
        changed = switch.attach_host(host.mac, host.port, host.tenant_id)
        self.stats.live_events += 1
        if changed:
            self._propagate_switch_update(host.switch_id)

    def migrate_host(self, host_id: int, new_switch_id: int) -> None:
        """A VM migrated to another edge switch.

        The old switch forgets the host, the new switch learns it, both
        groups are updated, and the controller's C-LIB is refreshed through
        the state reports of the affected groups.
        """
        host = self._network.host(host_id)
        old_switch_id = host.switch_id
        if old_switch_id == new_switch_id:
            return
        migrated = self._network.migrate_host(host_id, new_switch_id)
        old_switch = self._controller.switch(old_switch_id)
        new_switch = self._controller.switch(new_switch_id)
        old_switch.detach_host(migrated.mac)
        new_switch.attach_host(migrated.mac, migrated.port, migrated.tenant_id)
        self.stats.migration_events += 1
        self.stats.live_events += 1
        self._propagate_switch_update(old_switch_id)
        self._propagate_switch_update(new_switch_id)
        self._controller.clib.record_host(migrated.mac, new_switch_id, migrated.tenant_id)
        self._controller.tenant_manager.note_host_location(migrated.tenant_id, new_switch_id)
        self.stats.controller_updates += 1

    def host_departed(self, host_id: int) -> None:
        """A VM was decommissioned (tenant departure or scale-down).

        The local switch forgets the host, its group re-disseminates the
        shrunken L-FIB, and the controller's C-LIB drops the location so a
        later inter-group setup cannot resolve to a ghost VM.
        """
        host = self._network.host(host_id)
        switch = self._controller.switch(host.switch_id)
        switch.detach_host(host.mac)
        self._network.remove_host(host_id)
        self.stats.departure_events += 1
        self.stats.live_events += 1
        self._propagate_switch_update(host.switch_id)
        if self._controller.clib.remove_host(host.mac):
            self.stats.controller_updates += 1

    # -- asynchronous (switch-driven) dissemination -----------------------------------

    def _propagate_switch_update(self, switch_id: int) -> None:
        group_id = self._controller.group_of_switch(switch_id)
        if group_id is None:
            # The switch is not grouped yet (bootstrap); the controller will
            # pick the host up with the next full synchronization.
            return
        group = self._controller.groups.get(group_id)
        if group is None:
            raise ControlPlaneError(f"group {group_id} is not provisioned at the controller")
        with self._controller.perf.timeit("live_dissemination"):
            self.stats.peer_messages += group.propagate_lfib_update(switch_id)
            report = group.build_state_report()
            self.stats.state_reports += 1
            self.stats.controller_updates += self._controller.receive_state_report(report)
