"""The LazyCtrl central controller.

The controller of the hybrid control model (paper §III-B.2) is responsible
for exactly three things:

1. maintaining the Central Location Information Base (C-LIB) from the state
   reports pushed by designated switches,
2. adapting the grouping of edge switches (delegated to the
   :class:`~repro.controlplane.grouping_manager.GroupingManager`), and
3. managing flow tables on edge switches to handle inter-group traffic and
   any fine-grained flows that need centralized control.

Everything else — intra-group forwarding, intra-group ARP resolution, local
host learning — happens inside the Local Control Groups, which is what keeps
the controller "lazy".
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, Optional

from repro.common.config import LazyCtrlConfig
from repro.common.errors import UnknownHostError
from repro.common.packets import FlowKey
from repro.datastructures.fib import CentralLib
from repro.dataplane.edge_switch import LazyCtrlEdgeSwitch
from repro.controlplane.base import EdgeController
from repro.controlplane.group import LocalControlGroup
from repro.controlplane.grouping_manager import GroupingManager
from repro.controlplane.messages import GroupStateReportMessage
from repro.controlplane.tenant_manager import TenantManager
from repro.partitioning.sgi import Grouping
from repro.topology.network import DataCenterNetwork


@dataclass(frozen=True, slots=True)
class InterGroupSetupResult:
    """What the controller did with one inter-group Packet_In."""

    ingress_switch_id: int
    egress_switch_id: Optional[int]
    resolved: bool
    relayed_groups: int = 0


class LazyCtrlController(EdgeController):
    """The lazy central controller of the hybrid control plane."""

    def __init__(
        self,
        network: DataCenterNetwork,
        *,
        config: LazyCtrlConfig | None = None,
        dynamic_grouping: bool = True,
        workload_bucket_seconds: float = 7200.0,
    ) -> None:
        super().__init__(workload_bucket_seconds=workload_bucket_seconds)
        self._network = network
        self.config = config or LazyCtrlConfig()
        self.clib = CentralLib()
        self.tenant_manager = TenantManager(network)
        self.grouping_manager = GroupingManager(
            grouping_config=self.config.grouping,
            dynamic=dynamic_grouping,
        )
        self._groups: Dict[int, LocalControlGroup] = {}
        self._group_of_switch: Dict[int, int] = {}
        self._rng = random.Random(self.config.grouping.random_seed)
        self.arp_relays = 0
        self.group_config_messages = 0
        self.regroupings_applied = 0

    # -- switch registration ----------------------------------------------------

    def register_switch(self, switch: LazyCtrlEdgeSwitch) -> None:
        """Connect an edge switch to the controller via a control link."""
        super().register_switch(switch)
        self.grouping_manager.register_switches([switch.switch_id])

    # -- bootstrap -----------------------------------------------------------------

    def bootstrap_host_locations(self) -> None:
        """Populate L-FIBs and the C-LIB from the topology's host placement.

        This models the host-discovery phase: every edge switch learns its
        locally attached VMs and the aggregated locations reach the C-LIB via
        the (initial) state reports.
        """
        for host in self._network.hosts():
            switch = self._switches.get(host.switch_id)
            if switch is None:
                continue
            switch.attach_host(host.mac, host.port, host.tenant_id)
            self.clib.record_host(host.mac, host.switch_id, host.tenant_id)
            self.tenant_manager.note_host_location(host.tenant_id, host.switch_id)

    # -- grouping ----------------------------------------------------------------------

    @property
    def groups(self) -> Dict[int, LocalControlGroup]:
        """The currently provisioned Local Control Groups, by group id."""
        return dict(self._groups)

    def group_of_switch(self, switch_id: int) -> Optional[int]:
        """The group currently containing ``switch_id``."""
        return self._group_of_switch.get(switch_id)

    def group_assignment(self) -> Dict[int, int]:
        """The full switch->group mapping."""
        return dict(self._group_of_switch)

    def apply_grouping(self, grouping: Grouping) -> int:
        """Provision Local Control Groups according to ``grouping``.

        Returns the number of group-configuration messages sent over the
        control links, one per member switch.  Groups are
        rebuilt from scratch (the paper preloads rules to avoid interruptions
        during updates; rule preloading is modelled as part of the update cost
        rather than as packet loss).
        """
        messages = 0
        self._groups.clear()
        self._group_of_switch.clear()
        for group_id, member_ids in sorted(grouping.groups.items()):
            members = [self.switch(switch_id) for switch_id in sorted(member_ids)]
            group = LocalControlGroup(
                group_id,
                members,
                backup_count=self.config.designated_backup_count,
                rng=random.Random(self._rng.random()),
            )
            group.synchronize_gfibs()
            self._groups[group_id] = group
            for member in members:
                self._group_of_switch[member.switch_id] = group_id
                messages += 1
        self.group_config_messages += messages
        self.regroupings_applied += 1
        return messages

    # -- state reports -------------------------------------------------------------------

    def receive_state_report(self, report: GroupStateReportMessage) -> int:
        """Fold a designated switch's aggregated state report into the C-LIB.

        The wire tuples are merged as they come; noting each tenant of a switch
        once, in first-seen order, leaves what noting every entry would.
        """
        changed = 0
        note = self.tenant_manager.note_host_location
        for switch_id, entries in report.switch_lfibs:
            changed += self.clib.update_from_lfib(switch_id, entries)
            for tenant_id in dict.fromkeys(entry[2] for entry in entries):
                note(tenant_id, switch_id)
        return changed

    def collect_state_reports(self) -> int:
        """Pull a state report from every group (periodic asynchronous sync).

        Reports are incremental: each group serializes only the L-FIBs that
        changed since its previous periodic report (the C-LIB merge is
        idempotent, so the resulting controller state is identical).
        """
        changed = 0
        for group in self._groups.values():
            report = group.build_state_report(only_changes=True)
            changed += self.receive_state_report(report)
        return changed

    # -- inter-group control ------------------------------------------------------------------

    def handle_packet_in(self, ingress_switch_id: int, key: FlowKey, now: float) -> InterGroupSetupResult:
        """Handle a Packet_In for a flow ``key`` the ingress group could not resolve.

        The controller locates the destination in the C-LIB and installs an
        encapsulation rule on the ingress switch.  When even the C-LIB does
        not know the destination (cold start), the request is relayed as an
        ARP to the designated switches of every group hosting the tenant.
        """
        self._record_request(ingress_switch_id, now, "inter_group")
        egress = self.clib.locate(key.dst_mac)
        if egress is not None:
            self._install_forwarding_rule(ingress_switch_id, key, egress, now)
            return InterGroupSetupResult(
                ingress_switch_id=ingress_switch_id,
                egress_switch_id=egress,
                resolved=True,
            )
        relayed = self._relay_arp(key.tenant_id)
        # After the relay the owning switch answers and the location becomes
        # known; resolve from the ground truth topology if possible.
        try:
            host = self._network.host_by_mac(key.dst_mac)
        except UnknownHostError:
            return InterGroupSetupResult(
                ingress_switch_id=ingress_switch_id,
                egress_switch_id=None,
                resolved=False,
                relayed_groups=relayed,
            )
        self.clib.record_host(key.dst_mac, host.switch_id, host.tenant_id)
        self._install_forwarding_rule(ingress_switch_id, key, host.switch_id, now)
        return InterGroupSetupResult(
            ingress_switch_id=ingress_switch_id,
            egress_switch_id=host.switch_id,
            resolved=True,
            relayed_groups=relayed,
        )

    def _relay_arp(self, tenant_id: int) -> int:
        groups = self.tenant_manager.groups_with_tenant(tenant_id, self._group_of_switch)
        relayed = sum(1 for group_id in groups if group_id in self._groups)
        self.arp_relays += relayed
        return relayed

    # -- periodic housekeeping ---------------------------------------------------------------------

    def periodic_check(self, now: float) -> bool:
        """Run the regrouping check; apply and provision a new grouping when one is produced.

        Returns ``True`` when a regrouping was applied.
        """
        with self.perf.timeit("regroup_decide"):
            decision = self.grouping_manager.check(now, self.current_load_rps(now))
        if decision.regrouped and decision.grouping is not None:
            with self.perf.timeit("regroup_apply"):
                self.apply_grouping(decision.grouping)
            return True
        return False
