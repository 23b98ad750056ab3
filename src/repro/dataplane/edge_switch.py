"""Edge switches: the shared base and the LazyCtrl switch built on it.

:class:`EdgeSwitch` is what every edge switch of the simulated data center
is: an identity on the underlay, an L-FIB of locally attached virtual
machines, a flow table of controller-installed rules wired to report
``flow_removed``, and the per-packet counters the evaluation reads.  The
baseline :class:`~repro.dataplane.openflow_switch.OpenFlowEdgeSwitch` adds
only its miss handling; :class:`LazyCtrlEdgeSwitch` adds the Bloom-filter
G-FIB summarizing the L-FIBs of its Local Control Group peers (the third
table of paper Fig. 4) and the packet-forwarding routine of Fig. 5.

A switch is a pure control-logic model: "forwarding" a packet means
returning a :class:`~repro.dataplane.decisions.ForwardingDecision` that the
simulation layer turns into latency and workload accounting.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, Optional

from repro.common.addresses import IpAddress, MacAddress
from repro.common.config import BloomFilterConfig, FlowTableConfig
from repro.common.errors import ControlPlaneError
from repro.common.packets import EncapHeader, FlowKey, Packet, PacketKind
from repro.datastructures.fib import FibEntry, GroupFib, LocalFib
from repro.datastructures.flow_table import ActionType, FlowAction, FlowRule, FlowTable
from repro.dataplane.decisions import ForwardingDecision, ForwardingOutcome
from repro.tables.policies import RemovalReason

#: Callback a controller registers to receive ``flow_removed`` notifications:
#: ``(switch_id, rule, now, reason)``.
FlowRemovedHandler = Callable[[int, FlowRule, float, RemovalReason], None]


class EdgeSwitch:
    """What both edge switches share: identity, L-FIB, flow table, counters.

    Subclasses implement :meth:`_forward`, a live switch's routine for one packet.
    """

    #: ``None`` on a switch (the OpenFlow baseline) that belongs to no group.
    gfib: Optional[GroupFib] = None

    def __init__(
        self,
        switch_id: int,
        *,
        underlay_ip: IpAddress,
        management_mac: MacAddress,
        flow_table_config: FlowTableConfig | None = None,
    ) -> None:
        self.switch_id = switch_id
        self.underlay_ip = underlay_ip
        self.management_mac = management_mac
        self.lfib = LocalFib()
        self.flow_table = FlowTable(flow_table_config)
        self.flow_table.removed_listener = self._on_rule_removed
        self.flow_removed_handler: Optional[FlowRemovedHandler] = None
        self.failed = False
        # Counters used by the evaluation and by tests.
        self.packets_processed = 0
        self.packets_to_controller = 0

    # -- host management ----------------------------------------------------

    def attach_host(self, mac: MacAddress, port: int, tenant_id: int) -> bool:
        """Learn a locally attached VM; returns ``True`` when the L-FIB changed."""
        return self.lfib.learn(mac, port, tenant_id)

    def detach_host(self, mac: MacAddress) -> bool:
        """Forget a locally attached VM (migration away or removal)."""
        return self.lfib.forget(mac)

    # -- packet processing ----------------------------------------------------

    def process_packet(self, packet: Packet, now: float = 0.0) -> ForwardingDecision:
        """Run the switch's forwarding routine for one packet."""
        self.packets_processed += 1
        if self.failed:
            return ForwardingDecision(
                outcome=ForwardingOutcome.DROPPED_NO_RULE,
                switch_id=self.switch_id,
                packet=packet,
                note="switch is failed",
            )
        return self._forward(packet, now)

    def _forward(self, packet: Packet, now: float) -> ForwardingDecision:
        raise NotImplementedError

    def _apply_rule(self, rule: FlowRule, packet: Packet) -> Optional[ForwardingDecision]:
        """The decision a matched rule dictates.

        ``None`` for a ``SEND_TO_CONTROLLER`` rule: punting is the subclass's call.
        """
        action = rule.action
        if action.kind == ActionType.FORWARD_LOCAL:
            return ForwardingDecision(
                outcome=ForwardingOutcome.FLOW_TABLE_HIT,
                switch_id=self.switch_id,
                packet=packet,
                local_port=action.target,
            )
        if action.kind == ActionType.ENCAP_TO_SWITCH:
            return ForwardingDecision(
                outcome=ForwardingOutcome.FLOW_TABLE_HIT,
                switch_id=self.switch_id,
                packet=packet,
                target_switches=(action.target,) if action.target is not None else (),
            )
        if action.kind == ActionType.DROP:
            return ForwardingDecision(
                outcome=ForwardingOutcome.DROPPED_NO_RULE,
                switch_id=self.switch_id,
                packet=packet,
                note="drop rule",
            )
        return None

    def _punt(
        self,
        packet: Packet,
        outcome: ForwardingOutcome = ForwardingOutcome.SENT_TO_CONTROLLER,
        note: str = "",
    ) -> ForwardingDecision:
        """Hand the packet to the controller (a ``Packet_In``)."""
        self.packets_to_controller += 1
        return ForwardingDecision(outcome=outcome, switch_id=self.switch_id, packet=packet, note=note)

    # -- controller-driven configuration --------------------------------------

    def install_flow_rule(self, key: FlowKey, action: FlowAction, *, priority: int = 0, now: float = 0.0) -> None:
        """Install a controller-provided flow rule (Flow_Mod)."""
        self.flow_table.install(key, action, priority=priority, now=now)

    def advance_tables(self, now: float) -> int:
        """Eagerly expire aged flow rules at replay time ``now``.

        Driven from the plane's periodic tick so rules age in lockstep with
        the replay clock; each expiry notifies the controller via the
        ``flow_removed`` hook.  Returns the number of rules removed.
        """
        return len(self.flow_table.expire(now))

    def _on_rule_removed(self, rule: FlowRule, now: float, reason: RemovalReason) -> None:
        """Relay a table-initiated removal as ``flow_removed`` to the controller."""
        if self.flow_removed_handler is not None:
            self.flow_removed_handler(self.switch_id, rule, now, reason)

    def reset_counters(self) -> None:
        """Zero the per-switch counters (between experiment phases)."""
        self.packets_processed = 0
        self.packets_to_controller = 0


class LazyCtrlEdgeSwitch(EdgeSwitch):
    """An Open vSwitch-like edge switch extended with L-FIB/G-FIB processing."""

    def __init__(
        self,
        switch_id: int,
        *,
        underlay_ip: IpAddress,
        management_mac: MacAddress,
        bloom_config: BloomFilterConfig | None = None,
        flow_table_config: FlowTableConfig | None = None,
    ) -> None:
        super().__init__(
            switch_id,
            underlay_ip=underlay_ip,
            management_mac=management_mac,
            flow_table_config=flow_table_config,
        )
        self.gfib = GroupFib(bloom_config)
        self.group_id: Optional[int] = None
        self.is_designated = False
        self.duplicate_deliveries = 0
        self.false_positive_drops = 0

    def local_hosts(self) -> list[MacAddress]:
        """MAC addresses of all locally attached VMs."""
        return self.lfib.macs()

    # -- group membership ----------------------------------------------------

    def join_group(self, group_id: int, *, designated: bool = False) -> None:
        """Join a Local Control Group (clears the G-FIB; peers are installed next)."""
        self.group_id = group_id
        self.is_designated = designated
        self.gfib.clear()

    def leave_group(self) -> None:
        """Leave the current group and drop all group state."""
        self.group_id = None
        self.is_designated = False
        self.gfib.clear()

    def install_peer_lfib(self, peer_switch_id: int, macs: Iterable[MacAddress]) -> None:
        """Install/update the Bloom filter summarizing a peer's L-FIB."""
        if peer_switch_id == self.switch_id:
            raise ControlPlaneError("a switch does not keep a G-FIB entry for itself")
        self.gfib.install_peer(peer_switch_id, macs)

    def remove_peer(self, peer_switch_id: int) -> None:
        """Drop the G-FIB entry of a peer that left the group or failed."""
        self.gfib.remove_peer(peer_switch_id)

    # -- packet processing (Fig. 5) -----------------------------------------

    def _forward(self, packet: Packet, now: float) -> ForwardingDecision:
        """The forwarding routine of Fig. 5 for one packet."""
        if packet.is_encapsulated:
            return self._process_encapsulated(packet)
        if packet.kind == PacketKind.ARP_REQUEST:
            return self._process_arp_request(packet)

        # Lines 1-21 of Fig. 5: a packet originating from a local host.
        # 1. Flow table first (controller-installed inter-group rules).
        key = FlowKey(src_mac=packet.src_mac, dst_mac=packet.dst_mac, tenant_id=packet.tenant_id)
        rule = self.flow_table.lookup(key, now=now, size_bytes=packet.size_bytes)
        if rule is not None:
            decision = self._apply_rule(rule, packet)
            if decision is not None:
                return decision
            return self._punt(packet, note="explicit send-to-controller rule")

        # 2. L-FIB: is the destination a local host?
        local_entry = self.lfib.lookup(packet.dst_mac)
        if local_entry is not None:
            return ForwardingDecision(
                outcome=ForwardingOutcome.LOCAL_DELIVERY,
                switch_id=self.switch_id,
                packet=packet,
                local_port=local_entry.port,
            )

        # 3. G-FIB: is the destination somewhere in the same group?
        candidates = self.gfib.query(packet.dst_mac)
        if candidates:
            duplicates = len(candidates) - 1
            self.duplicate_deliveries += duplicates
            return ForwardingDecision(
                outcome=ForwardingOutcome.INTRA_GROUP_FORWARD,
                switch_id=self.switch_id,
                packet=packet,
                # The G-FIB returns a sorted (memoized) tuple of candidates.
                target_switches=candidates,
                duplicate_count=duplicates,
            )

        # 4. Out of options locally: hand the packet to the controller.
        return self._punt(packet)

    def _process_encapsulated(self, packet: Packet) -> ForwardingDecision:
        """Lines 22-29 of Fig. 5: a packet delivered over the underlay."""
        inner = packet.decapsulate()
        entry = self.lfib.lookup(inner.dst_mac)
        if entry is None:
            # The Bloom filter of the sender produced a false positive: the
            # destination is not actually here, so the copy is dropped.
            self.false_positive_drops += 1
            return ForwardingDecision(
                outcome=ForwardingOutcome.DROPPED_FALSE_POSITIVE,
                switch_id=self.switch_id,
                packet=packet,
                note="L-FIB miss after decapsulation",
            )
        return ForwardingDecision(
            outcome=ForwardingOutcome.DELIVERED_AFTER_DECAP,
            switch_id=self.switch_id,
            packet=packet,
            local_port=entry.port,
        )

    def _process_arp_request(self, packet: Packet) -> ForwardingDecision:
        """Live state dissemination levels i-iii of §III-D.3 for ARP requests."""
        # Level i: learn the source and check whether a local host answers.
        if self.lfib.lookup(packet.dst_mac) is not None:
            return ForwardingDecision(
                outcome=ForwardingOutcome.ARP_RESOLVED_LOCALLY,
                switch_id=self.switch_id,
                packet=packet,
            )
        # Level ii: the G-FIB may place the target inside the group; the
        # request is then sent to the designated switch for intra-group
        # "broadcasting".
        candidates = self.gfib.query(packet.dst_mac)
        if candidates:
            return ForwardingDecision(
                outcome=ForwardingOutcome.ARP_FORWARDED_TO_DESIGNATED,
                switch_id=self.switch_id,
                packet=packet,
                target_switches=candidates,
            )
        # Level iii: escalate to the controller.
        return self._punt(packet, ForwardingOutcome.ARP_FORWARDED_TO_CONTROLLER)

    def make_encap_header(self, destination_switch: int, destination_ip: IpAddress) -> EncapHeader:
        """Build the GRE-like header used to tunnel a packet to a peer switch."""
        return EncapHeader(
            source_switch=self.switch_id,
            destination_switch=destination_switch,
            tunnel_destination=destination_ip,
        )

    # -- state snapshots ----------------------------------------------------

    def lfib_snapshot(self) -> Dict[MacAddress, FibEntry]:
        """Snapshot of the local L-FIB for peer/state-link dissemination."""
        return self.lfib.snapshot()

    def storage_bytes(self) -> int:
        """Bytes of high-speed memory consumed by the G-FIB Bloom filters."""
        return self.gfib.storage_bytes()

    def reset_counters(self) -> None:
        """Zero the per-switch counters (between experiment phases)."""
        super().reset_counters()
        self.duplicate_deliveries = 0
        self.false_positive_drops = 0

    def __repr__(self) -> str:
        return (
            f"LazyCtrlEdgeSwitch(id={self.switch_id}, group={self.group_id}, "
            f"hosts={len(self.lfib)}, designated={self.is_designated})"
        )
