"""Edge switches: the shared base and the LazyCtrl switch built on it.

:class:`EdgeSwitch` is what every edge switch of the simulated data center
is: an identity on the underlay, an L-FIB of locally attached virtual
machines, a flow table of controller-installed rules wired to report
``flow_removed``, and the per-packet counters the evaluation reads.  The
baseline :class:`~repro.dataplane.openflow_switch.OpenFlowEdgeSwitch` adds
only its miss handling; :class:`LazyCtrlEdgeSwitch` adds the Bloom-filter
G-FIB summarizing the L-FIBs of its Local Control Group peers (the third
table of paper Fig. 4) and the encapsulated/ARP halves of Fig. 5.

A switch is a pure control-logic model: "forwarding" a packet means
returning a :class:`~repro.dataplane.decisions.ForwardingDecision` that the
simulation layer turns into latency and workload accounting.

The data path of Fig. 5 (flow table → L-FIB → G-FIB → ``Packet_In``) is
written once, for a *run* of packets of one flow key:
:meth:`EdgeSwitch.classify_run` reads what every packet of the run does and
:meth:`EdgeSwitch.apply_run` writes what they change.  The run of one is
:meth:`EdgeSwitch.forward_key` — what the planes call per flow, and what
``process_packet`` on a data packet presents as a decision; the vectorized
kernel (:mod:`repro.kernel`) asks the same two methods about a batch's whole
(src, dst) pairs.
"""

from __future__ import annotations

from typing import Callable, Collection, Iterable, Optional

from repro.common.addresses import IpAddress, MacAddress
from repro.common.config import BloomFilterConfig, FlowTableConfig
from repro.common.errors import ControlPlaneError
from repro.common.packets import DATA_PACKET_BYTES, EncapHeader, FlowKey, Packet, PacketKind
from repro.datastructures.bloom import BloomFilter
from repro.datastructures.fib import GroupFib, LocalFib
from repro.datastructures.flow_table import ActionType, FlowAction, FlowRule, FlowTable
from repro.dataplane.decisions import (
    DROPPED,
    INTRA_GROUP,
    LOCAL,
    PUNT,
    TABLE_HIT,
    ForwardingDecision,
    ForwardingOutcome,
    RunVerdict,
)
from repro.tables.policies import RemovalReason

#: Rule actions that forward; only these let a run be a run of table hits.
_FORWARDING_ACTIONS = (ActionType.FORWARD_LOCAL, ActionType.ENCAP_TO_SWITCH)

#: Callback a controller registers to receive ``flow_removed`` notifications:
#: ``(switch_id, rule, now, reason)``.
FlowRemovedHandler = Callable[[int, FlowRule, float, RemovalReason], None]


class EdgeSwitch:
    """What both edge switches share: identity, L-FIB, flow table, counters.

    Subclasses implement :meth:`_forward`, a live switch's routine for one
    packet, which counts the packet in ``packets_processed`` and hands a local
    host's data packet to :meth:`_forward_data`.
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
        # Copies beyond the first sent on G-FIB answers (0 without a G-FIB).
        self.duplicate_deliveries = 0

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
        if self.failed:
            self.packets_processed += 1
            return ForwardingDecision(
                outcome=ForwardingOutcome.DROPPED_NO_RULE,
                switch_id=self.switch_id,
                packet=packet,
                note="switch is failed",
            )
        return self._forward(packet, now)

    def _forward(self, packet: Packet, now: float) -> ForwardingDecision:
        raise NotImplementedError

    # -- the data path of Fig. 5, for a run of packets -------------------------

    def classify_run(
        self, key: FlowKey, first_t: float, max_gap: float, last_t: float
    ) -> Optional[RunVerdict]:
        """What a run of data packets of flow ``key`` from a local host does here.

        The packets arrive from ``first_t`` to ``last_t``, consecutive ones at
        most ``max_gap`` apart.  Pure: nothing on the switch changes.  The
        verdict holds for every packet of the run; ``None`` means the run is
        undecidable in bulk — a rule is resident but may expire within the
        run, is governed by a stateful policy, or drops / punts explicitly —
        and its packets must be processed one at a time.
        """
        table = self.flow_table
        rule = table.peek(key)
        if rule is None:
            return self._classify_miss(key)
        if rule.action.kind in _FORWARDING_ACTIONS and table.stays_alive(
            rule, first_t, max_gap, last_t
        ):
            return RunVerdict(TABLE_HIT, key, rule)
        return None

    def _classify_miss(self, key: FlowKey) -> RunVerdict:
        """Past a table miss: L-FIB, then G-FIB, else the controller."""
        entry = self.lfib.lookup(key.dst_mac)
        if entry is not None:
            return RunVerdict(LOCAL, key, None, entry.port)
        if self.gfib is not None:
            # The G-FIB answers a sorted (memoized) tuple of candidates.
            candidates = self.gfib.peek(key.dst_mac)
            if candidates:
                return RunVerdict(INTRA_GROUP, key, None, None, candidates)
        return RunVerdict(PUNT, key)

    def apply_run(
        self, verdict: RunVerdict, n: int, last_t: float, size_bytes: int = DATA_PACKET_BYTES
    ) -> None:
        """What ``n`` packets of a classified run, the last at ``last_t``, change here.

        Exactly what ``n`` :meth:`process_packet` calls would: ``verdict``
        must come from :meth:`classify_run` over those arrivals, with no
        change to the switch in between.
        """
        self.packets_processed += n
        self.flow_table.account_run(verdict.rule, n, last_t, size_bytes)
        if verdict.rule is None:
            self._apply_miss(verdict, n)

    def _apply_miss(self, verdict: RunVerdict, n: int) -> None:
        """What ``n`` packets count past the table miss :meth:`_classify_miss` judged."""
        if verdict.outcome is LOCAL:
            return
        if self.gfib is not None:
            self.gfib.account_queries(verdict.key.dst_mac, verdict.target_switches, n)
        if verdict.outcome is INTRA_GROUP:
            self.duplicate_deliveries += (len(verdict.target_switches) - 1) * n
        else:
            self.packets_to_controller += n

    def forward_key(self, key: FlowKey, now: float, size_bytes: int = DATA_PACKET_BYTES) -> RunVerdict:
        """Lines 1-21 of Fig. 5 for one data packet of ``key`` from a local host: the run of one.

        Applied: whatever the packet changes here has happened.  Beyond
        :meth:`classify_run`'s four outcomes, a failed switch or a ``DROP``
        rule answers ``DROPPED_NO_RULE`` and a ``SEND_TO_CONTROLLER`` rule
        punts, the verdict carrying the rule.
        """
        if self.failed:
            self.packets_processed += 1
            return RunVerdict(DROPPED, key)
        verdict = self.classify_run(key, now, 0.0, now)
        if verdict is not None:
            self.apply_run(verdict, 1, now, size_bytes)
            return verdict
        # A resident rule no run can vouch for.  This packet's own lookup
        # settles it: expires the rule, shows a stateful policy the match,
        # or finds an explicit drop / send-to-controller action.
        self.packets_processed += 1
        rule = self.flow_table.lookup(key, now=now, size_bytes=size_bytes)
        if rule is None:
            verdict = self._classify_miss(key)
            self._apply_miss(verdict, 1)
            return verdict
        kind = rule.action.kind
        if kind in _FORWARDING_ACTIONS:
            return RunVerdict(TABLE_HIT, key, rule)
        if kind == ActionType.DROP:
            return RunVerdict(DROPPED, key, rule)
        self.packets_to_controller += 1
        return RunVerdict(PUNT, key, rule)

    def _forward_data(self, packet: Packet, now: float) -> ForwardingDecision:
        """A live switch's :meth:`forward_key` for a local host's packet, as a decision."""
        key = FlowKey(src_mac=packet.src_mac, dst_mac=packet.dst_mac, tenant_id=packet.tenant_id)
        verdict = self.forward_key(key, now, packet.size_bytes)
        if verdict.rule is not None and verdict.outcome is not PUNT:
            return self._apply_rule(verdict.rule, packet)
        return ForwardingDecision(
            outcome=verdict.outcome,
            switch_id=self.switch_id,
            packet=packet,
            target_switches=verdict.target_switches,
            local_port=verdict.local_port,
            duplicate_count=max(0, len(verdict.target_switches) - 1),
            note="explicit send-to-controller rule" if verdict.rule is not None else "",
        )

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

    def _punt(self, packet: Packet, outcome: ForwardingOutcome) -> ForwardingDecision:
        """Hand an ARP or tunnelled packet to the controller (a ``Packet_In``)."""
        self.packets_to_controller += 1
        return ForwardingDecision(outcome=outcome, switch_id=self.switch_id, packet=packet)

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
        self.duplicate_deliveries = 0


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

    def summarize_lfib(self) -> BloomFilter:
        """The Bloom summary of this switch's L-FIB, built now: what its group peers hold."""
        return self.gfib.summarize(self.lfib.macs())

    def install_peer_summary(self, peer_switch_id: int, summary: BloomFilter, macs: Collection[MacAddress]) -> None:
        """Install/update the G-FIB entry for a peer with the ``summary`` it built of its ``macs``."""
        if peer_switch_id == self.switch_id:
            raise ControlPlaneError("a switch does not keep a G-FIB entry for itself")
        self.gfib.install_summary(peer_switch_id, summary, macs)

    def install_peer_lfib(self, peer_switch_id: int, macs: Iterable[MacAddress]) -> None:
        """Install/update the Bloom filter summarizing a peer's L-FIB, building it here."""
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
        return self._forward_data(packet, now)

    def receive_run(self, dst_mac: MacAddress, n: int) -> bool:
        """Lines 22-29 of Fig. 5 for ``n`` copies of a packet to ``dst_mac`` sent over the underlay.

        Returns whether they were dropped as a false positive: the sender's
        Bloom filter matched, yet the destination is not in this L-FIB.
        """
        self.packets_processed += n
        if self.failed or dst_mac in self.lfib:
            return False
        self.false_positive_drops += n
        return True

    def _process_encapsulated(self, packet: Packet) -> ForwardingDecision:
        """One encapsulated packet: :meth:`receive_run` of one, as a decision."""
        if self.receive_run(packet.dst_mac, 1):
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
            local_port=self.lfib.lookup(packet.dst_mac).port,
        )

    def _process_arp_request(self, packet: Packet) -> ForwardingDecision:
        """Live state dissemination levels i-iii of §III-D.3 for ARP requests."""
        self.packets_processed += 1
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

    def storage_bytes(self) -> int:
        """Bytes of high-speed memory consumed by the G-FIB Bloom filters."""
        return self.gfib.storage_bytes()

    def reset_counters(self) -> None:
        """Zero the per-switch counters (between experiment phases)."""
        super().reset_counters()
        self.false_positive_drops = 0

    def __repr__(self) -> str:
        return (
            f"LazyCtrlEdgeSwitch(id={self.switch_id}, group={self.group_id}, "
            f"hosts={len(self.lfib)}, designated={self.is_designated})"
        )
