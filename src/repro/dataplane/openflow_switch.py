"""Baseline OpenFlow edge switch.

The comparison point of the paper's evaluation is "standard OpenFlow control
(with the original Floodlight implementation)": a plain reactive design in
which every edge switch consults only its flow table and punts every miss to
the central controller as a ``Packet_In``.  This switch therefore has an
L-FIB for locally attached hosts (an ordinary learning MAC table) but no
G-FIB and no group membership.
"""

from __future__ import annotations

from typing import Optional

from repro.common.addresses import MacAddress
from repro.common.packets import FlowKey, Packet, PacketKind
from repro.dataplane.decisions import ForwardingDecision, ForwardingOutcome
from repro.dataplane.edge_switch import EdgeSwitch


class OpenFlowEdgeSwitch(EdgeSwitch):
    """A reactive OpenFlow switch: flow table + local MAC learning only."""

    def _forward(self, packet: Packet, now: float) -> ForwardingDecision:
        """Flow-table lookup, then local delivery, otherwise Packet_In.

        A local host's data packet takes the shared run-of-one routine (with
        no G-FIB it is exactly that); ARP and tunnelled packets follow below.
        """
        if packet.kind == PacketKind.DATA and not packet.is_encapsulated:
            return self._forward_data(packet, now)
        self.packets_processed += 1
        key = FlowKey(src_mac=packet.src_mac, dst_mac=packet.dst_mac, tenant_id=packet.tenant_id)
        rule = self.flow_table.lookup(key, now=now, size_bytes=packet.size_bytes)
        if rule is not None:
            decision = self._apply_rule(rule, packet)
            if decision is not None:
                return decision
            # A SEND_TO_CONTROLLER rule is handled like a table miss.

        # ARP requests for local hosts can be answered without the controller;
        # everything else is a table miss and becomes a Packet_In.
        local_entry = self.lfib.lookup(packet.dst_mac)
        is_arp_request = packet.kind == PacketKind.ARP_REQUEST
        if local_entry is not None:
            if is_arp_request:
                return ForwardingDecision(
                    outcome=ForwardingOutcome.ARP_RESOLVED_LOCALLY,
                    switch_id=self.switch_id,
                    packet=packet,
                )
            if not packet.is_encapsulated:
                return ForwardingDecision(
                    outcome=ForwardingOutcome.LOCAL_DELIVERY,
                    switch_id=self.switch_id,
                    packet=packet,
                    local_port=local_entry.port,
                )
        return self._punt(
            packet,
            ForwardingOutcome.ARP_FORWARDED_TO_CONTROLLER
            if is_arp_request
            else ForwardingOutcome.SENT_TO_CONTROLLER,
        )

    def local_host(self, mac: MacAddress) -> Optional[int]:
        """Port of a locally attached host, or ``None``."""
        entry = self.lfib.lookup(mac)
        return entry.port if entry else None
