"""Baseline centralized OpenFlow controller (Floodlight-like reactive control).

This is the comparison point of the paper's evaluation: a logically
centralized controller that handles **every** flow in the network.  Each new
flow triggers a ``Packet_In``; the controller learns host locations through
ARP flooding (the Floodlight ``learning-switch`` behaviour the paper
mentions), installs a reactive flow rule on the ingress switch and forwards
the packet.  Its workload therefore scales with the total flow-arrival rate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.common.addresses import MacAddress
from repro.common.packets import FlowKey
from repro.controlplane.base import EdgeController


@dataclass(frozen=True, slots=True)
class PacketInResult:
    """What the baseline controller did with one Packet_In."""

    ingress_switch_id: int
    egress_switch_id: Optional[int]
    needed_location_learning: bool
    installed_rule: bool


class OpenFlowController(EdgeController):
    """Reactive centralized controller handling every flow setup itself."""

    def __init__(self, *, workload_bucket_seconds: float = 7200.0) -> None:
        super().__init__(workload_bucket_seconds=workload_bucket_seconds)
        self._learned_locations: Dict[MacAddress, int] = {}
        self.arp_floods = 0

    # -- location learning -------------------------------------------------------

    def knows_location(self, mac: MacAddress) -> bool:
        """Whether the controller has already learned where ``mac`` lives."""
        return mac in self._learned_locations

    def learn_location(self, mac: MacAddress, switch_id: int) -> None:
        """Record a learned host location (from a Packet_In source or ARP reply)."""
        self._learned_locations[mac] = switch_id

    def forget_location(self, mac: MacAddress) -> None:
        """Drop a learned location (cache expiry; used by cold-cache experiments)."""
        self._learned_locations.pop(mac, None)

    def located_switch(self, mac: MacAddress) -> Optional[int]:
        """The switch the controller believes hosts ``mac``."""
        return self._learned_locations.get(mac)

    # -- Packet_In handling -------------------------------------------------------

    def handle_packet_in(
        self,
        ingress_switch_id: int,
        key: FlowKey,
        now: float,
        *,
        true_destination_switch: Optional[int] = None,
    ) -> PacketInResult:
        """Process one Packet_In for the first packet of flow ``key``.

        ``true_destination_switch`` is the ground-truth location of the
        destination host, supplied by the experiment harness; when the
        controller has not learned that location yet it performs an ARP-flood
        learning round (extra workload) before it can install the rule, which
        is what makes baseline cold-cache latency high.
        """
        self._record_request(ingress_switch_id, now, "reactive")
        # Learning-switch behaviour: the Packet_In itself teaches the
        # controller where the source lives.
        self.learn_location(key.src_mac, ingress_switch_id)

        needed_learning = False
        egress = self.located_switch(key.dst_mac)
        if egress is None:
            needed_learning = True
            self.arp_floods += 1
            # The flood itself generates additional controller work (one more
            # round of Packet_Ins carrying the replies).
            self._record_request(ingress_switch_id, now, "arp_flood")
            egress = true_destination_switch
            if egress is not None:
                self.learn_location(key.dst_mac, egress)

        installed = False
        if egress is not None:
            self._install_forwarding_rule(ingress_switch_id, key, egress, now)
            installed = True
        return PacketInResult(
            ingress_switch_id=ingress_switch_id,
            egress_switch_id=egress,
            needed_location_learning=needed_learning,
            installed_rule=installed,
        )
