"""Packet model for the LazyCtrl data plane.

The paper's forwarding routine (Fig. 5) distinguishes two packet kinds:

* *plain* packets that originate from a host directly attached to the edge
  switch currently processing them, and
* *encapsulated* packets that were wrapped in a GRE-like tunnel header by a
  remote edge switch and delivered over the IP underlay.

We model a packet as a small immutable record carrying the layer-2 addresses
of the communicating hosts, the tenant it belongs to, an optional
encapsulation header, and bookkeeping fields used by the latency evaluation
(creation time, size).  ARP requests/replies reuse the same record with a
dedicated :class:`PacketKind`.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace
from typing import Optional

from repro.common.addresses import IpAddress, MacAddress


#: Size of a full data packet; what a replayed flow's first packet weighs.
DATA_PACKET_BYTES = 1500


class PacketKind(enum.Enum):
    """The role a packet plays in the overlay."""

    DATA = "data"
    ARP_REQUEST = "arp_request"
    ARP_REPLY = "arp_reply"


@dataclass(frozen=True, slots=True)
class EncapHeader:
    """GRE-like encapsulation header added by the ``Encap`` action.

    The header targets the underlay IP address of the destination edge switch
    (paper §IV-B, "Encap action").  ``source_switch`` is retained so the
    receiving switch can attribute mis-forwarded packets when a Bloom-filter
    false positive occurs.
    """

    source_switch: int
    destination_switch: int
    tunnel_destination: IpAddress


@dataclass(frozen=True, slots=True)
class Packet:
    """A single overlay packet.

    Attributes
    ----------
    kind:
        Data packet or ARP request/reply.
    src_mac / dst_mac:
        Layer-2 addresses of the communicating virtual machines.  For ARP
        requests ``dst_mac`` is the address being resolved.
    tenant_id:
        The tenant (VLAN) the packet belongs to; the controller consults this
        when relaying ARP requests across groups.
    size_bytes:
        Payload size, used only for throughput accounting.
    created_at:
        Simulation time at which the packet entered the network, used by the
        latency evaluation.
    encap:
        Present iff the packet is currently encapsulated for underlay
        delivery.
    flow_id:
        Identifier of the flow this packet belongs to (trace replay sets it);
        ``None`` for control-plane generated packets.
    """

    kind: PacketKind
    src_mac: MacAddress
    dst_mac: MacAddress
    tenant_id: int
    size_bytes: int = DATA_PACKET_BYTES
    created_at: float = 0.0
    encap: Optional[EncapHeader] = None
    flow_id: Optional[int] = None

    @property
    def is_encapsulated(self) -> bool:
        """Whether the packet currently carries an encapsulation header."""
        return self.encap is not None

    @property
    def is_arp(self) -> bool:
        """Whether the packet is an ARP request or reply."""
        return self.kind in (PacketKind.ARP_REQUEST, PacketKind.ARP_REPLY)

    def _with_encap(self, encap: Optional[EncapHeader]) -> "Packet":
        """Copy of this packet with ``encap`` swapped.

        Constructed field by field rather than via ``dataclasses.replace``:
        encap/decap happens once per intra-group copy on the replay hot path
        and ``replace`` pays field introspection on every call.  Keep the
        field list in sync with the dataclass definition above.
        """
        return Packet(
            kind=self.kind,
            src_mac=self.src_mac,
            dst_mac=self.dst_mac,
            tenant_id=self.tenant_id,
            size_bytes=self.size_bytes,
            created_at=self.created_at,
            encap=encap,
            flow_id=self.flow_id,
        )

    def encapsulate(self, header: EncapHeader) -> "Packet":
        """Return a copy of this packet wrapped in ``header``."""
        return self._with_encap(header)

    def decapsulate(self) -> "Packet":
        """Return a copy of this packet with the encapsulation header removed."""
        return self._with_encap(None)

    def with_created_at(self, timestamp: float) -> "Packet":
        """Return a copy stamped with a new creation time."""
        return replace(self, created_at=timestamp)


@dataclass(frozen=True, slots=True, order=True)
class FlowKey:
    """Identity of a flow: the (source MAC, destination MAC, tenant) triple.

    The paper's traces are switch-to-switch/host-to-host; we keep the tenant
    in the key because inter-tenant communication is what the controller
    must always see.
    """

    src_mac: MacAddress
    dst_mac: MacAddress
    tenant_id: int

    def __hash__(self) -> int:
        # Flow keys are looked up in every switch's flow table per packet;
        # hashing the raw integers skips three nested dataclass hashes.
        # Consistent with the generated __eq__ (equal fields ⇒ equal hash).
        return hash((self.src_mac.value, self.dst_mac.value, self.tenant_id))

    def reversed(self) -> "FlowKey":
        """Return the key of the reverse direction of this flow."""
        return FlowKey(src_mac=self.dst_mac, dst_mac=self.src_mac, tenant_id=self.tenant_id)


def make_data_packet(
    src_mac: MacAddress,
    dst_mac: MacAddress,
    tenant_id: int,
    *,
    size_bytes: int = DATA_PACKET_BYTES,
    created_at: float = 0.0,
    flow_id: Optional[int] = None,
) -> Packet:
    """Convenience constructor for a plain data packet."""
    return Packet(
        kind=PacketKind.DATA,
        src_mac=src_mac,
        dst_mac=dst_mac,
        tenant_id=tenant_id,
        size_bytes=size_bytes,
        created_at=created_at,
        flow_id=flow_id,
    )


def make_arp_request(
    src_mac: MacAddress,
    target_mac: MacAddress,
    tenant_id: int,
    *,
    created_at: float = 0.0,
) -> Packet:
    """Convenience constructor for an ARP request resolving ``target_mac``."""
    return Packet(
        kind=PacketKind.ARP_REQUEST,
        src_mac=src_mac,
        dst_mac=target_mac,
        tenant_id=tenant_id,
        size_bytes=64,
        created_at=created_at,
    )


def make_arp_reply(
    src_mac: MacAddress,
    dst_mac: MacAddress,
    tenant_id: int,
    *,
    created_at: float = 0.0,
) -> Packet:
    """Convenience constructor for an ARP reply."""
    return Packet(
        kind=PacketKind.ARP_REPLY,
        src_mac=src_mac,
        dst_mac=dst_mac,
        tenant_id=tenant_id,
        size_bytes=64,
        created_at=created_at,
    )
