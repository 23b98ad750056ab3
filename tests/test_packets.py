"""Unit tests for the packet model."""

import pytest

from repro.common.addresses import IpAddress, MacAddress
from repro.common.packets import (
    EncapHeader,
    FlowKey,
    PacketKind,
    make_arp_reply,
    make_arp_request,
    make_data_packet,
)


@pytest.fixture()
def macs():
    return MacAddress.from_host_index(1), MacAddress.from_host_index(2)


class TestPacket:
    def test_data_packet_defaults(self, macs):
        src, dst = macs
        packet = make_data_packet(src, dst, tenant_id=3)
        assert packet.kind == PacketKind.DATA
        assert not packet.is_encapsulated
        assert not packet.is_arp
        assert packet.tenant_id == 3

    def test_encapsulate_and_decapsulate(self, macs):
        src, dst = macs
        packet = make_data_packet(src, dst, 0)
        header = EncapHeader(source_switch=1, destination_switch=2, tunnel_destination=IpAddress.from_switch_index(2))
        wrapped = packet.encapsulate(header)
        assert wrapped.is_encapsulated
        assert wrapped.encap.destination_switch == 2
        unwrapped = wrapped.decapsulate()
        assert not unwrapped.is_encapsulated
        # Original packet is unchanged (immutability).
        assert not packet.is_encapsulated

    def test_encapsulate_matches_dataclasses_replace(self, macs):
        """Guard the hand-rolled fast copy against Packet field drift.

        ``_with_encap`` enumerates every field for speed; if a field is ever
        added to ``Packet`` and forgotten there, this equality breaks.
        """
        import dataclasses

        src, dst = macs
        packet = make_data_packet(src, dst, 3, size_bytes=900, created_at=7.5, flow_id=11)
        header = EncapHeader(source_switch=1, destination_switch=2, tunnel_destination=IpAddress.from_switch_index(2))
        assert packet.encapsulate(header) == dataclasses.replace(packet, encap=header)
        assert packet.encapsulate(header).decapsulate() == packet

    def test_with_created_at(self, macs):
        src, dst = macs
        packet = make_data_packet(src, dst, 0)
        stamped = packet.with_created_at(12.5)
        assert stamped.created_at == 12.5
        assert packet.created_at == 0.0

    def test_arp_request_is_arp(self, macs):
        src, dst = macs
        arp = make_arp_request(src, dst, tenant_id=1)
        assert arp.is_arp
        assert arp.kind == PacketKind.ARP_REQUEST

    def test_arp_reply_is_arp(self, macs):
        src, dst = macs
        arp = make_arp_reply(src, dst, tenant_id=1)
        assert arp.kind == PacketKind.ARP_REPLY

    def test_arp_packets_are_small(self, macs):
        src, dst = macs
        assert make_arp_request(src, dst, 0).size_bytes < 100


class TestFlowKey:
    def test_reversed_swaps_endpoints(self, macs):
        src, dst = macs
        key = FlowKey(src_mac=src, dst_mac=dst, tenant_id=4)
        rev = key.reversed()
        assert rev.src_mac == dst and rev.dst_mac == src and rev.tenant_id == 4

    def test_double_reverse_is_identity(self, macs):
        src, dst = macs
        key = FlowKey(src_mac=src, dst_mac=dst, tenant_id=4)
        assert key.reversed().reversed() == key

    def test_flow_key_hashable(self, macs):
        src, dst = macs
        keys = {FlowKey(src, dst, 0), FlowKey(src, dst, 0), FlowKey(dst, src, 0)}
        assert len(keys) == 2

    def test_tenant_distinguishes_keys(self, macs):
        src, dst = macs
        assert FlowKey(src, dst, 0) != FlowKey(src, dst, 1)
