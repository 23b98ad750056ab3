"""Unit tests for the LazyCtrl edge switch (Fig. 5 forwarding routine)."""

import pytest

from repro.common.addresses import IpAddress, MacAddress
from repro.common.config import BloomFilterConfig
from repro.common.errors import ControlPlaneError
from repro.common.packets import FlowKey, make_arp_request, make_data_packet
from repro.datastructures.flow_table import ActionType, FlowAction
from repro.dataplane.decisions import ForwardingOutcome
from repro.dataplane.edge_switch import LazyCtrlEdgeSwitch


def make_switch(switch_id: int = 0) -> LazyCtrlEdgeSwitch:
    return LazyCtrlEdgeSwitch(
        switch_id,
        underlay_ip=IpAddress.from_switch_index(switch_id),
        management_mac=MacAddress.from_switch_index(switch_id),
    )


def mac(i: int) -> MacAddress:
    return MacAddress.from_host_index(i)


class TestLocalProcessing:
    def test_local_delivery_when_destination_attached(self):
        switch = make_switch()
        switch.attach_host(mac(1), port=1, tenant_id=0)
        switch.attach_host(mac(2), port=2, tenant_id=0)
        decision = switch.process_packet(make_data_packet(mac(1), mac(2), 0))
        assert decision.outcome == ForwardingOutcome.LOCAL_DELIVERY
        assert decision.local_port == 2
        assert not decision.involves_controller

    def test_flow_table_takes_precedence(self):
        switch = make_switch()
        switch.attach_host(mac(1), 1, 0)
        key = FlowKey(mac(1), mac(9), 0)
        switch.install_flow_rule(key, FlowAction(ActionType.ENCAP_TO_SWITCH, 7))
        decision = switch.process_packet(make_data_packet(mac(1), mac(9), 0))
        assert decision.outcome == ForwardingOutcome.FLOW_TABLE_HIT
        assert decision.target_switches == (7,)

    def test_flow_table_drop_rule(self):
        switch = make_switch()
        key = FlowKey(mac(1), mac(9), 0)
        switch.install_flow_rule(key, FlowAction(ActionType.DROP))
        decision = switch.process_packet(make_data_packet(mac(1), mac(9), 0))
        assert decision.outcome == ForwardingOutcome.DROPPED_NO_RULE

    def test_flow_table_send_to_controller_rule(self):
        switch = make_switch()
        key = FlowKey(mac(1), mac(9), 0)
        switch.install_flow_rule(key, FlowAction(ActionType.SEND_TO_CONTROLLER))
        decision = switch.process_packet(make_data_packet(mac(1), mac(9), 0))
        assert decision.outcome == ForwardingOutcome.SENT_TO_CONTROLLER
        assert decision.involves_controller

    def test_gfib_resolves_intra_group_destination(self):
        switch = make_switch()
        switch.join_group(1)
        switch.install_peer_lfib(5, [mac(9)])
        decision = switch.process_packet(make_data_packet(mac(1), mac(9), 0))
        assert decision.outcome == ForwardingOutcome.INTRA_GROUP_FORWARD
        assert decision.target_switches == (5,)
        assert decision.delivered

    def test_gfib_duplicates_counted(self):
        switch = make_switch()
        switch.join_group(1)
        switch.install_peer_lfib(5, [mac(9)])
        switch.install_peer_lfib(6, [mac(9)])
        decision = switch.process_packet(make_data_packet(mac(1), mac(9), 0))
        assert decision.duplicate_count == 1
        assert switch.duplicate_deliveries == 1

    def test_unknown_destination_goes_to_controller(self):
        switch = make_switch()
        decision = switch.process_packet(make_data_packet(mac(1), mac(9), 0))
        assert decision.outcome == ForwardingOutcome.SENT_TO_CONTROLLER
        assert switch.packets_to_controller == 1

    def test_failed_switch_drops(self):
        switch = make_switch()
        switch.failed = True
        decision = switch.process_packet(make_data_packet(mac(1), mac(2), 0))
        assert decision.outcome == ForwardingOutcome.DROPPED_NO_RULE


class TestEncapsulatedProcessing:
    def test_delivery_after_decapsulation(self):
        source = make_switch(0)
        destination = make_switch(1)
        destination.attach_host(mac(9), port=4, tenant_id=0)
        header = source.make_encap_header(1, destination.underlay_ip)
        packet = make_data_packet(mac(1), mac(9), 0).encapsulate(header)
        decision = destination.process_packet(packet)
        assert decision.outcome == ForwardingOutcome.DELIVERED_AFTER_DECAP
        assert decision.local_port == 4

    def test_false_positive_copy_dropped(self):
        source = make_switch(0)
        wrong_destination = make_switch(2)
        header = source.make_encap_header(2, wrong_destination.underlay_ip)
        packet = make_data_packet(mac(1), mac(9), 0).encapsulate(header)
        decision = wrong_destination.process_packet(packet)
        assert decision.outcome == ForwardingOutcome.DROPPED_FALSE_POSITIVE
        assert wrong_destination.false_positive_drops == 1


class TestArpProcessing:
    def test_arp_resolved_locally(self):
        switch = make_switch()
        switch.attach_host(mac(9), 1, 0)
        decision = switch.process_packet(make_arp_request(mac(1), mac(9), 0))
        assert decision.outcome == ForwardingOutcome.ARP_RESOLVED_LOCALLY

    def test_arp_forwarded_to_designated_when_gfib_matches(self):
        switch = make_switch()
        switch.join_group(3)
        switch.install_peer_lfib(7, [mac(9)])
        decision = switch.process_packet(make_arp_request(mac(1), mac(9), 0))
        assert decision.outcome == ForwardingOutcome.ARP_FORWARDED_TO_DESIGNATED
        assert decision.target_switches == (7,)

    def test_arp_escalated_to_controller(self):
        switch = make_switch()
        decision = switch.process_packet(make_arp_request(mac(1), mac(9), 0))
        assert decision.outcome == ForwardingOutcome.ARP_FORWARDED_TO_CONTROLLER
        assert decision.involves_controller


class TestGroupMembershipAndState:
    def test_join_group_clears_gfib(self):
        switch = make_switch()
        switch.join_group(1)
        switch.install_peer_lfib(5, [mac(9)])
        switch.join_group(2)
        assert switch.gfib.peer_count() == 0
        assert switch.group_id == 2

    def test_leave_group(self):
        switch = make_switch()
        switch.join_group(1, designated=True)
        switch.leave_group()
        assert switch.group_id is None and not switch.is_designated

    def test_cannot_install_own_lfib_as_peer(self):
        switch = make_switch(3)
        with pytest.raises(ControlPlaneError):
            switch.install_peer_lfib(3, [mac(1)])

    def test_remove_peer(self):
        switch = make_switch()
        switch.install_peer_lfib(5, [mac(9)])
        switch.remove_peer(5)
        assert switch.gfib.peer_count() == 0

    def test_detach_host(self):
        switch = make_switch()
        switch.attach_host(mac(1), 1, 0)
        assert switch.detach_host(mac(1))
        assert switch.local_hosts() == []

    def test_storage_bytes(self):
        config = BloomFilterConfig()
        switch = LazyCtrlEdgeSwitch(
            0,
            underlay_ip=IpAddress.from_switch_index(0),
            management_mac=MacAddress.from_switch_index(0),
            bloom_config=config,
        )
        for peer in range(1, 46):
            switch.install_peer_lfib(peer, [mac(peer)])
        # Paper §V-D: 45 filters of 2048 bytes = 92,160 bytes.
        assert switch.storage_bytes() == 92_160

    def test_lfib_summary_is_what_peers_install(self):
        source, holder = make_switch(), make_switch(switch_id=1)
        source.attach_host(mac(1), 1, 0)
        summary = source.summarize_lfib()
        assert mac(1).to_bytes() in summary and summary.inserted_count == 1
        holder.install_peer_summary(0, summary, source.local_hosts())
        assert holder.gfib.query(mac(1)) == (0,)
        with pytest.raises(ControlPlaneError):
            source.install_peer_summary(0, summary, source.local_hosts())

    def test_reset_counters(self):
        switch = make_switch()
        switch.process_packet(make_data_packet(mac(1), mac(2), 0))
        switch.reset_counters()
        assert switch.packets_processed == 0
        assert switch.packets_to_controller == 0

    def test_repr(self):
        assert "LazyCtrlEdgeSwitch" in repr(make_switch())
