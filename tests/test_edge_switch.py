"""Unit tests for the LazyCtrl edge switch (Fig. 5 forwarding routine)."""

import pytest

from repro.common.addresses import MacAddress
from repro.common.config import BloomFilterConfig, FlowTableConfig
from repro.common.errors import ControlPlaneError
from repro.common.packets import DATA_PACKET_BYTES, FlowKey
from repro.datastructures.flow_table import ActionType, FlowAction
from repro.dataplane.decisions import ForwardingOutcome
from repro.dataplane.edge_switch import LazyCtrlEdgeSwitch
from repro.tables.policies import RemovalReason


def make_switch(switch_id: int = 0) -> LazyCtrlEdgeSwitch:
    return LazyCtrlEdgeSwitch(
        switch_id,
        management_mac=MacAddress.from_switch_index(switch_id),
    )


def mac(i: int) -> MacAddress:
    return MacAddress.from_host_index(i)


class TestLocalProcessing:
    """Lines 1-21 of Fig. 5 for one data packet, as ``forward_key`` answers them."""

    def test_local_delivery_when_destination_attached(self):
        switch = make_switch()
        switch.attach_host(mac(1), port=1, tenant_id=0)
        switch.attach_host(mac(2), port=2, tenant_id=0)
        verdict = switch.forward_key(FlowKey(mac(1), mac(2), 0), now=0.0)
        assert verdict.outcome is ForwardingOutcome.LOCAL_DELIVERY
        assert verdict.local_port == 2
        assert switch.packets_to_controller == 0

    def test_flow_table_takes_precedence(self):
        switch = make_switch()
        switch.attach_host(mac(1), 1, 0)
        key = FlowKey(mac(1), mac(9), 0)
        switch.install_flow_rule(key, FlowAction(ActionType.ENCAP_TO_SWITCH, 7))
        switch.gfib.install_peer(5, [mac(9)])
        verdict = switch.forward_key(key, now=0.0)
        assert verdict.outcome is ForwardingOutcome.FLOW_TABLE_HIT
        assert verdict.rule.action == FlowAction(ActionType.ENCAP_TO_SWITCH, 7)
        assert switch.gfib.query_count == 0

    def test_flow_table_drop_rule(self):
        switch = make_switch()
        key = FlowKey(mac(1), mac(9), 0)
        switch.install_flow_rule(key, FlowAction(ActionType.DROP))
        verdict = switch.forward_key(key, now=0.0)
        assert verdict.outcome is ForwardingOutcome.DROPPED_NO_RULE
        assert verdict.rule.action.kind is ActionType.DROP
        assert switch.packets_processed == 1 and switch.packets_to_controller == 0

    def test_flow_table_send_to_controller_rule(self):
        switch = make_switch()
        key = FlowKey(mac(1), mac(9), 0)
        switch.install_flow_rule(key, FlowAction(ActionType.SEND_TO_CONTROLLER))
        verdict = switch.forward_key(key, now=0.0)
        assert verdict.outcome is ForwardingOutcome.SENT_TO_CONTROLLER
        assert verdict.rule is not None
        assert switch.packets_to_controller == 1

    def test_gfib_resolves_intra_group_destination(self):
        switch = make_switch()
        switch.join_group(1)
        switch.gfib.install_peer(5, [mac(9)])
        verdict = switch.forward_key(FlowKey(mac(1), mac(9), 0), now=0.0)
        assert verdict.outcome is ForwardingOutcome.INTRA_GROUP_FORWARD
        assert verdict.target_switches == (5,)
        assert switch.packets_to_controller == 0

    def test_gfib_duplicates_counted(self):
        switch = make_switch()
        switch.join_group(1)
        switch.gfib.install_peer(5, [mac(9)])
        switch.gfib.install_peer(6, [mac(9)])
        verdict = switch.forward_key(FlowKey(mac(1), mac(9), 0), now=0.0)
        assert verdict.target_switches == (5, 6)
        assert switch.duplicate_deliveries == 1

    def test_unknown_destination_goes_to_controller(self):
        switch = make_switch()
        verdict = switch.forward_key(FlowKey(mac(1), mac(9), 0), now=0.0)
        assert verdict.outcome is ForwardingOutcome.SENT_TO_CONTROLLER
        assert verdict.rule is None
        assert switch.packets_to_controller == 1

    def test_failed_switch_drops(self):
        switch = make_switch()
        switch.attach_host(mac(2), 2, 0)
        switch.failed = True
        verdict = switch.forward_key(FlowKey(mac(1), mac(2), 0), now=0.0)
        assert verdict.outcome is ForwardingOutcome.DROPPED_NO_RULE
        assert verdict.rule is None
        assert switch.packets_processed == 1

    def test_a_packet_weighs_a_full_data_packet_unless_sized(self):
        switch = make_switch()
        key = FlowKey(mac(1), mac(9), 0)
        switch.install_flow_rule(key, FlowAction(ActionType.ENCAP_TO_SWITCH, 7))
        switch.forward_key(key, now=0.0)
        switch.forward_key(key, now=1.0, size_bytes=64)
        rule = switch.flow_table.peek(key)
        assert rule.packet_count == 2
        assert rule.byte_count == DATA_PACKET_BYTES + 64

    def test_an_expired_rule_falls_through_to_the_lfib(self):
        switch = LazyCtrlEdgeSwitch(
            0,
            management_mac=MacAddress.from_switch_index(0),
            flow_table_config=FlowTableConfig(idle_timeout_seconds=50.0),
        )
        switch.attach_host(mac(2), port=2, tenant_id=0)
        key = FlowKey(mac(1), mac(2), 0)
        switch.install_flow_rule(key, FlowAction(ActionType.ENCAP_TO_SWITCH, 7), now=0.0)
        assert switch.forward_key(key, now=10.0).outcome is ForwardingOutcome.FLOW_TABLE_HIT
        verdict = switch.forward_key(key, now=100.0)
        assert verdict.outcome is ForwardingOutcome.LOCAL_DELIVERY
        assert verdict.local_port == 2 and verdict.rule is None
        assert key not in switch.flow_table
        assert switch.packets_processed == 2


class TestEncapsulatedProcessing:
    """Lines 22-29 of Fig. 5: copies tunnelled here are delivered or dropped."""

    def test_delivery_after_decapsulation(self):
        destination = make_switch(1)
        destination.attach_host(mac(9), port=4, tenant_id=0)
        assert not destination.receive_run(mac(9), 1)
        assert destination.packets_processed == 1
        assert destination.false_positive_drops == 0

    def test_false_positive_copy_dropped(self):
        wrong_destination = make_switch(2)
        assert wrong_destination.receive_run(mac(9), 1)
        assert wrong_destination.false_positive_drops == 1

    def test_a_run_of_copies_counts_every_copy(self):
        destination = make_switch(1)
        destination.attach_host(mac(9), port=4, tenant_id=0)
        assert not destination.receive_run(mac(9), 3)
        assert destination.receive_run(mac(8), 5)
        assert destination.packets_processed == 8
        assert destination.false_positive_drops == 5

    def test_a_failed_receiver_counts_no_false_positive(self):
        failed = make_switch(2)
        failed.failed = True
        assert not failed.receive_run(mac(9), 2)
        assert failed.packets_processed == 2
        assert failed.false_positive_drops == 0


class TestGroupMembershipAndState:
    def test_join_group_clears_gfib(self):
        switch = make_switch()
        switch.join_group(1)
        switch.gfib.install_peer(5, [mac(9)])
        switch.join_group(2)
        assert switch.gfib.matching_peers(mac(9)) == ()
        assert switch.group_id == 2

    def test_cannot_install_own_lfib_as_peer(self):
        switch = make_switch(3)
        with pytest.raises(ControlPlaneError):
            switch.install_peer_summary(3, switch.summarize_lfib(), [])

    def test_detach_host(self):
        switch = make_switch()
        switch.attach_host(mac(1), 1, 0)
        assert switch.detach_host(mac(1))
        assert switch.local_hosts() == []

    def test_storage_bytes(self):
        config = BloomFilterConfig()
        switch = LazyCtrlEdgeSwitch(
            0,
            management_mac=MacAddress.from_switch_index(0),
            bloom_config=config,
        )
        for peer in range(1, 46):
            switch.gfib.install_peer(peer, [mac(peer)])
        # Paper §V-D: 45 filters of 2048 bytes = 92,160 bytes.
        assert switch.gfib.storage_bytes() == 92_160

    def test_lfib_summary_is_what_peers_install(self):
        source, holder = make_switch(), make_switch(switch_id=1)
        source.attach_host(mac(1), 1, 0)
        summary = source.summarize_lfib()
        assert mac(1).to_bytes() in summary
        holder.install_peer_summary(0, summary, source.local_hosts())
        assert holder.gfib.query(mac(1)) == (0,)
        with pytest.raises(ControlPlaneError):
            source.install_peer_summary(0, summary, source.local_hosts())

    def test_expiry_is_relayed_as_flow_removed(self):
        switch = LazyCtrlEdgeSwitch(
            4,
            management_mac=MacAddress.from_switch_index(4),
            flow_table_config=FlowTableConfig(idle_timeout_seconds=50.0),
        )
        removed = []
        switch.flow_removed_handler = lambda *notice: removed.append(notice)
        for dst in (2, 3):
            switch.install_flow_rule(FlowKey(mac(1), mac(dst), 0), FlowAction(ActionType.DROP), now=0.0)
        assert switch.advance_tables(10.0) == 0 and removed == []
        assert switch.advance_tables(100.0) == 2
        assert [(switch_id, rule.key.dst_mac, now, reason) for switch_id, rule, now, reason in removed] == [
            (4, mac(2), 100.0, RemovalReason.IDLE_TIMEOUT),
            (4, mac(3), 100.0, RemovalReason.IDLE_TIMEOUT),
        ]
        assert len(switch.flow_table) == 0

    def test_repr(self):
        assert "LazyCtrlEdgeSwitch" in repr(make_switch())
