"""Unit tests for the baseline OpenFlow edge switch: an ``EdgeSwitch`` with no G-FIB."""

from repro.common.addresses import MacAddress
from repro.common.packets import FlowKey
from repro.datastructures.flow_table import ActionType, FlowAction
from repro.dataplane.decisions import ForwardingOutcome
from repro.dataplane.edge_switch import EdgeSwitch


def make_switch(switch_id: int = 0) -> EdgeSwitch:
    return EdgeSwitch(
        switch_id,
        management_mac=MacAddress.from_switch_index(switch_id),
    )


def mac(i: int) -> MacAddress:
    return MacAddress.from_host_index(i)


def key(a: int, b: int) -> FlowKey:
    return FlowKey(mac(a), mac(b), 0)


class TestOpenFlowSwitch:
    def test_has_no_gfib(self):
        assert make_switch().gfib is None

    def test_table_miss_goes_to_controller(self):
        switch = make_switch()
        verdict = switch.forward_key(key(1, 2), now=0.0)
        assert verdict.outcome is ForwardingOutcome.SENT_TO_CONTROLLER
        assert switch.packets_to_controller == 1

    def test_flow_table_hit(self):
        switch = make_switch()
        switch.install_flow_rule(key(1, 2), FlowAction(ActionType.ENCAP_TO_SWITCH, 4))
        verdict = switch.forward_key(key(1, 2), now=0.0)
        assert verdict.outcome is ForwardingOutcome.FLOW_TABLE_HIT
        assert verdict.rule.action == FlowAction(ActionType.ENCAP_TO_SWITCH, 4)

    def test_local_delivery_without_rule(self):
        switch = make_switch()
        switch.attach_host(mac(2), 3, 0)
        verdict = switch.forward_key(key(1, 2), now=0.0)
        assert verdict.outcome is ForwardingOutcome.LOCAL_DELIVERY
        assert verdict.local_port == 3
        assert switch.packets_to_controller == 0

    def test_drop_rule(self):
        switch = make_switch()
        switch.install_flow_rule(key(1, 2), FlowAction(ActionType.DROP))
        verdict = switch.forward_key(key(1, 2), now=0.0)
        assert verdict.outcome is ForwardingOutcome.DROPPED_NO_RULE

    def test_send_to_controller_rule(self):
        switch = make_switch()
        switch.attach_host(mac(2), 3, 0)
        switch.install_flow_rule(key(1, 2), FlowAction(ActionType.SEND_TO_CONTROLLER))
        verdict = switch.forward_key(key(1, 2), now=0.0)
        assert verdict.outcome is ForwardingOutcome.SENT_TO_CONTROLLER
        assert switch.packets_to_controller == 1

    def test_forward_local_rule(self):
        switch = make_switch()
        switch.install_flow_rule(key(1, 2), FlowAction(ActionType.FORWARD_LOCAL, 9))
        verdict = switch.forward_key(key(1, 2), now=0.0)
        assert verdict.outcome is ForwardingOutcome.FLOW_TABLE_HIT
        assert verdict.rule.action.target == 9

    def test_failed_switch_drops(self):
        switch = make_switch()
        switch.failed = True
        verdict = switch.forward_key(key(1, 2), now=0.0)
        assert verdict.outcome is ForwardingOutcome.DROPPED_NO_RULE
        assert switch.packets_to_controller == 0

    def test_detach_host(self):
        switch = make_switch()
        switch.attach_host(mac(2), 3, 0)
        switch.detach_host(mac(2))
        verdict = switch.forward_key(key(1, 2), now=0.0)
        assert verdict.outcome is ForwardingOutcome.SENT_TO_CONTROLLER
