"""Unit tests for the baseline OpenFlow controller and the LazyCtrl controller."""

import pytest

from repro.common.addresses import IpAddress, MacAddress
from repro.common.config import GroupingConfig, LazyCtrlConfig
from repro.common.errors import ControlPlaneError
from repro.common.packets import FlowKey, make_data_packet
from repro.controlplane.lazyctrl_controller import LazyCtrlController
from repro.controlplane.openflow_controller import OpenFlowController
from repro.dataplane.openflow_switch import OpenFlowEdgeSwitch
from repro.partitioning.sgi import Grouping
from repro.topology.builder import TopologyProfile, build_multi_tenant_datacenter


def mac(i: int) -> MacAddress:
    return MacAddress.from_host_index(i)


def make_of_switch(switch_id: int) -> OpenFlowEdgeSwitch:
    return OpenFlowEdgeSwitch(
        switch_id,
        underlay_ip=IpAddress.from_switch_index(switch_id),
        management_mac=MacAddress.from_switch_index(switch_id),
    )


@pytest.fixture()
def network():
    return build_multi_tenant_datacenter(
        TopologyProfile(switch_count=8, host_count=80, seed=3, home_switches_per_tenant=2)
    )


@pytest.fixture()
def lazy_controller(network):
    controller = LazyCtrlController(
        network,
        config=LazyCtrlConfig(grouping=GroupingConfig(group_size_limit=3, random_seed=3)),
    )
    from repro.dataplane.edge_switch import LazyCtrlEdgeSwitch

    for info in network.switches():
        controller.register_switch(
            LazyCtrlEdgeSwitch(
                info.switch_id, underlay_ip=info.underlay_ip, management_mac=info.management_mac
            )
        )
    controller.bootstrap_host_locations()
    return controller


def simple_grouping(network, size: int = 3) -> Grouping:
    switch_ids = network.switch_ids()
    groups = {}
    for index in range(0, len(switch_ids), size):
        groups[index // size] = frozenset(switch_ids[index : index + size])
    return Grouping(groups=groups)


class TestOpenFlowController:
    def test_every_packet_in_counts_workload(self):
        controller = OpenFlowController()
        controller.register_switch(make_of_switch(0))
        key = FlowKey(mac(1), mac(2), 0)
        controller.handle_packet_in(0, key, now=1.0, true_destination_switch=1)
        assert controller.total_requests >= 1
        assert controller.workload_series.total() >= 1

    def test_unknown_destination_triggers_learning(self):
        controller = OpenFlowController()
        controller.register_switch(make_of_switch(0))
        key = FlowKey(mac(1), mac(2), 0)
        result = controller.handle_packet_in(0, key, now=1.0, true_destination_switch=3)
        assert result.needed_location_learning and result.installed_rule
        assert controller.arp_floods == 1
        # The flood is a second round of requests on top of the Packet_In.
        assert controller.total_requests == 2
        assert controller.located_switch(mac(2)) == 3
        assert controller.switch(0).flow_table.peek(key).action.target == 3

    def test_known_destination_skips_learning(self):
        controller = OpenFlowController()
        controller.register_switch(make_of_switch(0))
        controller.learn_location(mac(2), 5)
        result = controller.handle_packet_in(0, FlowKey(mac(1), mac(2), 0), now=1.0)
        assert not result.needed_location_learning
        assert result.egress_switch_id == 5

    def test_source_location_learned_from_packet_in(self):
        controller = OpenFlowController()
        controller.register_switch(make_of_switch(2))
        controller.handle_packet_in(2, FlowKey(mac(7), mac(8), 0), now=0.0, true_destination_switch=3)
        assert controller.located_switch(mac(7)) == 2

    def test_rule_installed_on_ingress_switch(self):
        controller = OpenFlowController()
        switch = make_of_switch(0)
        controller.register_switch(switch)
        key = FlowKey(mac(1), mac(2), 0)
        controller.handle_packet_in(0, key, now=1.0, true_destination_switch=4)
        assert FlowKey(mac(1), mac(2), 0) in switch.flow_table
        assert controller.flow_mods_sent == 1

    def test_local_rule_when_destination_on_same_switch(self):
        controller = OpenFlowController()
        switch = make_of_switch(0)
        switch.attach_host(mac(2), 7, 0)
        controller.register_switch(switch)
        controller.handle_packet_in(0, FlowKey(mac(1), mac(2), 0), now=1.0, true_destination_switch=0)
        rule = switch.flow_table.lookup(FlowKey(mac(1), mac(2), 0), now=1.0)
        assert rule.action.target == 7

    def test_unresolvable_destination(self):
        controller = OpenFlowController()
        controller.register_switch(make_of_switch(0))
        result = controller.handle_packet_in(0, FlowKey(mac(1), mac(2), 0), now=1.0)
        assert result.egress_switch_id is None and not result.installed_rule

    def test_current_load_rps(self):
        controller = OpenFlowController()
        controller.register_switch(make_of_switch(0))
        for i in range(20):
            controller.handle_packet_in(0, FlowKey(mac(1), mac(2 + i), 0), now=1.0 + i * 0.1,
                                        true_destination_switch=1)
        assert controller.current_load_rps(3.0) > 0


class TestLazyCtrlController:
    def test_bootstrap_fills_clib(self, lazy_controller, network):
        assert len(lazy_controller.clib) == network.host_count()

    def test_apply_grouping_provisions_groups(self, lazy_controller, network):
        grouping = simple_grouping(network)
        messages = lazy_controller.apply_grouping(grouping)
        assert messages == network.switch_count()
        assert set(lazy_controller.group_assignment()) == set(network.switch_ids())
        assert lazy_controller.regroupings_applied == 1

    def test_groups_have_synchronized_gfibs(self, lazy_controller, network):
        lazy_controller.apply_grouping(simple_grouping(network))
        for group in lazy_controller.groups.values():
            for member in group.members():
                assert member.gfib.peer_count() == len(group) - 1

    def test_packet_in_resolves_from_clib(self, lazy_controller, network):
        lazy_controller.apply_grouping(simple_grouping(network))
        hosts = network.hosts()
        src = hosts[0]
        dst = next(h for h in hosts if h.switch_id != src.switch_id)
        key = FlowKey(src.mac, dst.mac, src.tenant_id)
        result = lazy_controller.handle_packet_in(src.switch_id, key, now=1.0)
        assert result.resolved and result.egress_switch_id == dst.switch_id
        assert lazy_controller.total_requests == 1
        # The rule was installed on the ingress switch.
        ingress = lazy_controller.switch(src.switch_id)
        assert FlowKey(src.mac, dst.mac, src.tenant_id) in ingress.flow_table

    def test_packet_in_unknown_host_resolves_via_relay(self, lazy_controller, network):
        lazy_controller.apply_grouping(simple_grouping(network))
        hosts = network.hosts()
        src, dst = hosts[0], hosts[-1]
        lazy_controller.clib.remove_host(dst.mac)
        key = FlowKey(src.mac, dst.mac, src.tenant_id)
        result = lazy_controller.handle_packet_in(src.switch_id, key, now=1.0)
        assert result.resolved and result.egress_switch_id == dst.switch_id
        # The C-LIB missed, so the request went out to every group hosting the tenant.
        assert result.relayed_groups == lazy_controller.arp_relays > 0
        assert lazy_controller.clib.locate(dst.mac) == dst.switch_id
        assert key in lazy_controller.switch(src.switch_id).flow_table

    def test_packet_in_cold_lookup_swallows_only_unknown_host(self, lazy_controller, network, monkeypatch):
        """A destination nobody knows is a dropped flow; any other failure in
        the cold-C-LIB branch is a defect and must surface, not turn into one."""
        lazy_controller.apply_grouping(simple_grouping(network))
        src = network.hosts()[0]
        key = FlowKey(src.mac, mac(999_999), src.tenant_id)
        result = lazy_controller.handle_packet_in(src.switch_id, key, now=1.0)
        assert not result.resolved and result.egress_switch_id is None

        def broken(_mac):
            raise RuntimeError("unrelated defect")

        monkeypatch.setattr(network, "host_by_mac", broken)
        with pytest.raises(RuntimeError, match="unrelated defect"):
            lazy_controller.handle_packet_in(src.switch_id, key, now=2.0)

    def test_arp_escalation_relays_to_tenant_groups(self, lazy_controller, network):
        lazy_controller.apply_grouping(simple_grouping(network))
        host = network.hosts()[0]
        packet = make_data_packet(host.mac, mac(999_999), host.tenant_id)
        relayed = lazy_controller.handle_arp_escalation(host.switch_id, packet, now=1.0)
        expected_groups = lazy_controller.tenant_manager.groups_with_tenant(
            host.tenant_id, lazy_controller.group_assignment()
        )
        assert relayed == len(expected_groups)

    def test_state_reports_update_clib(self, lazy_controller, network):
        lazy_controller.apply_grouping(simple_grouping(network))
        # Attach a brand-new host at a switch without telling the C-LIB.
        tenant = network.tenants.tenants()[0]
        new_host = network.attach_host(0, tenant.tenant_id)
        lazy_controller.switch(0).attach_host(new_host.mac, new_host.port, new_host.tenant_id)
        assert new_host.mac not in lazy_controller.clib
        changed = lazy_controller.collect_state_reports(now=10.0)
        assert changed >= 1
        assert lazy_controller.clib.locate(new_host.mac) == 0

    def test_unknown_switch_rejected(self, lazy_controller):
        with pytest.raises(ControlPlaneError):
            lazy_controller.switch(999)

    def test_storage_bytes_per_switch(self, lazy_controller, network):
        lazy_controller.apply_grouping(simple_grouping(network))
        storage = lazy_controller.storage_bytes_per_switch()
        assert set(storage) == set(network.switch_ids())
        assert all(value > 0 for value in storage.values())

    def test_periodic_check_without_grouping_is_noop(self, lazy_controller):
        assert lazy_controller.periodic_check(now=1000.0) is False

    def test_workload_series_buckets(self, lazy_controller, network):
        lazy_controller.apply_grouping(simple_grouping(network))
        hosts = network.hosts()
        src = hosts[0]
        dst = next(h for h in hosts if h.switch_id != src.switch_id)
        key = FlowKey(src.mac, dst.mac, src.tenant_id)
        lazy_controller.handle_packet_in(src.switch_id, key, now=3600.0)
        assert lazy_controller.workload_series.bucket_count(0) == 1
