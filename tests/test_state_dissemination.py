"""Unit tests for live and asynchronous state dissemination."""

import pytest

from repro.common.config import GroupingConfig, LazyCtrlConfig
from repro.controlplane.lazyctrl_controller import LazyCtrlController
from repro.controlplane.state_dissemination import StateDisseminator
from repro.dataplane.edge_switch import LazyCtrlEdgeSwitch
from repro.partitioning.sgi import Grouping
from repro.topology.builder import TopologyProfile, build_multi_tenant_datacenter


@pytest.fixture()
def deployment():
    network = build_multi_tenant_datacenter(
        TopologyProfile(switch_count=6, host_count=60, seed=9, home_switches_per_tenant=2)
    )
    controller = LazyCtrlController(
        network, config=LazyCtrlConfig(grouping=GroupingConfig(group_size_limit=3, random_seed=9))
    )
    for info in network.switches():
        controller.register_switch(
            LazyCtrlEdgeSwitch(info.switch_id, management_mac=info.management_mac)
        )
    controller.bootstrap_host_locations()
    grouping = Grouping(groups={0: frozenset({0, 1, 2}), 1: frozenset({3, 4, 5})})
    controller.apply_grouping(grouping)
    return network, controller, StateDisseminator(network, controller)


class TestLiveDissemination:
    def test_host_appeared_updates_group_gfibs(self, deployment):
        network, controller, disseminator = deployment
        tenant = network.tenants.tenants()[0]
        host = network.attach_host(0, tenant.tenant_id)
        disseminator.host_appeared(host.host_id)
        # Peers in group 0 can now resolve the new host through their G-FIBs.
        assert 0 in controller.switch(1).gfib.query(host.mac)
        assert 0 in controller.switch(2).gfib.query(host.mac)
        assert disseminator.stats.live_events == 1
        assert disseminator.stats.peer_messages > 0

    def test_host_appeared_updates_clib_via_state_report(self, deployment):
        network, controller, disseminator = deployment
        tenant = network.tenants.tenants()[0]
        host = network.attach_host(2, tenant.tenant_id)
        disseminator.host_appeared(host.host_id)
        assert controller.clib.locate(host.mac) == 2


class TestMigration:
    def test_migration_moves_lfib_entries(self, deployment):
        network, controller, disseminator = deployment
        host = network.hosts_on_switch(0)[0]
        disseminator.migrate_host(host.host_id, 4)
        assert controller.switch(0).lfib.lookup(host.mac) is None
        assert controller.switch(4).lfib.lookup(host.mac) is not None
        assert disseminator.stats.migration_events == 1

    def test_migration_updates_clib_and_gfibs(self, deployment):
        network, controller, disseminator = deployment
        host = network.hosts_on_switch(0)[0]
        disseminator.migrate_host(host.host_id, 4)
        assert controller.clib.locate(host.mac) == 4
        # The new group's peers resolve the host at its new location.
        assert 4 in controller.switch(3).gfib.query(host.mac)

    def test_migration_to_same_switch_is_noop(self, deployment):
        network, controller, disseminator = deployment
        host = network.hosts_on_switch(0)[0]
        disseminator.migrate_host(host.host_id, 0)
        assert disseminator.stats.migration_events == 0


class TestBeforeAndOutsideGroups:
    def test_an_ungrouped_switch_disseminates_nothing(self):
        network = build_multi_tenant_datacenter(
            TopologyProfile(switch_count=3, host_count=30, seed=9, home_switches_per_tenant=2)
        )
        controller = LazyCtrlController(network)
        for info in network.switches():
            controller.register_switch(LazyCtrlEdgeSwitch(info.switch_id, management_mac=info.management_mac))
        disseminator = StateDisseminator(network, controller)
        host = network.attach_host(0, network.tenants.tenants()[0].tenant_id)
        disseminator.host_appeared(host.host_id)
        # The switch learned the host; with no group yet, nothing went out.
        assert host.mac in controller.switch(0).lfib
        assert (disseminator.stats.live_events, disseminator.stats.peer_messages) == (1, 0)
        assert disseminator.stats.state_reports == 0

    def test_a_group_the_controller_does_not_hold_is_an_error(self, deployment, monkeypatch):
        from repro.common.errors import ControlPlaneError

        network, controller, disseminator = deployment
        monkeypatch.setattr(type(controller), "groups", property(lambda self: {}))
        host = network.attach_host(0, network.tenants.tenants()[0].tenant_id)
        with pytest.raises(ControlPlaneError, match="not provisioned"):
            disseminator.host_appeared(host.host_id)

