"""Interplay of ``DataCenterNetwork.migrate_host`` and ``StateDisseminator.migrate_host``.

Covers the three failure classes migrations can leave behind: stale MAC
entries (L-FIB/G-FIB/C-LIB disagreement), local-port reuse on the vacated
and receiving switches, and flows that are in flight while their destination
moves (stale controller-installed tunnel rules).
"""

import pytest

from repro.common.config import FlowTableConfig, GroupingConfig, LazyCtrlConfig
from repro.common.packets import FlowKey
from repro.core.results import FlowPathKind
from repro.core.system import LazyCtrlSystem
from repro.partitioning.sgi import Grouping
from repro.topology.builder import TopologyProfile, build_multi_tenant_datacenter
from repro.traffic.flow import FlowRecord


@pytest.fixture()
def system():
    network = build_multi_tenant_datacenter(
        TopologyProfile(switch_count=6, host_count=60, seed=9, home_switches_per_tenant=2)
    )
    system = LazyCtrlSystem(
        network,
        config=LazyCtrlConfig(
            grouping=GroupingConfig(group_size_limit=3, random_seed=9),
            flow_table=FlowTableConfig(idle_timeout_seconds=60.0),
        ),
        dynamic_grouping=True,
    )
    grouping = Grouping(groups={0: frozenset({0, 1, 2}), 1: frozenset({3, 4, 5})})
    system.controller.grouping_manager.current_grouping = grouping
    system.controller.apply_grouping(grouping)
    return system


class TestStaleMacEntries:
    def test_no_stale_entries_after_cross_group_migration(self, system):
        network = system.network
        host = network.hosts_on_switch(0)[0]
        system.disseminator.migrate_host(host.host_id, 4)
        migrated = network.host(host.host_id)

        # Old switch L-FIB forgot the host.
        assert system.controller.switch(0).lfib.lookup(migrated.mac) is None
        # Old group peers' G-FIBs were rebuilt from the shrunken L-FIB, so
        # the old location is no longer advertised.
        assert 0 not in system.controller.switch(1).gfib.query(migrated.mac)
        assert 0 not in system.controller.switch(2).gfib.query(migrated.mac)
        # New group peers resolve the new location; the C-LIB agrees.
        assert 4 in system.controller.switch(3).gfib.query(migrated.mac)
        assert system.controller.clib.locate(migrated.mac) == 4

    def test_lfib_port_matches_topology_after_migration(self, system):
        network = system.network
        host = network.hosts_on_switch(0)[0]
        system.disseminator.migrate_host(host.host_id, 4)
        migrated = network.host(host.host_id)
        entry = system.controller.switch(4).lfib.lookup(migrated.mac)
        assert entry is not None and entry.port == migrated.port


class TestPortReuse:
    def test_freed_port_is_reused_not_leapfrogged(self, system):
        network = system.network
        victims = network.hosts_on_switch(0)
        assert len(victims) >= 2
        freed = victims[0]
        freed_port = freed.port
        system.disseminator.migrate_host(freed.host_id, 3)
        # A host migrating in takes the freed port, not max+1.
        incoming = network.hosts_on_switch(4)[0]
        system.disseminator.migrate_host(incoming.host_id, 0)
        assert network.host(incoming.host_id).port == freed_port

    def test_ports_stay_unique_per_switch_under_churning_migrations(self, system):
        network = system.network
        # Shuffle several hosts through switch 2 and back.
        for host in list(network.hosts_on_switch(0))[:3]:
            system.disseminator.migrate_host(host.host_id, 2)
        for host in list(network.hosts_on_switch(2))[:4]:
            system.disseminator.migrate_host(host.host_id, 5)
        for switch_id in network.switch_ids():
            ports = [h.port for h in network.hosts_on_switch(switch_id)]
            assert len(ports) == len(set(ports)), f"duplicate port on switch {switch_id}"

    def test_attach_after_departure_reuses_port(self, system):
        network = system.network
        victim = network.hosts_on_switch(0)[0]
        victim_port = victim.port
        tenant_id = victim.tenant_id
        system.disseminator.host_departed(victim.host_id)
        assert not network.has_host(victim.host_id)
        replacement = network.attach_host(0, tenant_id)
        assert replacement.port == victim_port
        # But identifiers and MACs are never recycled.
        assert replacement.host_id != victim.host_id
        assert replacement.mac != victim.mac


class TestInFlightFlows:
    def _inter_group_flow(self, system, flow_id=1, start=0.0):
        src = system.network.hosts_on_switch(0)[0]
        dst = system.network.hosts_on_switch(3)[0]
        return src, dst, FlowRecord(
            start_time=start,
            flow_id=flow_id,
            src_host_id=src.host_id,
            dst_host_id=dst.host_id,
        )

    def test_in_flight_flow_keeps_stale_tunnel_until_timeout(self, system):
        src, dst, flow = self._inter_group_flow(system)
        first = system.handle_flow_arrival(flow, 0.0)
        assert first.path == FlowPathKind.INTER_GROUP  # controller installed a rule

        # The destination migrates while the flow is in flight.
        system.disseminator.migrate_host(dst.host_id, 5)

        # Packets of the same flow still hit the (now stale) tunnel rule.
        stale = system.handle_flow_arrival(flow, 2.0)
        assert stale.path == FlowPathKind.FLOW_TABLE
        assert stale.dst_switch_id == 5  # ground truth moved...
        rule = system.controller.switch(0).flow_table.lookup(
            FlowKey(
                src_mac=src.mac, dst_mac=dst.mac, tenant_id=src.tenant_id
            ),
            now=2.0,
        )
        assert rule is not None and rule.action.target == 3  # ...but the rule did not

        # After the idle timeout expires the flow is set up afresh against
        # the new location.
        renewed = system.handle_flow_arrival(flow, 2.0 + 120.0)
        assert renewed.path == FlowPathKind.INTER_GROUP
        renewed_rule = system.controller.switch(0).flow_table.lookup(
            FlowKey(
                src_mac=src.mac, dst_mac=dst.mac, tenant_id=src.tenant_id
            ),
            now=2.0 + 120.0,
        )
        assert renewed_rule is not None and renewed_rule.action.target == 5

    def test_new_flow_after_migration_resolves_new_location(self, system):
        src, dst, _ = self._inter_group_flow(system)
        system.disseminator.migrate_host(dst.host_id, 5)
        flow = FlowRecord(start_time=1.0, flow_id=2, src_host_id=src.host_id, dst_host_id=dst.host_id)
        result = system.handle_flow_arrival(flow, 1.0)
        assert result.path == FlowPathKind.INTER_GROUP
        assert result.dst_switch_id == 5
        rule = system.controller.switch(0).flow_table.lookup(
            FlowKey(
                src_mac=src.mac, dst_mac=dst.mac, tenant_id=src.tenant_id
            ),
            now=1.0,
        )
        assert rule is not None and rule.action.target == 5

    def test_flow_to_departed_host_is_skipped(self, system):
        src, dst, flow = self._inter_group_flow(system)
        system.churn_tenant_departure(dst.tenant_id)
        assert system.handle_flow_arrival(flow, 1.0) is None
        assert system.counters.departed_flows == 1
