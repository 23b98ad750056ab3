"""Unit tests for hosts, tenants and the data-center network model."""

import pytest

from repro.common.errors import ConfigurationError, TopologyError, UnknownHostError, UnknownSwitchError
from repro.topology.builder import (
    TopologyProfile,
    build_multi_tenant_datacenter,
    build_paper_real_topology,
    build_paper_synthetic_topology,
)
from repro.topology.network import DataCenterNetwork
from repro.topology.tenant import TenantDirectory


class TestTenantDirectory:
    def test_create_and_get(self):
        directory = TenantDirectory()
        tenant = directory.create_tenant("acme")
        assert directory.get(tenant.tenant_id).name == "acme"

    def test_vlan_defaults_offset(self):
        directory = TenantDirectory()
        tenant = directory.create_tenant("acme")
        assert tenant.vlan_id == tenant.tenant_id + 100

    def test_assign_host(self):
        directory = TenantDirectory()
        tenant = directory.create_tenant("acme")
        directory.assign_host(tenant.tenant_id, 42)
        assert 42 in tenant.host_ids
        assert tenant.size == 1

    def test_double_assignment_rejected(self):
        directory = TenantDirectory()
        a = directory.create_tenant("a")
        b = directory.create_tenant("b")
        directory.assign_host(a.tenant_id, 1)
        with pytest.raises(TopologyError):
            directory.assign_host(b.tenant_id, 1)

    def test_unknown_tenant_rejected(self):
        with pytest.raises(TopologyError):
            TenantDirectory().get(99)

    def test_unknown_host_rejected(self):
        with pytest.raises(TopologyError):
            TenantDirectory().unassign_host(1)

    def test_remove_host(self):
        directory = TenantDirectory()
        a = directory.create_tenant("a")
        directory.assign_host(a.tenant_id, 1)
        a.remove_host(1)
        assert a.size == 0
        with pytest.raises(TopologyError):
            a.remove_host(1)


class TestDataCenterNetwork:
    def test_add_switch_assigns_unique_addresses(self):
        network = DataCenterNetwork()
        a = network.add_edge_switch()
        b = network.add_edge_switch()
        assert a.management_mac != b.management_mac

    def test_attach_host(self):
        network = DataCenterNetwork()
        network.add_edge_switch()
        tenant = network.tenants.create_tenant("t")
        host = network.attach_host(0, tenant.tenant_id)
        assert host.switch_id == 0
        assert network.host_by_mac(host.mac).host_id == host.host_id
        assert network.hosts_on_switch(0) == [host]

    def test_switch_of_host_follows_a_migration(self):
        network = DataCenterNetwork()
        network.add_edge_switch()
        network.add_edge_switch()
        tenant = network.tenants.create_tenant("t")
        host = network.attach_host(0, tenant.tenant_id)
        assert network.switch_of_host(host.host_id) == 0
        network.migrate_host(host.host_id, 1)
        assert network.switch_of_host(host.host_id) == 1

    @pytest.mark.parametrize(
        "setter, value",
        [
            ("set_uplink_capacity_mbps", 0.0),
            ("set_uplink_capacity_mbps", -1.0),
            ("set_link_utilization_window", 0.0),
            ("set_link_utilization_window", -30.0),
        ],
    )
    def test_link_settings_must_be_positive(self, setter, value):
        network = DataCenterNetwork()
        network.add_edge_switch()
        args = (0, value) if setter == "set_uplink_capacity_mbps" else (value,)
        with pytest.raises(TopologyError, match="must be positive"):
            getattr(network, setter)(*args)
        assert network.link_capacities_mbps() == {}
        assert network.link_utilization_window_seconds == 300.0

    def test_a_tenant_refuses_a_host_twice(self):
        directory = TenantDirectory()
        tenant = directory.create_tenant("acme")
        tenant.add_host(7)
        with pytest.raises(TopologyError, match="already belongs"):
            tenant.add_host(7)
        assert tenant.host_ids == [7]

    def test_a_tenant_with_hosts_cannot_be_removed(self):
        directory = TenantDirectory()
        tenant = directory.create_tenant("acme")
        directory.assign_host(tenant.tenant_id, 7)
        with pytest.raises(TopologyError, match="still owns 1 hosts"):
            directory.remove_tenant(tenant.tenant_id)
        directory.unassign_host(7)
        assert directory.remove_tenant(tenant.tenant_id) is tenant
        assert len(directory) == 0

    def test_attach_host_unknown_switch(self):
        network = DataCenterNetwork()
        tenant = network.tenants.create_tenant("t")
        with pytest.raises(UnknownSwitchError):
            network.attach_host(5, tenant.tenant_id)

    def test_attach_host_unknown_tenant(self):
        network = DataCenterNetwork()
        network.add_edge_switch()
        with pytest.raises(TopologyError):
            network.attach_host(0, 99)

    def test_ports_increment_per_switch(self):
        network = DataCenterNetwork()
        network.add_edge_switch()
        tenant = network.tenants.create_tenant("t")
        first = network.attach_host(0, tenant.tenant_id)
        second = network.attach_host(0, tenant.tenant_id)
        assert (first.port, second.port) == (1, 2)

    def test_unknown_lookups_raise(self):
        network = DataCenterNetwork()
        with pytest.raises(UnknownHostError):
            network.host(3)
        with pytest.raises(UnknownSwitchError):
            network.switch(3)

    def test_migrate_host(self):
        network = DataCenterNetwork()
        network.add_edge_switch()
        network.add_edge_switch()
        tenant = network.tenants.create_tenant("t")
        host = network.attach_host(0, tenant.tenant_id)
        migrated = network.migrate_host(host.host_id, 1)
        assert migrated.switch_id == 1
        assert network.hosts_on_switch(0) == []
        assert network.hosts_on_switch(1)[0].host_id == host.host_id
        # MAC is preserved across migration.
        assert migrated.mac == host.mac

    def test_migrate_to_same_switch_is_noop(self):
        network = DataCenterNetwork()
        network.add_edge_switch()
        tenant = network.tenants.create_tenant("t")
        host = network.attach_host(0, tenant.tenant_id)
        assert network.migrate_host(host.host_id, 0).port == host.port

    def test_switch_pair_of_hosts(self):
        network = DataCenterNetwork()
        network.add_edge_switch()
        network.add_edge_switch()
        tenant = network.tenants.create_tenant("t")
        a = network.attach_host(0, tenant.tenant_id)
        b = network.attach_host(1, tenant.tenant_id)
        assert network.switch_pair_of_hosts(a.host_id, b.host_id) == (0, 1)

    def test_tenant_footprint(self):
        network = DataCenterNetwork()
        for _ in range(3):
            network.add_edge_switch()
        tenant = network.tenants.create_tenant("t")
        network.attach_host(0, tenant.tenant_id)
        network.attach_host(2, tenant.tenant_id)
        assert network.tenant_footprint(tenant.tenant_id) == {0, 2}

    def test_describe(self):
        network = DataCenterNetwork()
        network.add_edge_switch()
        tenant = network.tenants.create_tenant("t")
        network.attach_host(0, tenant.tenant_id)
        assert network.describe() == {"switches": 1, "hosts": 1, "tenants": 1}


class TestBuilders:
    def test_profile_validation(self):
        with pytest.raises(ConfigurationError):
            TopologyProfile(switch_count=0, host_count=10)
        with pytest.raises(ConfigurationError):
            TopologyProfile(switch_count=10, host_count=10, min_tenant_size=50, max_tenant_size=20)
        with pytest.raises(ConfigurationError):
            TopologyProfile(switch_count=10, host_count=10, spill_fraction=2.0)

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"host_count": 0}, "host_count"),
            ({"home_switches_per_tenant": 0}, "home_switches_per_tenant"),
            ({"uplink_mbps": 0.0}, "uplink_mbps"),
            ({"uplink_mbps": -5.0}, "uplink_mbps"),
        ],
    )
    def test_profile_rejects(self, kwargs, message):
        with pytest.raises(ConfigurationError, match=message):
            TopologyProfile(**{"switch_count": 10, "host_count": 10, **kwargs})

    def test_a_profile_capacity_reaches_every_uplink(self):
        network = build_multi_tenant_datacenter(
            TopologyProfile(switch_count=5, host_count=40, uplink_mbps=2.5, seed=3)
        )
        assert network.link_capacities_mbps() == {switch_id: 2.5 for switch_id in range(5)}
        assert network.has_link_capacities()

    def test_builder_respects_counts(self):
        profile = TopologyProfile(switch_count=12, host_count=150, seed=3)
        network = build_multi_tenant_datacenter(profile)
        assert network.switch_count() == 12
        assert network.host_count() == 150

    def test_tenant_sizes_in_paper_range(self):
        profile = TopologyProfile(switch_count=20, host_count=800, seed=3)
        network = build_multi_tenant_datacenter(profile)
        sizes = [tenant.size for tenant in network.tenants.tenants()]
        # All but possibly the last (remainder) tenant obey the 20-100 range.
        assert all(20 <= size <= 100 for size in sizes[:-1])

    def test_tenant_footprint_is_small(self):
        profile = TopologyProfile(switch_count=40, host_count=600, seed=3, home_switches_per_tenant=3)
        network = build_multi_tenant_datacenter(profile)
        footprints = [len(network.tenant_footprint(t.tenant_id)) for t in network.tenants.tenants()]
        # Tenants are concentrated: far fewer switches than the data center has.
        assert sum(footprints) / len(footprints) < 10

    def test_builder_deterministic(self):
        profile = TopologyProfile(switch_count=10, host_count=100, seed=9)
        a = build_multi_tenant_datacenter(profile)
        b = build_multi_tenant_datacenter(profile)
        assert [h.switch_id for h in a.hosts()] == [h.switch_id for h in b.hosts()]

    def test_paper_real_topology_scaled(self):
        network = build_paper_real_topology(scale=0.05)
        assert network.switch_count() == round(272 * 0.05)
        assert network.host_count() == round(6509 * 0.05)

    def test_paper_synthetic_topology_scaled(self):
        network = build_paper_synthetic_topology(scale=0.01)
        assert network.switch_count() >= 16
        assert network.host_count() >= 128

    def test_paper_topology_rejects_bad_scale(self):
        with pytest.raises(ConfigurationError):
            build_paper_real_topology(scale=0.0)
        with pytest.raises(ConfigurationError):
            build_paper_synthetic_topology(scale=-1.0)
