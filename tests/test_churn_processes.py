"""Unit tests for the churn processes and the scheduler's sorted event list."""

from repro.churn import (
    ChurnKind,
    ChurnScheduler,
    ChurnSpec,
    DriftProcess,
    MigrationProcess,
    TenantLifecycleProcess,
    build_processes,
    poisson_event_times,
)
from repro.common.config import GroupingConfig, LazyCtrlConfig
from repro.common.rng import make_rng
from repro.core.system import LazyCtrlSystem, OpenFlowSystem
from repro.topology.builder import TopologyProfile, build_multi_tenant_datacenter
from repro.traffic.trace import Trace


def small_network(seed: int = 11):
    return build_multi_tenant_datacenter(
        TopologyProfile(switch_count=6, host_count=60, seed=seed, home_switches_per_tenant=2)
    )


def applied(stats):
    """Churn events that changed the topology."""
    return stats.migrations + stats.drift_events + stats.tenant_arrivals + stats.tenant_departures


def lazyctrl_system(network):
    system = LazyCtrlSystem(
        network,
        config=LazyCtrlConfig(grouping=GroupingConfig(group_size_limit=3, random_seed=11)),
        dynamic_grouping=True,
    )
    warmup = Trace("warmup", network, [])
    matrix = warmup.switch_intensity()
    grouping = system.controller.grouping_manager.grouper.initial_grouping(matrix)
    system.controller.grouping_manager.current_grouping = grouping
    system.controller.apply_grouping(grouping)
    return system


class TestPoissonTimes:
    def test_deterministic_for_equal_seeds(self):
        a = poisson_event_times(make_rng(7, "x"), 10.0, 0.0, 36000.0)
        b = poisson_event_times(make_rng(7, "x"), 10.0, 0.0, 36000.0)
        assert a == b and len(a) > 0

    def test_zero_rate_or_empty_window_yields_nothing(self):
        assert poisson_event_times(make_rng(7, "x"), 0.0, 0.0, 3600.0) == []
        assert poisson_event_times(make_rng(7, "x"), 5.0, 3600.0, 3600.0) == []

    def test_times_stay_inside_window(self):
        times = poisson_event_times(make_rng(7, "x"), 30.0, 1800.0, 7200.0)
        assert all(1800.0 <= t < 7200.0 for t in times)

    def test_rate_roughly_matches(self):
        times = poisson_event_times(make_rng(7, "x"), 10.0, 0.0, 100 * 3600.0)
        assert 800 <= len(times) <= 1200  # 10/h over 100h, generous band


class TestBuildProcesses:
    def test_only_enabled_processes_built(self):
        assert build_processes(ChurnSpec()) == []
        names = [p.name for p in build_processes(
            ChurnSpec(migration_rate_per_hour=1.0, tenant_departure_rate_per_hour=1.0)
        )]
        assert names == ["migration", "tenant-lifecycle"]

    def test_process_streams_are_independent_and_deterministic(self):
        spec = ChurnSpec(seed=3, migration_rate_per_hour=5.0, drift_rate_per_hour=5.0)
        first = {p.name: p.schedule(0.0, 36000.0) for p in build_processes(spec)}
        second = {p.name: p.schedule(0.0, 36000.0) for p in build_processes(spec)}
        assert first == second
        assert first["migration"] != first["drift"]


class TestMigrationProcess:
    def test_fire_moves_exactly_one_host(self):
        network = small_network()
        system = lazyctrl_system(network)
        before = {h.host_id: h.switch_id for h in network.hosts()}
        process = MigrationProcess(ChurnSpec(migration_rate_per_hour=1.0))
        assert process.fire(ChurnKind.HOST_MIGRATION, system, 100.0) == 1
        after = {h.host_id: h.switch_id for h in network.hosts()}
        moved = [h for h in before if before[h] != after[h]]
        assert len(moved) == 1

    def test_fire_updates_control_plane_state(self):
        network = small_network()
        system = lazyctrl_system(network)
        process = MigrationProcess(ChurnSpec(migration_rate_per_hour=1.0))
        process.fire(ChurnKind.HOST_MIGRATION, system, 100.0)
        for host in network.hosts():
            assert system.controller.clib.locate(host.mac) == host.switch_id

    def test_single_switch_topology_skips(self):
        network = build_multi_tenant_datacenter(TopologyProfile(switch_count=1, host_count=20, seed=1))
        system = lazyctrl_system(network)
        process = MigrationProcess(ChurnSpec(migration_rate_per_hour=1.0))
        assert process.fire(ChurnKind.HOST_MIGRATION, system, 0.0) == 0


class TestDriftProcess:
    def test_fire_moves_a_coherent_tenant_batch(self):
        network = small_network()
        system = lazyctrl_system(network)
        process = DriftProcess(ChurnSpec(drift_rate_per_hour=1.0, drift_batch_size=3))
        before = {h.host_id: h.switch_id for h in network.hosts()}
        moved = process.fire(ChurnKind.TRAFFIC_DRIFT, system, 100.0)
        assert 1 <= moved <= 3
        after = {h.host_id: h.switch_id for h in network.hosts()}
        moved_hosts = [h for h in before if before[h] != after[h]]
        assert len(moved_hosts) == moved
        # All moved VMs belong to one tenant and land on one switch.
        tenants = {network.host(h).tenant_id for h in moved_hosts}
        destinations = {after[h] for h in moved_hosts}
        assert len(tenants) == 1 and len(destinations) == 1


class TestTenantLifecycleProcess:
    def test_arrival_creates_tenant_with_hosts(self):
        network = small_network()
        system = lazyctrl_system(network)
        tenants_before = len(network.tenants)
        hosts_before = network.host_count()
        process = TenantLifecycleProcess(
            ChurnSpec(tenant_arrival_rate_per_hour=1.0, tenant_size_range=(5, 8))
        )
        added = process.fire(ChurnKind.TENANT_ARRIVAL, system, 100.0)
        assert 5 <= added <= 8
        assert len(network.tenants) == tenants_before + 1
        assert network.host_count() == hosts_before + added
        new_tenant = network.tenants.tenants()[-1]
        assert new_tenant.name.startswith("churn-tenant-")
        # The new VMs resolve through the control plane.
        for host_id in new_tenant.host_ids:
            host = network.host(host_id)
            assert system.controller.clib.locate(host.mac) == host.switch_id

    def test_departure_removes_whole_tenant(self):
        network = small_network()
        system = lazyctrl_system(network)
        process = TenantLifecycleProcess(ChurnSpec(tenant_departure_rate_per_hour=1.0))
        tenants_before = len(network.tenants)
        hosts_before = network.host_count()
        removed = process.fire(ChurnKind.TENANT_DEPARTURE, system, 100.0)
        assert removed > 0
        assert len(network.tenants) == tenants_before - 1
        assert network.host_count() == hosts_before - removed

    def test_never_removes_the_last_tenant(self):
        network = build_multi_tenant_datacenter(
            TopologyProfile(switch_count=2, host_count=20, seed=5, max_tenant_size=100)
        )
        assert len(network.tenants) == 1
        system = lazyctrl_system(network)
        process = TenantLifecycleProcess(ChurnSpec(tenant_departure_rate_per_hour=1.0))
        assert process.fire(ChurnKind.TENANT_DEPARTURE, system, 0.0) == 0
        assert len(network.tenants) == 1


class TestChurnScheduler:
    def make_scheduler(self, system, spec):
        return ChurnScheduler(spec, system, replay_end=6 * 3600.0, bucket_seconds=3600.0)

    @staticmethod
    def fire_until(events, until):
        """Fire the list's events at or before ``until``, as the replayer does."""
        while events and events[0][0] <= until:
            time, action = events.pop(0)
            action(time)

    def test_events_fire_as_the_list_is_walked(self):
        network = small_network()
        system = lazyctrl_system(network)
        spec = ChurnSpec(seed=1, migration_rate_per_hour=6.0)
        scheduler = self.make_scheduler(system, spec)
        events = list(scheduler.events)
        assert events
        self.fire_until(events, 3 * 3600.0)
        mid = scheduler.stats.migrations
        assert mid > 0
        self.fire_until(events, 6 * 3600.0)
        assert not events
        assert scheduler.stats.migrations >= mid
        assert applied(scheduler.stats) == scheduler.stats.migrations

    def test_list_is_a_stable_time_sort_of_the_process_streams(self):
        spec = ChurnSpec(
            seed=4,
            migration_rate_per_hour=6.0,
            drift_rate_per_hour=3.0,
            tenant_arrival_rate_per_hour=1.0,
            tenant_departure_rate_per_hour=1.0,
        )
        scheduler = self.make_scheduler(lazyctrl_system(small_network()), spec)
        streams = [
            time for process in build_processes(spec) for time, _ in process.schedule(0.0, 6 * 3600.0)
        ]
        times = [time for time, _ in scheduler.events]
        assert times == sorted(streams)
        assert len(set(times)) > 1

    def test_inert_spec_draws_no_events(self):
        scheduler = self.make_scheduler(lazyctrl_system(small_network()), ChurnSpec(seed=1))
        assert scheduler.events == []

    def test_events_stay_inside_the_churn_window(self):
        spec = ChurnSpec(seed=2, migration_rate_per_hour=20.0, start_hour=2.0, end_hour=4.0)
        scheduler = self.make_scheduler(lazyctrl_system(small_network()), spec)
        times = [time for time, _ in scheduler.events]
        assert times and all(2 * 3600.0 <= time < 4 * 3600.0 for time in times)

    def test_per_bucket_series_covers_bucket_range(self):
        network = small_network()
        system = lazyctrl_system(network)
        scheduler = self.make_scheduler(system, ChurnSpec(seed=1, migration_rate_per_hour=6.0))
        self.fire_until(list(scheduler.events), 6 * 3600.0)
        result = scheduler.result(bucket_count=6)
        assert len(result.per_bucket_events) == 6
        assert sum(result.per_bucket_events) == applied(scheduler.stats)

    def test_identical_streams_for_lazyctrl_and_openflow(self):
        spec = ChurnSpec(seed=9, migration_rate_per_hour=8.0, drift_rate_per_hour=2.0)
        placements = []
        for build in (lambda n: lazyctrl_system(n), lambda n: OpenFlowSystem(n)):
            network = small_network()
            system = build(network)
            self.fire_until(list(self.make_scheduler(system, spec).events), 6 * 3600.0)
            placements.append({h.host_id: h.switch_id for h in network.hosts()})
        assert placements[0] == placements[1]

    def test_kind_values_are_the_trace_names(self):
        assert [kind.value for kind in ChurnKind] == [
            "host_migration", "traffic_drift", "tenant_arrival", "tenant_departure",
        ]
