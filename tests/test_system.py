"""Unit tests for the LazyCtrl and OpenFlow systems (FlowSink implementations)."""

import pytest

from repro.core.results import FlowPathKind
from repro.core.system import LazyCtrlSystem, OpenFlowSystem
from repro.traffic.flow import FlowRecord


@pytest.fixture(scope="module")
def lazy_system(small_network, small_trace, small_config):
    system = LazyCtrlSystem(small_network, config=small_config, dynamic_grouping=True)
    system.install_initial_grouping(small_trace, warmup_end=3600.0)
    return system


@pytest.fixture(scope="module")
def openflow_system(small_network, small_config):
    return OpenFlowSystem(small_network, config=small_config)


def pick_flow(network, *, same_switch: bool | None = None, same_group=None, group_of=None, flow_id: int = 1):
    """Find a host pair matching the requested placement and build a flow for it."""
    hosts = network.hosts()
    for src in hosts:
        for dst in hosts:
            if src.host_id == dst.host_id:
                continue
            if same_switch is True and src.switch_id != dst.switch_id:
                continue
            if same_switch is False and src.switch_id == dst.switch_id:
                continue
            if same_group is not None and group_of is not None:
                in_same = group_of.get(src.switch_id) == group_of.get(dst.switch_id)
                if in_same != same_group:
                    continue
            return FlowRecord(start_time=1.0, flow_id=flow_id, src_host_id=src.host_id, dst_host_id=dst.host_id, packet_count=4)
    raise AssertionError("no matching host pair found")


class TestLazyCtrlSystem:
    def test_local_flow_stays_local(self, lazy_system, small_network):
        flow = pick_flow(small_network, same_switch=True, flow_id=101)
        result = lazy_system.handle_flow_arrival(flow, now=1.0)
        assert result.path == FlowPathKind.LOCAL
        assert not result.controller_involved

    def test_intra_group_flow_avoids_controller(self, lazy_system, small_network):
        group_of = lazy_system.controller.group_assignment()
        flow = pick_flow(small_network, same_switch=False, same_group=True, group_of=group_of, flow_id=102)
        before = lazy_system.controller.total_requests
        result = lazy_system.handle_flow_arrival(flow, now=2.0)
        assert result.path == FlowPathKind.INTRA_GROUP
        assert lazy_system.controller.total_requests == before
        assert result.first_packet_latency_ms < 2.0

    def test_inter_group_flow_uses_controller(self, lazy_system, small_network):
        group_of = lazy_system.controller.group_assignment()
        flow = pick_flow(small_network, same_switch=False, same_group=False, group_of=group_of, flow_id=103)
        before = lazy_system.controller.total_requests
        result = lazy_system.handle_flow_arrival(flow, now=3.0)
        assert result.path == FlowPathKind.INTER_GROUP
        assert result.controller_involved
        assert lazy_system.controller.total_requests == before + 1
        assert result.first_packet_latency_ms > result.steady_packet_latency_ms

    def test_repeated_inter_group_flow_hits_flow_table(self, lazy_system, small_network):
        group_of = lazy_system.controller.group_assignment()
        flow = pick_flow(small_network, same_switch=False, same_group=False, group_of=group_of, flow_id=104)
        lazy_system.handle_flow_arrival(flow, now=4.0)
        before = lazy_system.controller.total_requests
        repeat = FlowRecord(start_time=4.5, flow_id=105, src_host_id=flow.src_host_id,
                            dst_host_id=flow.dst_host_id, packet_count=2)
        result = lazy_system.handle_flow_arrival(repeat, now=4.5)
        assert result.path == FlowPathKind.FLOW_TABLE
        assert lazy_system.controller.total_requests == before

    def test_latency_recorded_per_packet(self, small_network, small_trace, small_config):
        system = LazyCtrlSystem(small_network, config=small_config)
        system.install_initial_grouping(small_trace, warmup_end=3600.0)
        flow = pick_flow(small_network, same_switch=True, flow_id=106)
        system.handle_flow_arrival(flow, now=1.0)
        assert system.latency_recorder.bucket_totals()[0][1] == flow.packet_count

    def test_a_false_positive_copy_is_dropped_and_counted(self, small_network, small_config):
        from repro.partitioning.sgi import Grouping

        system = LazyCtrlSystem(small_network, config=small_config)
        grouping = Grouping(groups={0: frozenset(small_network.switch_ids())})
        system.controller.apply_grouping(grouping)
        src = small_network.hosts()[0]
        dst = next(host for host in small_network.hosts() if host.switch_id != src.switch_id)
        liar = next(s for s in small_network.switch_ids() if s not in (src.switch_id, dst.switch_id))
        # The ingress switch's filter for ``liar`` now matches a host ``liar`` lacks.
        system.switch(src.switch_id).gfib.install_peer(liar, [dst.mac])
        flow = FlowRecord(start_time=1.0, flow_id=1, src_host_id=src.host_id, dst_host_id=dst.host_id)
        result = system.handle_flow_arrival(flow, now=1.0)
        assert result.path == FlowPathKind.INTRA_GROUP
        assert result.false_positive_drop and result.duplicate_deliveries == 1
        assert system.counters.false_positive_drops == 1
        assert system.counters.duplicate_deliveries == 1
        assert system.switch(dst.switch_id).false_positive_drops == 0
        assert system.switch(liar).false_positive_drops == 1

    def test_counters_accumulate(self, lazy_system):
        counters = lazy_system.counters
        assert counters.flows_handled >= 4
        assert counters.flows_handled == (
            counters.local_flows + counters.intra_group_flows + counters.inter_group_flows
            + sum(1 for _ in ())  # flow-table hits are not separately counted
            + (counters.flows_handled - counters.local_flows - counters.intra_group_flows - counters.inter_group_flows)
        )

    def test_periodic_runs_state_reports_and_regroup_check(self, lazy_system):
        # Should not raise and should leave the grouping provisioned.
        lazy_system.periodic(now=10_000.0)
        assert lazy_system.controller.groups


class TestOpenFlowSystem:
    def test_every_remote_flow_hits_controller(self, openflow_system, small_network):
        flow = pick_flow(small_network, same_switch=False, flow_id=201)
        before = openflow_system.controller.total_requests
        result = openflow_system.handle_flow_arrival(flow, now=1.0)
        assert result.path == FlowPathKind.CONTROLLER_REACTIVE
        assert openflow_system.controller.total_requests > before

    def test_local_flow_resolved_at_switch(self, openflow_system, small_network):
        flow = pick_flow(small_network, same_switch=True, flow_id=202)
        result = openflow_system.handle_flow_arrival(flow, now=2.0)
        assert result.path == FlowPathKind.LOCAL
        assert not result.controller_involved

    def test_repeat_flow_hits_flow_table(self, openflow_system, small_network):
        flow = pick_flow(small_network, same_switch=False, flow_id=203)
        openflow_system.handle_flow_arrival(flow, now=3.0)
        repeat = FlowRecord(start_time=3.2, flow_id=204, src_host_id=flow.src_host_id,
                            dst_host_id=flow.dst_host_id, packet_count=2)
        before = openflow_system.controller.total_requests
        result = openflow_system.handle_flow_arrival(repeat, now=3.2)
        assert result.path == FlowPathKind.FLOW_TABLE
        assert openflow_system.controller.total_requests == before

    def test_first_reactive_setup_is_slow(self, small_network, small_config):
        system = OpenFlowSystem(small_network, config=small_config)
        flow = pick_flow(small_network, same_switch=False, flow_id=205)
        result = system.handle_flow_arrival(flow, now=1.0)
        # Cold start includes ARP-flood learning: an order of magnitude above
        # the data-plane-only latency.
        assert result.first_packet_latency_ms > 5.0

    def test_periodic_is_noop(self, openflow_system):
        openflow_system.periodic(now=100.0)


EDGE_COUNTERS = {
    "edge.packets_processed",
    "edge.packets_to_controller",
    "edge.flow_table_hits",
    "edge.flow_table_misses",
    "edge.table_overflows",
    "edge.table_evictions",
    "edge.table_idle_timeouts",
    "edge.table_hard_timeouts",
    "edge.table_reinstalls",
    "controller.flow_mods",
}
LAZYCTRL_COUNTERS = {
    "edge.gfib_queries",
    "edge.gfib_query_cache_hits",
    "edge.gfib_summaries_built",
    "edge.gfib_peer_installs",
    "controller.arp_relays",
    "controller.group_config_messages",
}
PLANE_COUNTERS = {
    "openflow": EDGE_COUNTERS | {"controller.arp_floods"},
    "lazyctrl-static": EDGE_COUNTERS | LAZYCTRL_COUNTERS,
    "lazyctrl-dynamic": EDGE_COUNTERS | LAZYCTRL_COUNTERS,
}


class TestEdgePlaneContract:
    """The surface the runner and the kernel bind to, on every registered plane."""

    @pytest.fixture(scope="class")
    def failover_result(self):
        import dataclasses

        from repro.core.presets import get_preset
        from repro.core.runner import ScenarioRunner

        spec = dataclasses.replace(get_preset("failover").build()[0], systems=tuple(PLANE_COUNTERS))
        return ScenarioRunner().run(spec)

    @pytest.mark.parametrize("name", sorted(PLANE_COUNTERS))
    def test_fold_perf_counters_emits_exactly_the_planes_names(self, name, small_network, small_config):
        from repro.core.registry import get_control_plane
        from repro.core.system import EdgePlane
        from repro.perf.recorder import PerfRecorder

        plane = get_control_plane(name).build(small_network, config=small_config)
        assert isinstance(plane, EdgePlane)
        perf = PerfRecorder()
        plane.set_perf_recorder(perf)
        plane.fold_perf_counters()
        assert set(perf.counters) == PLANE_COUNTERS[name]
        assert set(perf.gauges) == {"edge.table_peak_occupancy", "edge.table_final_occupancy"}

    @pytest.mark.parametrize("name", sorted(PLANE_COUNTERS))
    def test_tables_and_links_are_reported(self, name, failover_result):
        run = failover_result.runs[name]
        assert run.tables is not None and run.tables.installs > 0
        assert run.tables.final_occupancy <= run.tables.installs
        assert run.links is None  # the preset's topology carries no capacities

    def test_failures_reach_only_the_plane_that_injects_them(self, failover_result):
        assert failover_result.runs["openflow"].failover_events == 0
        assert failover_result.runs["lazyctrl-static"].failover_events == 2
        assert failover_result.runs["lazyctrl-dynamic"].failover_events == 2

    @pytest.mark.parametrize("name", sorted(PLANE_COUNTERS))
    def test_capacitated_topology_reports_link_usage(self, name, small_config):
        from repro.bandwidth.spec import LinkCapacitySpec
        from repro.core.registry import get_control_plane
        from repro.topology.builder import TopologyProfile, build_multi_tenant_datacenter

        network = build_multi_tenant_datacenter(TopologyProfile(switch_count=6, host_count=48, seed=7))
        LinkCapacitySpec(uplink_mbps=1.0).apply_network(network)
        plane = get_control_plane(name).build(network, config=small_config)
        assert plane.link_meter is not None
        usage = plane.link_usage(3600.0)
        assert usage is not None and usage.peak_utilization == 0.0


class TestDecideWhereTheIngressSwitchDoesNotForward:
    """Pinned, not endorsed: a failed ingress switch and an explicit ``DROP`` or
    ``SEND_TO_CONTROLLER`` rule all reach ``_resolve_miss`` — the controller is
    asked, counted and installs a forwarding rule over whatever was there."""

    CASES = ("failed", "drop-rule", "send-to-controller-rule")

    @staticmethod
    def build(kind, network, trace, config):
        if kind == "openflow":
            return OpenFlowSystem(network, config=config)
        plane = LazyCtrlSystem(network, config=config)
        plane.install_initial_grouping(trace, warmup_end=3600.0)
        return plane

    @pytest.mark.parametrize("case", CASES)
    @pytest.mark.parametrize("kind", ("lazyctrl", "openflow"))
    def test_counters_requests_and_result(self, kind, case, small_network, small_trace, small_config):
        from repro.common.packets import FlowKey
        from repro.core.results import FlowHandlingResult, SystemCounters
        from repro.datastructures.flow_table import ActionType, FlowAction

        plane = self.build(kind, small_network, small_trace, small_config)
        group_of = plane.controller.group_assignment() if kind == "lazyctrl" else None
        flow = pick_flow(
            small_network,
            same_switch=False,
            same_group=None if group_of is None else False,
            group_of=group_of,
            flow_id=301,
        )
        src = small_network.host(flow.src_host_id)
        dst = small_network.host(flow.dst_host_id)
        key = FlowKey(src_mac=src.mac, dst_mac=dst.mac, tenant_id=src.tenant_id)
        switch = plane.switch(src.switch_id)
        if case == "failed":
            switch.failed = True
        else:
            kind_of = ActionType.DROP if case == "drop-rule" else ActionType.SEND_TO_CONTROLLER
            switch.install_flow_rule(key, FlowAction(kind_of), now=0.0)
        model = plane.latency_model

        result = plane.handle_flow_arrival(flow, now=1.0)

        lazy = kind == "lazyctrl"
        assert result == FlowHandlingResult(
            flow_id=301,
            path=FlowPathKind.INTER_GROUP if lazy else FlowPathKind.CONTROLLER_REACTIVE,
            src_switch_id=src.switch_id,
            dst_switch_id=dst.switch_id,
            controller_involved=True,
            first_packet_latency_ms=(
                model.inter_group_setup_ms(0.0)
                if lazy
                else model.openflow_reactive_ms(0.0, needs_location_learning=True)
            ),
            steady_packet_latency_ms=model.flow_table_hit_ms(),
        )
        assert plane.counters == SystemCounters(
            flows_handled=1, inter_group_flows=1 if lazy else 0, controller_requests=1
        )
        # The baseline's cold controller floods an ARP before it can answer.
        assert plane.controller.total_requests == (1 if lazy else 2)
        assert plane.controller.flow_mods_sent == 1
        assert switch.packets_processed == 1
        assert switch.packets_to_controller == (1 if case == "send-to-controller-rule" else 0)
        stats = switch.flow_table.stats
        # A failed switch never reaches its table; an explicit rule is a hit.
        assert (stats.hits, stats.misses) == ((0, 0) if case == "failed" else (1, 0))
        assert stats.installs == (1 if case == "failed" else 2)
        # The controller's answer replaced the explicit rule.
        (rule,) = list(switch.flow_table)
        assert rule.key == key
        assert rule.action == FlowAction(ActionType.ENCAP_TO_SWITCH, dst.switch_id)
        if lazy:
            assert switch.gfib.query_count == 0
