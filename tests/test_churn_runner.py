"""End-to-end tests: churn wired through ScenarioRunner and TraceReplayer."""

import dataclasses

from repro.churn import ChurnSpec
from repro.common.diff import payload_drift
from repro.common.config import GroupingConfig, LazyCtrlConfig
from repro.core.runner import ScenarioRunner
from repro.core.scenario import ScenarioSpec, ScheduleSpec, TraceSpec
from repro.topology.builder import TopologyProfile
from repro.traffic.replay import TraceReplayer
from repro.traffic.trace import Trace


def churn_scenario(churn, *, systems=("openflow", "lazyctrl-static", "lazyctrl-dynamic")):
    return ScenarioSpec(
        name="churn-test",
        topology=TopologyProfile(switch_count=8, host_count=80, seed=7),
        traffic=TraceSpec.realistic(total_flows=2_000, seed=7),
        systems=systems,
        schedule=ScheduleSpec(duration_hours=6.0, bucket_hours=2.0),
        config=LazyCtrlConfig(grouping=GroupingConfig(group_size_limit=3, random_seed=7)),
        churn=churn,
    )


class TestAcceptance:
    """The ISSUE's acceptance criteria, at test scale."""

    def test_churn_records_attributed_regrouping_under_dynamic_grouping(self):
        spec = churn_scenario(
            ChurnSpec(seed=7, migration_rate_per_hour=12.0, drift_rate_per_hour=2.0)
        )
        result = ScenarioRunner().run(spec)
        dynamic = result.result_for("lazyctrl-dynamic")
        assert dynamic.churn is not None
        assert dynamic.churn.total_events() > 0
        assert dynamic.churn.churn_attributed_regroupings >= 1
        # The static variant experiences the same churn but never regroups.
        static = result.result_for("lazyctrl-static")
        assert static.churn is not None
        assert static.churn.churn_attributed_regroupings == 0
        assert sum(static.updates_per_hour) == 0

    def test_zero_rate_churn_reproduces_static_results_bit_for_bit(self):
        base = dataclasses.replace(churn_scenario(None), churn=None)
        with_zero = dataclasses.replace(base, churn=ChurnSpec(seed=7))
        runs_base = ScenarioRunner().run(base).to_dict()["runs"]
        runs_zero = ScenarioRunner().run(with_zero).to_dict()["runs"]
        assert payload_drift(runs_base, runs_zero) == []

    def test_every_system_experiences_identical_churn(self):
        spec = churn_scenario(
            ChurnSpec(
                seed=7,
                migration_rate_per_hour=10.0,
                tenant_arrival_rate_per_hour=1.0,
                tenant_departure_rate_per_hour=0.5,
            )
        )
        result = ScenarioRunner().run(spec)
        summaries = {
            name: dataclasses.replace(run.churn, churn_attributed_regroupings=0)
            for name, run in result.runs.items()
        }
        values = list(summaries.values())
        assert values[0].total_events() > 0
        assert all(value == values[0] for value in values)


class TestDepartureHandling:
    def test_departed_flows_are_skipped_and_counted(self):
        spec = churn_scenario(
            ChurnSpec(seed=7, tenant_departure_rate_per_hour=2.0),
            systems=("openflow", "lazyctrl-dynamic"),
        )
        result = ScenarioRunner().run(spec)
        for run in result.runs.values():
            assert run.churn.tenant_departures > 0
            assert run.counters.departed_flows > 0

    def test_results_with_churn_round_trip_via_save_load(self, tmp_path):
        spec = churn_scenario(
            ChurnSpec(seed=7, migration_rate_per_hour=6.0),
            systems=("lazyctrl-dynamic",),
        )
        result = ScenarioRunner().run(spec)
        path = result.save(tmp_path / "churn-result.json")
        loaded = type(result).load(path)
        assert loaded.spec == result.spec
        assert loaded.runs == result.runs


class TestReplayerControlTimeline:
    """Control events, flow arrivals and ticks on the replayer's one timeline.

    An event at time T fires before the tick at T and before the flows
    arriving at or after T: the order every committed churn baseline and
    ledger digest was recorded under.
    """

    @staticmethod
    def replay(arrivals, event_times, *, interval=1000.0, start=0.0, end=None, batch_handler=None):
        from repro.topology.builder import build_multi_tenant_datacenter
        from repro.traffic.flow import FlowRecord

        network = build_multi_tenant_datacenter(TopologyProfile(switch_count=2, host_count=20, seed=3))
        order = []

        class Sink:
            def handle_flow_arrival(self, flow, now):
                order.append(("flow", now))

        flows = [
            FlowRecord(flow_id=i, src_host_id=0, dst_host_id=1, start_time=t, packet_count=1, byte_count=100)
            for i, t in enumerate(arrivals)
        ]
        events = [(when, lambda now: order.append(("event", now))) for when in event_times]
        TraceReplayer(
            Trace("t", network, flows),
            Sink(),
            periodic_interval=interval,
            periodic_callbacks=[lambda now: order.append(("tick", now))],
            events=events,
            batch_handler=batch_handler and (lambda batch: batch_handler(batch, order)),
        ).replay(start=start, end=end)
        return order

    def test_control_events_interleave_with_flows_in_time_order(self):
        order = self.replay([100.0, 200.0, 300.0, 400.0, 500.0], [50.0, 250.0, 260.0, 450.0], end=500.0)
        assert order == sorted(order, key=lambda item: item[1])
        assert [kind for kind, _ in order] == [
            "event", "flow", "flow", "event", "event", "flow", "flow", "event",
        ]

    def test_event_exactly_at_a_flow_arrival_fires_first(self):
        assert self.replay([100.0, 200.0], [200.0], end=300.0) == [
            ("flow", 100.0), ("event", 200.0), ("flow", 200.0),
        ]

    def test_event_exactly_at_a_tick_fires_before_its_callbacks(self):
        assert self.replay([50.0, 150.0], [100.0], interval=100.0, end=199.0) == [
            ("flow", 50.0), ("event", 100.0), ("tick", 100.0), ("flow", 150.0),
        ]

    def test_event_after_the_last_flow_fires_up_to_the_window_end(self):
        assert self.replay([100.0], [400.0, 500.0], end=500.0) == [
            ("flow", 100.0), ("event", 400.0), ("event", 500.0),
        ]

    def test_event_past_the_window_end_never_fires(self):
        assert self.replay([100.0], [499.0, 500.5, 900.0], end=500.0) == [
            ("flow", 100.0), ("event", 499.0),
        ]
        # With no end the window closes at the last arrival.
        assert self.replay([100.0, 300.0], [300.0, 300.5]) == [
            ("flow", 100.0), ("event", 300.0), ("flow", 300.0),
        ]

    def test_event_tick_and_flow_at_one_time(self):
        assert self.replay([100.0], [100.0], interval=100.0, end=150.0) == [
            ("event", 100.0), ("tick", 100.0), ("flow", 100.0),
        ]

    def test_events_before_the_window_start_fire_first(self):
        assert self.replay([50.0, 150.0, 250.0], [20.0, 120.0, 160.0], start=100.0, end=300.0) == [
            ("event", 20.0), ("event", 120.0), ("flow", 150.0), ("event", 160.0), ("flow", 250.0),
        ]

    def test_events_on_an_empty_source_fire_up_to_the_window_end(self):
        assert self.replay([], [10.0, 100.0, 150.0], interval=60.0, end=100.0) == [
            ("event", 10.0), ("tick", 60.0), ("event", 100.0),
        ]

    def test_simultaneous_events_fire_in_list_order(self):
        from repro.topology.builder import build_multi_tenant_datacenter
        from repro.traffic.flow import FlowRecord

        network = build_multi_tenant_datacenter(TopologyProfile(switch_count=2, host_count=20, seed=3))
        order = []

        class Sink:
            def handle_flow_arrival(self, flow, now):
                order.append("flow")

        flow = FlowRecord(flow_id=0, src_host_id=0, dst_host_id=1, start_time=10.0, packet_count=1, byte_count=1)
        events = [(10.0, lambda now, label=label: order.append(label)) for label in ("a", "b", "c")]
        TraceReplayer(Trace("t", network, [flow]), Sink(), events=events).replay(end=20.0)
        assert order == ["a", "b", "c", "flow"]

    def test_a_batch_handler_sees_every_stretch_between_events(self):
        def handler(batch, order):
            order.append(("batch", tuple(batch.start_times)))

        order = self.replay(
            [10.0, 20.0, 30.0, 40.0, 50.0], [20.0, 35.0], interval=45.0, end=60.0, batch_handler=handler
        )
        assert order == [
            ("batch", (10.0,)),
            ("event", 20.0),
            ("batch", (20.0, 30.0)),
            ("event", 35.0),
            ("batch", (40.0,)),
            ("tick", 45.0),
            ("batch", (50.0,)),
        ]

    def test_without_events_behaviour_is_unchanged(self):
        from repro.topology.builder import build_multi_tenant_datacenter
        from repro.traffic.flow import FlowRecord

        network = build_multi_tenant_datacenter(TopologyProfile(switch_count=2, host_count=20, seed=3))
        trace = Trace("t", network, [
            FlowRecord(flow_id=0, src_host_id=0, dst_host_id=1, start_time=30.0,
                       packet_count=1, byte_count=100)
        ])
        seen = []

        class Sink:
            def handle_flow_arrival(self, flow, now):
                seen.append(now)

        progress = TraceReplayer(trace, Sink(), periodic_interval=60.0).replay(start=0.0, end=120.0)
        assert seen == [30.0]
        assert progress.flows_replayed == 1
        assert progress.periodic_invocations == 2


class TestChurnAwareRegistration:
    """Churn capability is an explicit registry flag, not hasattr discovery."""

    def test_builtin_planes_declare_churn_aware(self):
        from repro.core.registry import get_control_plane

        for name in ("openflow", "lazyctrl-static", "lazyctrl-dynamic"):
            assert get_control_plane(name).churn_aware is True

    def test_builtin_planes_satisfy_the_churn_aware_protocol(self):
        from repro.core.registry import ChurnAware
        from repro.core.system import LazyCtrlSystem, OpenFlowSystem
        from repro.topology.builder import build_multi_tenant_datacenter

        network = build_multi_tenant_datacenter(
            TopologyProfile(switch_count=4, host_count=40, seed=7)
        )
        assert isinstance(OpenFlowSystem(network), ChurnAware)
        assert isinstance(LazyCtrlSystem(network), ChurnAware)

    def test_hookless_plane_skips_churn_silently(self, recwarn):
        from repro.core.registry import register_control_plane, unregister_control_plane
        from repro.core.results import SystemCounters
        from repro.simulation.metrics import CounterSeries, LatencyRecorder

        class _HooklessPlane:
            def __init__(self, network, *, config=None, workload_bucket_seconds=7200.0,
                         latency_bucket_seconds=7200.0):
                self.counters = SystemCounters()
                self.latency_recorder = LatencyRecorder(latency_bucket_seconds)
                self._workload = CounterSeries(workload_bucket_seconds)

            def prepare(self, trace, *, warmup_end, now=0.0):
                pass

            def handle_flow_arrival(self, flow, now):
                self.counters.flows_handled += 1
                self.counters.controller_requests += 1
                self._workload.record(now)
                self.latency_recorder.record(now, 1.0)

            def periodic(self, now):
                pass

            def workload_series(self):
                return self._workload

            def total_controller_requests(self):
                return self.counters.controller_requests

            def updates_per_hour(self, *, hours):
                return [0.0] * hours

        # Churn follows the registration flag, not the methods a plane has:
        # the baseline registered without churn_aware=True has every hook
        # and still replays a frozen topology, as silently as the plane
        # that has none.
        from repro.core.system import OpenFlowSystem

        for name, factory in (("test-hookless", _HooklessPlane), ("test-undeclared", OpenFlowSystem)):
            register_control_plane(name, label=name)(factory)
            try:
                spec = churn_scenario(
                    ChurnSpec(seed=7, migration_rate_per_hour=12.0), systems=(name,)
                )
                run = ScenarioRunner().run(spec).result_for(name)
                assert run.churn is None
                assert run.counters.flows_handled > 0
                assert run.counters.departed_flows == 0
            finally:
                unregister_control_plane(name)
        assert not [w for w in recwarn.list if issubclass(w.category, DeprecationWarning)]
