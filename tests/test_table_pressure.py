"""Regression tests for finite-table pressure.

Covers the wiring this feature hangs off: time-driven expiry running from
the replay's periodic tick (not just lazily on lookup), ``flow_removed``
notifications reaching the owning controller, table-pressure accounting
flowing into :class:`~repro.core.results.RunResult`, and the headline
behavioural claim that LazyCtrl's sparse tables take measurably less
re-install load than the reactive baseline under the same capacity.
"""

import pytest

from repro.common.config import FlowTableConfig, GroupingConfig, LazyCtrlConfig
from repro.core import system as system_module
from repro.core.runner import ScenarioResult, ScenarioRunner
from repro.core.scenario import ScenarioSpec, ScheduleSpec, TraceSpec
from repro.core.system import LazyCtrlSystem, OpenFlowSystem
from repro.topology.builder import TopologyProfile, build_multi_tenant_datacenter
from repro.traffic.realistic import RealisticTraceGenerator, RealisticTraceProfile


def tiny_network(seed: int = 11):
    return build_multi_tenant_datacenter(
        TopologyProfile(switch_count=8, host_count=60, seed=seed)
    )


def tiny_trace(network, flows: int = 800, seed: int = 11):
    return RealisticTraceGenerator(
        network, RealisticTraceProfile(total_flows=flows, seed=seed)
    ).generate()


def feed(system, trace, *, upto: float = float("inf")) -> int:
    """Replay the prefix of ``trace`` before ``upto``; returns flows fed."""
    fed = 0
    for flow in trace.flows:
        if flow.start_time >= upto:
            break
        system.handle_flow_arrival(flow, flow.start_time)
        fed += 1
    return fed


class TestTickDrivenExpiry:
    """Satellite regression: rules expire from the periodic tick alone.

    No lookups happen after the feed, so any removal observed here came
    from the eager sweep the systems run in ``periodic``
    (``advance_tables`` → ``FlowTable.expire``).
    """

    def test_openflow_tables_age_out_via_periodic(self):
        network = tiny_network()
        # Idle timeout longer than the whole trace: nothing can expire lazily
        # during the feed, so every removal below is the sweep's doing.
        config = LazyCtrlConfig(
            flow_table=FlowTableConfig(idle_timeout_seconds=100_000.0)
        )
        system = OpenFlowSystem(network, config=config)
        assert feed(system, tiny_trace(network)) > 0
        occupied = sum(len(s.flow_table) for s in system.switches())
        assert occupied > 0
        assert system.controller.flow_removed_received == 0

        system.periodic(now=300_000.0)

        assert sum(len(s.flow_table) for s in system.switches()) == 0
        usage = system.table_usage()
        assert usage.idle_timeouts == occupied
        # Every expiry was reported to the controller as a flow_removed.
        assert system.controller.flow_removed_received == occupied
        assert usage.flow_removed_messages == occupied

    def test_lazyctrl_tables_age_out_via_periodic(self):
        network = tiny_network()
        config = LazyCtrlConfig(
            grouping=GroupingConfig(group_size_limit=2, random_seed=11),
            flow_table=FlowTableConfig(idle_timeout_seconds=100_000.0),
        )
        system = LazyCtrlSystem(network, config=config, dynamic_grouping=False)
        trace = tiny_trace(network)
        system.install_initial_grouping(trace, warmup_end=3600.0)
        feed(system, trace)
        occupied = sum(len(s.flow_table) for s in system.switches())
        assert occupied > 0  # inter-group flows installed fine-grained rules

        system.periodic(now=300_000.0)

        assert sum(len(s.flow_table) for s in system.switches()) == 0
        assert system.controller.flow_removed_received == occupied

    @pytest.mark.parametrize("system_type", [OpenFlowSystem, LazyCtrlSystem])
    def test_occupancy_gauge_samples_after_the_sweep(self, system_type):
        """On a sweep tick every plane's timeline shows post-expiry occupancy
        (the baseline used to sample before its sweep, LazyCtrl after)."""
        from repro.obs.timeline import MetricsTimeline
        from repro.obs.tracer import EventTracer

        network = tiny_network()
        config = LazyCtrlConfig(
            grouping=GroupingConfig(group_size_limit=2, random_seed=11),
            flow_table=FlowTableConfig(idle_timeout_seconds=100_000.0),
        )
        system = system_type(network, config=config)
        timeline = MetricsTimeline(bucket_seconds=3600.0)
        system.set_tracer(EventTracer(timeline=timeline))
        trace = tiny_trace(network)
        system.prepare(trace, warmup_end=3600.0)
        feed(system, trace)
        assert sum(len(s.flow_table) for s in system.switches()) > 0

        system.periodic(now=300_000.0)

        assert sum(len(s.flow_table) for s in system.switches()) == 0
        gauges = timeline.result(bucket_count=84).gauges
        assert gauges["table_occupancy_last"][-1] == 0

    def test_sweep_respects_its_interval(self, monkeypatch):
        monkeypatch.setattr(system_module, "TABLE_SWEEP_INTERVAL_SECONDS", 3600.0)
        network = tiny_network()
        config = LazyCtrlConfig(flow_table=FlowTableConfig(idle_timeout_seconds=30.0))
        system = OpenFlowSystem(network, config=config)
        feed(system, tiny_trace(network), upto=600.0)
        occupied = sum(len(s.flow_table) for s in system.switches())
        assert occupied > 0
        # Expired by idle time, but the sweep interval has not elapsed yet.
        system.periodic(now=600.0 + 100.0)
        assert sum(len(s.flow_table) for s in system.switches()) == occupied


class TestTablePressureRuns:
    @pytest.fixture(scope="class")
    def result(self) -> ScenarioResult:
        spec = ScenarioSpec(
            name="pressure-regression",
            topology=TopologyProfile(switch_count=8, host_count=60, seed=11),
            traffic=TraceSpec.realistic(total_flows=3000, seed=11),
            systems=("openflow", "lazyctrl-dynamic"),
            schedule=ScheduleSpec(duration_hours=8.0, bucket_hours=2.0),
            config=LazyCtrlConfig(
                grouping=GroupingConfig(group_size_limit=2, random_seed=11),
                flow_table=FlowTableConfig(
                    capacity=16,
                    eviction_batch=16,
                    policy="idle-hard-hybrid",
                    idle_timeout_seconds=600.0,
                    hard_timeout_seconds=3600.0,
                ),
            ),
        )
        return ScenarioRunner().run(spec)

    def test_runs_carry_table_usage(self, result):
        for run in result.runs.values():
            usage = run.tables
            assert usage is not None
            assert usage.capacity == 16
            assert usage.policy == "idle-hard-hybrid"
            assert usage.installs > 0
            assert usage.peak_occupancy <= 16
            assert usage.flow_removed_messages == (
                usage.idle_timeouts + usage.hard_timeouts + usage.evictions
            )

    def test_rules_expire_during_the_replay(self, result):
        usage = result.runs["openflow"].tables
        assert usage.idle_timeouts + usage.hard_timeouts > 0

    def test_lazyctrl_takes_less_reinstall_load_than_openflow(self, result):
        openflow = result.runs["openflow"].tables
        lazyctrl = result.runs["lazyctrl-dynamic"].tables
        # The baseline installs a rule per flow, so under the same tight
        # capacity it churns (and re-installs) far more than LazyCtrl,
        # whose tables only hold inter-group fine-grained rules.
        assert openflow.installs > lazyctrl.installs
        assert openflow.reinstalls > lazyctrl.reinstalls

    def test_table_usage_serialization_round_trip(self, result):
        restored = ScenarioResult.from_dict(result.to_dict())
        for name, run in result.runs.items():
            assert restored.runs[name].tables == run.tables

    def test_streamed_replay_reports_identical_table_usage(self, result):
        import dataclasses

        streamed = ScenarioRunner().run(
            dataclasses.replace(
                result.spec,
                execution=dataclasses.replace(result.spec.execution, stream=True),
            )
        )
        for name, run in result.runs.items():
            assert streamed.runs[name].tables == run.tables
