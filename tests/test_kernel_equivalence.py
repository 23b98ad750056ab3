"""Vectorized ≡ scalar equivalence: the gate on the columnar kernel's contract.

The kernel (``repro.kernel.columnar``) is an optimization layer, not a second
semantics: every result surface — counters, per-bucket timelines, latency
totals, link matrices — must be *bit-identical* to the scalar replayer, for
any scenario, under any composition with sharding.  This suite is the
streamed≡materialized harness's sibling: hypothesis drives traffic models,
table policies and capacity overlays through both kernels and compares the
full serialized runs, while the directed tests pin the edge cases — forced
fallback under tiny tables, the kernel under churn (whose events cut the
replay's batches), and the kernel composed with both shard strategies.
"""

import dataclasses

import pytest

pytest.importorskip("numpy")

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.bandwidth.spec import LinkCapacitySpec
from repro.churn.spec import ChurnSpec
from repro.common.errors import ConfigurationError
from repro.core.runner import ScenarioRunner
from repro.core.scenario import ScenarioSpec, ScheduleSpec, TraceSpec
from repro.obs.tracer import TraceOptions
from repro.replay.spec import ExecutionSpec
from repro.tables.spec import TableSpec
from repro.topology.builder import TopologyProfile

SCHEDULE = ScheduleSpec(warmup_hours=0.5, duration_hours=4.0, bucket_hours=2.0)
SYSTEMS = ("openflow", "lazyctrl-static", "lazyctrl-dynamic")

#: Policies chosen to hit every kernel classification path: generous tables
#: (pure HIT/LOCAL/INTRA), tiny ones (slack-guard demotions and evictions),
#: and the adaptive predictor, whose per-rule timeouts force full fallback.
TABLE_SPECS = (
    None,
    TableSpec(capacity=8, policy="static-idle", idle_timeout_seconds=900.0),
    TableSpec(
        capacity=8,
        policy="idle-hard-hybrid",
        idle_timeout_seconds=900.0,
        hard_timeout_seconds=3600.0,
    ),
    TableSpec(capacity=4, policy="lru"),
    TableSpec(
        capacity=8,
        policy="adaptive",
        idle_timeout_seconds=900.0,
        params={"min_timeout_seconds": 60.0, "max_timeout_seconds": 1800.0},
    ),
)

#: Capacity overlays: no metering at all, and an undersized uplink that
#: pushes the replay onto the kernel's ordered metered walk.
LINK_SPECS = (None, LinkCapacitySpec(uplink_mbps=0.5, queueing_service_ms=0.25))

#: Churn the kernel must follow: host moves, and whole tenants arriving and
#: leaving (departures leave flows whose hosts are gone: the DEPARTED pairs).
CHURN_SPECS = (
    ChurnSpec(seed=5, migration_rate_per_hour=24.0, drift_rate_per_hour=4.0),
    ChurnSpec(
        seed=5,
        migration_rate_per_hour=2.0,
        tenant_arrival_rate_per_hour=3.0,
        tenant_departure_rate_per_hour=3.0,
        tenant_size_range=(4, 8),
    ),
)
CHURN_IDS = ("migration-drift", "tenant-lifecycle")


def build_spec(
    *,
    model="realistic",
    flows=600,
    seed=7,
    tables=None,
    links=None,
    churn=None,
    execution=None,
    expand=0.0,
    name="kernel-equiv",
):
    params = {"total_flows": flows, "seed": seed}
    if model == "incast-hotspot":
        params.update(
            {"hotspot_count": 2, "hotspot_flow_fraction": 0.7, "burst_window_hours": (1.0, 3.0)}
        )
    elif model == "elephant-mice":
        params.update({"elephant_pair_count": 4, "elephant_flow_fraction": 0.3})
    return ScenarioSpec(
        name=name,
        topology=TopologyProfile(switch_count=8, host_count=64, seed=seed),
        # The §V-D expansion, when asked for, lands inside the 4 h schedule.
        traffic=TraceSpec(
            model=model, params=params, expand_fraction=expand, expand_window_hours=(1.0, 4.0)
        ),
        systems=SYSTEMS,
        schedule=SCHEDULE,
        tables=tables,
        links=links,
        churn=churn,
        execution=execution or ExecutionSpec(),
    )


def run_dict(spec, kernel, **run_kwargs):
    execution = dataclasses.replace(spec.execution, kernel=kernel)
    result = ScenarioRunner().run(dataclasses.replace(spec, execution=execution), **run_kwargs)
    return result.to_dict()["runs"]


def without_chunk_counts(runs):
    """Serialized runs minus the timeline's ``chunks_drained``: how the flows
    were delivered, which a streamed and a materialized replay differ in."""
    trimmed = {}
    for name, run in runs.items():
        counts = {k: v for k, v in run["timeline"]["counts"].items() if k != "chunks_drained"}
        trimmed[name] = {**run, "timeline": {**run["timeline"], "counts": counts}}
    return trimmed


def assert_equivalent(spec, **run_kwargs):
    scalar = run_dict(spec, "scalar", **run_kwargs)
    vectorized = run_dict(spec, "vectorized", **run_kwargs)
    assert scalar == vectorized


class TestHypothesisEquivalence:
    @settings(
        max_examples=10,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
        print_blob=True,
    )
    @given(
        model=st.sampled_from(("realistic", "uniform", "elephant-mice", "incast-hotspot")),
        flows=st.integers(min_value=200, max_value=900),
        seed=st.integers(min_value=0, max_value=2**16),
        tables=st.sampled_from(TABLE_SPECS),
        links=st.sampled_from(LINK_SPECS),
        expand=st.sampled_from((0.0, 0.3)),
    )
    def test_vectorized_matches_scalar(self, model, flows, seed, tables, links, expand):
        assert_equivalent(
            build_spec(
                model=model, flows=flows, seed=seed, tables=tables, links=links, expand=expand
            )
        )


class TestDirectedEquivalence:
    @pytest.mark.parametrize("expand", (0.0, 0.3), ids=("base", "expanded"))
    def test_timeline_fold_matches(self, expand):
        """With the tracer's timeline on, the kernel's bulk per-bucket and
        per-latency-bin folds must land exactly where scalar emission does."""
        assert_equivalent(
            build_spec(flows=500, seed=13, expand=expand), obs=TraceOptions(timeline=True)
        )

    def test_tiny_tables_force_fallback_yet_match(self):
        """4-entry tables keep every switch at the slack guard's threshold,
        so hits demote to the scalar path — and results still agree."""
        spec = build_spec(tables=TableSpec(capacity=4, policy="lru"), flows=500, seed=3)
        assert_equivalent(spec)
        result = ScenarioRunner().run(
            dataclasses.replace(spec, execution=ExecutionSpec(kernel="vectorized")),
            collect_perf=True,
        )
        counters = next(iter(result.runs.values())).perf.counters
        assert counters.get("kernel.flows_fallback", 0) > 0

    @pytest.mark.parametrize(
        "churn,execution",
        [
            (CHURN_SPECS[0], {}),
            (CHURN_SPECS[0], {"stream": True}),
            (CHURN_SPECS[0], {"workers": 2}),
            (CHURN_SPECS[1], {}),
            (CHURN_SPECS[1], {"stream": True}),
            (CHURN_SPECS[1], {"workers": 2}),
        ],
        ids=(
            "migration-drift-serial",
            "migration-drift-streamed",
            "migration-drift-system-sharded",
            "tenant-lifecycle-serial",
            "tenant-lifecycle-streamed",
            "tenant-lifecycle-system-sharded",
        ),
    )
    def test_kernel_runs_under_churn_and_matches(self, churn, execution):
        """Churn events cut the replay's batches, so the kernel sees every
        stretch between two of them; counters and timelines stay scalar's,
        streamed or sharded per system alike — and a streamed replay's are
        the materialized one's, departed hosts' flows included."""
        spec = build_spec(churn=churn, flows=1500, seed=5, execution=ExecutionSpec(**execution))
        scalar = run_dict(spec, "scalar", obs=TraceOptions(timeline=True))
        if execution.get("stream"):
            materialized = dataclasses.replace(spec, execution=ExecutionSpec())
            assert without_chunk_counts(scalar) == without_chunk_counts(
                run_dict(materialized, "scalar", obs=TraceOptions(timeline=True))
            )
        vectorized = ScenarioRunner().run(
            dataclasses.replace(spec, execution=ExecutionSpec(kernel="vectorized", **execution)),
            collect_perf=True,
            obs=TraceOptions(timeline=True),
        )
        assert scalar == {
            name: {**run, "perf": None} for name, run in vectorized.to_dict()["runs"].items()
        }
        assert all(sum(run["churn"]["per_bucket_events"]) > 0 for run in scalar.values())
        if churn.tenant_departure_rate_per_hour:
            assert all(run["counters"]["departed_flows"] > 0 for run in scalar.values())
        for name, run in vectorized.runs.items():
            assert run.perf.counters["kernel.flows_vectorized"] > 0, name

    def test_kernel_under_churn_with_an_event_listener_matches(self, tmp_path):
        """A listener bypasses whole batches to scalar; the churn events it
        records land in the same place in the stream either way."""
        spec = build_spec(churn=CHURN_SPECS[1], flows=600, seed=5)
        streams = {}
        for kernel in ("scalar", "vectorized"):
            path = tmp_path / f"{kernel}.jsonl"
            runs = run_dict(spec, kernel, obs=TraceOptions(events_path=str(path)))
            streams[kernel] = (runs, path.read_text())
        assert streams["scalar"] == streams["vectorized"]
        assert '"churn"' in streams["scalar"][1]

    @pytest.mark.parametrize(
        "strategy,extra,expand",
        [
            ("system", {}, 0.0),
            ("time-window", {"shard_count": 4}, 0.0),
            ("time-window", {"shard_count": 4, "stream": True}, 0.3),
        ],
        ids=("system", "time-window", "time-window-streamed-expanded"),
    )
    def test_vectorized_composes_with_sharding(self, strategy, extra, expand):
        """Swapping the kernel inside a 2-worker shard pool must change
        nothing: scalar-sharded ≡ vectorized-sharded for both strategies.
        (Time-window shards are only defined against workers=1 of the same
        plan, so the kernel claim is made within one execution plan.)"""
        spec = build_spec(
            flows=600,
            seed=11,
            expand=expand,
            execution=ExecutionSpec(workers=2, shard_strategy=strategy, **extra),
        )
        assert_equivalent(spec)

    @pytest.mark.parametrize("expand", (0.0, 0.3), ids=("base", "expanded"))
    def test_vectorized_system_sharding_matches_serial_scalar(self, expand):
        """The system strategy additionally promises sharded ≡ serial, so
        vectorized-sharded must land on the serial scalar run exactly."""
        spec = build_spec(flows=600, seed=11, expand=expand)
        serial_scalar = run_dict(spec, "scalar")
        sharded = dataclasses.replace(
            spec, execution=ExecutionSpec(kernel="vectorized", workers=2)
        )
        assert serial_scalar == ScenarioRunner().run(sharded).to_dict()["runs"]


class TestMeteredEquivalence:
    """The meter's bulk pass against the scalar per-flow ``observe``, where it
    has work to do: 2 s accounting windows that flows straddle, and uplinks
    thin enough to congest."""

    LINKS = LinkCapacitySpec(uplink_mbps=0.05, window_seconds=2.0, queueing_service_ms=0.25)
    TWO_SYSTEMS = ("openflow", "lazyctrl-dynamic")

    def spec(self):
        spec = build_spec(model="incast-hotspot", flows=1500, seed=29, links=self.LINKS)
        return dataclasses.replace(spec, systems=self.TWO_SYSTEMS)

    @staticmethod
    def assert_the_meter_had_work(runs, spec):
        for name, run in runs.items():
            assert run["counters"]["congested_flows"] > 0, name
            assert sum(run["timeline"]["counts"]["link_congested"]) > 0, name
            matrix = run["links"]["utilization"]
            assert any(value >= 1.0 for row in matrix.values() for value in row), name
        window = spec.links.window_seconds
        flows = spec.build_trace(spec.build_network()).flows
        crossing = [
            flow
            for flow in flows
            if int(flow.start_time / window) != int((flow.start_time + flow.duration) / window)
        ]
        assert 0 < len(crossing) < len(flows)

    def test_column_backed_chunks(self):
        spec = self.spec()
        scalar = run_dict(spec, "scalar", obs=TraceOptions(timeline=True))
        assert scalar == run_dict(spec, "vectorized", obs=TraceOptions(timeline=True))
        self.assert_the_meter_had_work(scalar, spec)

    def test_record_backed_chunks(self):
        """A trace built from records holds them beside its columns
        (``FlowChunk.from_records``); the meter reads the same columns on the
        kernel's bulk pass and on the scalar row walk alike."""
        from repro.obs.timeline import MetricsTimeline
        from repro.obs.tracer import EventTracer
        from repro.perf.recorder import PerfRecorder
        from repro.traffic.trace import Trace

        spec = self.spec()
        records = list(spec.build_trace(spec.build_network()).flows)

        def replay(system, kernel, perf=None):
            trace = Trace(spec.name, spec.build_network(), records)
            assert not trace.columns().mints_records
            return ScenarioRunner().replay_system(
                system,
                trace,
                schedule=spec.schedule,
                config=spec.effective_config(),
                tracer=EventTracer(
                    system=system, timeline=MetricsTimeline(spec.schedule.bucket_seconds)
                ),
                perf=perf,
                kernel=kernel,
            )

        runs = {}
        for system in self.TWO_SYSTEMS:
            scalar = replay(system, "scalar").to_dict()
            perf = PerfRecorder()
            vectorized = replay(system, "vectorized", perf).to_dict()
            assert perf.counter("kernel.flows_metered") > 0
            assert perf.counter("kernel.flows_vectorized") > 0
            assert scalar == {**vectorized, "perf": None}, system
            runs[system] = scalar
        self.assert_the_meter_had_work(runs, spec)


class TestEndStateEquivalence:
    """Every switch ends a replay in the same state, not just the same result.

    ``run.to_dict()`` carries no per-rule counts, no rule order, no G-FIB memo
    and no per-switch counters; this compares them directly, plane to plane.
    """

    #: The adaptive policy is left to the result-level suite: it is all fallback.
    TABLES = TABLE_SPECS[:4] + (
        TableSpec(capacity=64, policy="static-idle", idle_timeout_seconds=300.0),
    )

    @staticmethod
    def switch_state(switch):
        gfib = switch.gfib
        return {
            "rules": [
                (
                    rule.key,
                    rule.installed_at,
                    rule.last_matched_at,
                    rule.packet_count,
                    rule.byte_count,
                    rule.action,
                )
                for rule in switch.flow_table
            ],
            "table_stats": dataclasses.asdict(switch.flow_table.stats),
            "packets_processed": switch.packets_processed,
            "packets_to_controller": switch.packets_to_controller,
            "duplicate_deliveries": switch.duplicate_deliveries,
            "false_positive_drops": getattr(switch, "false_positive_drops", 0),
            "gfib": None
            if gfib is None
            else (gfib.query_count, gfib.query_cache_hits, gfib.version, set(gfib._query_cache)),
        }

    @pytest.mark.parametrize("system", ("openflow", "lazyctrl-dynamic"))
    @pytest.mark.parametrize("links", LINK_SPECS, ids=("unmetered", "metered"))
    @pytest.mark.parametrize(
        "tables", TABLES, ids=("no-overlay", "idle-cap8", "hybrid-cap8", "lru-cap4", "idle300-cap64")
    )
    def test_switches_end_in_the_same_state(self, tables, links, system):
        from repro.common.config import GroupingConfig, LazyCtrlConfig

        # Elephant pairs re-hit their rules, and groups of three switches give
        # LazyCtrl all of local, intra-group and inter-group flows.
        spec = dataclasses.replace(
            build_spec(model="elephant-mice", flows=12000, seed=17, tables=tables, links=links),
            config=LazyCtrlConfig(grouping=GroupingConfig(group_size_limit=3, random_seed=17)),
        )
        states = {}
        for kernel in ("scalar", "vectorized"):
            _, plane = ScenarioRunner()._replay_system(
                system,
                spec.build_trace(spec.build_network()),
                schedule=spec.schedule,
                config=spec.effective_config(),
                # Stop mid-schedule, between sweeps: rules are still resident.
                end=10_000.0,
                kernel=kernel,
            )
            states[kernel] = [self.switch_state(switch) for switch in plane.switches()]
        for scalar, vectorized in zip(states["scalar"], states["vectorized"], strict=True):
            assert scalar == vectorized
        assert any(state["rules"] for state in states["scalar"])

    @pytest.mark.parametrize("system", ("openflow", "lazyctrl-dynamic"))
    @pytest.mark.parametrize("churn", CHURN_SPECS, ids=CHURN_IDS)
    def test_switches_end_in_the_same_state_under_churn(self, churn, system):
        """The batch between two churn events is the kernel's unit: the hosts
        end where scalar put them, and so does every switch's state."""
        from repro.common.config import GroupingConfig, LazyCtrlConfig

        spec = dataclasses.replace(
            build_spec(model="elephant-mice", flows=6000, seed=17, churn=churn),
            config=LazyCtrlConfig(grouping=GroupingConfig(group_size_limit=3, random_seed=17)),
        )
        states = {}
        for kernel in ("scalar", "vectorized"):
            network = spec.build_network()
            _, plane = ScenarioRunner()._replay_system(
                system,
                spec.build_trace(network),
                schedule=spec.schedule,
                config=spec.effective_config(),
                churn=spec.churn,
                end=10_000.0,
                kernel=kernel,
            )
            placement = {host.host_id: host.switch_id for host in network.hosts()}
            states[kernel] = (placement, [self.switch_state(switch) for switch in plane.switches()])
        assert states["scalar"] == states["vectorized"]
        # Churn changed the placement before the window closed.
        pristine = {host.host_id: host.switch_id for host in spec.build_network().hosts()}
        assert states["scalar"][0] != pristine


class TestFallbackIsThePlanesDecideStep:
    """Fallback flows take ``plane.first_packet``, the step ``decide`` itself
    takes for every scalar flow; nothing is swapped out under it."""

    @staticmethod
    def prepared_plane(system, links):
        from repro.common.config import GroupingConfig, LazyCtrlConfig
        from repro.core.registry import get_control_plane

        # Groups of three switches, so LazyCtrl has inter-group flows to punt.
        spec = dataclasses.replace(
            build_spec(flows=800, seed=9, links=links),
            config=LazyCtrlConfig(grouping=GroupingConfig(group_size_limit=3, random_seed=9)),
        )
        network = spec.build_network()
        trace = spec.build_trace(network)
        plane = get_control_plane(system).build(network, config=spec.effective_config())
        plane.prepare(trace, warmup_end=SCHEDULE.warmup_seconds)
        return plane, trace.columns()

    @staticmethod
    def spy_on_first_packet(plane, seen, note):
        first_packet = plane.first_packet

        def spy(key, src_switch_id, dst_switch_id, now):
            seen.append(note(key, now))
            return first_packet(key, src_switch_id, dst_switch_id, now)

        plane.first_packet = spy

    @pytest.mark.parametrize("links", LINK_SPECS, ids=("plain-walk", "metered-walk"))
    @pytest.mark.parametrize("system", SYSTEMS)
    def test_recorder_and_intensity_window_keep_their_identity(self, system, links):
        from repro.kernel import build_batch_handler

        plane, records = self.prepared_plane(system, links)
        manager = getattr(plane.controller, "grouping_manager", None)

        def identities():
            return plane.latency_recorder, manager.recent_matrix if manager else None

        before = identities()
        during = []
        self.spy_on_first_packet(plane, during, lambda key, now: identities())
        handler = build_batch_handler(plane)
        def samples():
            return sum(count for _, count in plane.latency_recorder.bucket_totals().values())

        samples_before = samples()
        for start in range(0, len(records), 200):
            handler(records[start : start + 200])
            assert all(a is b for a, b in zip(identities(), before))
        assert during, "no flow took the fallback"
        assert all(a is b for seen in during for a, b in zip(seen, before))
        # ... and what the step left unrecorded, the batch fold recorded once.
        assert samples() - samples_before == sum(
            flow.packet_count for flow in records
        )

    @pytest.mark.parametrize("system", SYSTEMS)
    def test_decide_takes_the_same_step_for_every_scalar_flow(self, system):
        plane, records = self.prepared_plane(system, LINK_SPECS[0])
        network = plane.network
        seen = []
        self.spy_on_first_packet(plane, seen, lambda key, now: (key.src_mac, key.dst_mac, now))
        for flow in records:
            assert plane.handle_flow_arrival(flow, flow.start_time) is not None
        assert seen == [
            (network.host(flow.src_host_id).mac, network.host(flow.dst_host_id).mac, flow.start_time)
            for flow in records
        ]


class TestRecordsOnDemand:
    """The kernel reads columns, link meter and whole-batch bypass included."""

    def _run(self, spec):
        result = ScenarioRunner().run(
            dataclasses.replace(spec, execution=ExecutionSpec(kernel="vectorized")),
            collect_perf=True,
        )
        return {name: run.perf for name, run in result.runs.items()}

    def test_unmetered_walk_mints_no_record(self, constructions):
        """Fallback flows included: the packet-in step runs on the pair's flow
        key and the time column."""
        perfs = self._run(build_spec(flows=800, seed=21))
        for name, perf in perfs.items():
            assert perf.counters["kernel.flows_vectorized"] > 0, name
        assert perfs["openflow"].counters["kernel.flows_fallback"] > 0
        assert constructions["FlowRecord"] == 0

    def test_metered_run_mints_no_record_either(self, constructions):
        """The link meter reads the start / duration / byte columns in one
        pass per batch: every inter-switch flow is metered, none is minted."""
        for name, perf in self._run(build_spec(flows=800, seed=21, links=LINK_SPECS[1])).items():
            counters = perf.counters
            replayed = counters["kernel.flows_vectorized"] + counters["kernel.flows_fallback"]
            assert 0 < counters["kernel.flows_metered"] <= replayed, name
            assert perf.stage("kernel_meter").calls == counters["kernel.batches"], name
        assert constructions["FlowRecord"] == 0

    def test_profile_kernel_block_reports_the_meter_stage(self):
        from repro.perf.report import format_kernel_breakdown

        unmetered = format_kernel_breakdown(self._run(build_spec(flows=800, seed=21))["openflow"])
        assert "  meter: " not in unmetered
        metered = self._run(build_spec(flows=800, seed=21, links=LINK_SPECS[1]))["openflow"]
        block = format_kernel_breakdown(metered)
        assert f"  meter: {metered.stage('kernel_meter').total_seconds:.3f}s" in block
        assert f"{metered.counters['kernel.flows_metered']:,} inter-switch flows" in block


class TestNumpyGate:
    def test_vectorized_without_numpy_raises_configuration_error(self, monkeypatch):
        import repro.kernel as kernel_pkg

        monkeypatch.setattr(kernel_pkg, "numpy_available", lambda: False)
        with pytest.raises(ConfigurationError, match="numpy"):
            kernel_pkg.build_batch_handler(object())
        spec = build_spec(flows=50, execution=ExecutionSpec(kernel="vectorized"))
        with pytest.raises(ConfigurationError, match="vectorized"):
            ScenarioRunner().run(spec)

    def test_scalar_path_never_touches_the_kernel(self, monkeypatch):
        import repro.kernel as kernel_pkg

        monkeypatch.setattr(kernel_pkg, "numpy_available", lambda: False)
        result = ScenarioRunner().run(build_spec(flows=50))
        assert result.runs


class TestFallbackCauses:
    """``kernel.flows_fallback`` split by why the flows left the array path."""

    @staticmethod
    def split(counters):
        from repro.perf.report import KERNEL_FALLBACK_CAUSES

        assert set(KERNEL_FALLBACK_CAUSES) == {"punt", "rule_may_expire", "eviction_guard", "bypass"}
        return {
            cause: counters.get(f"kernel.fallback_{cause}", 0) for cause in KERNEL_FALLBACK_CAUSES
        }

    @pytest.mark.parametrize(
        "model,flows,tables,links,expected",
        [
            ("realistic", 800, None, None, {"punt", "rule_may_expire"}),
            # 4-entry LRU tables: rules never age, installs evict.
            ("elephant-mice", 3000, TABLE_SPECS[3], None, {"punt", "eviction_guard"}),
            # The adaptive predictor is never decidable in bulk.
            ("realistic", 800, TABLE_SPECS[4], LINK_SPECS[1], {"punt", "rule_may_expire"}),
        ],
        ids=("plain", "tiny-lru", "adaptive-metered"),
    )
    def test_the_parts_sum_to_flows_fallback(self, model, flows, tables, links, expected):
        from repro.perf.report import format_kernel_breakdown

        result = ScenarioRunner().run(
            build_spec(
                model=model,
                flows=flows,
                seed=21,
                tables=tables,
                links=links,
                execution=ExecutionSpec(kernel="vectorized"),
            ),
            collect_perf=True,
        )
        seen = set()
        for name, run in result.runs.items():
            counters = run.perf.counters
            parts = self.split(counters)
            assert sum(parts.values()) == counters["kernel.flows_fallback"], name
            seen.update(cause for cause, flows in parts.items() if flows)
            block = format_kernel_breakdown(run.perf)
            assert f"fallback flows: {counters['kernel.flows_fallback']:,} = " in block
            assert f"{parts['punt']:,} no-rule packet-ins" in block
        assert seen == expected

    def test_a_bypassed_batch_counts_whole(self):
        from repro.core.registry import get_control_plane
        from repro.kernel import build_batch_handler
        from repro.perf.recorder import PerfRecorder

        spec = build_spec(flows=400, seed=5)
        network = spec.build_network()
        flows = spec.build_trace(network).columns()
        plane = get_control_plane("openflow").build(network, config=spec.effective_config())
        perf = PerfRecorder()
        handler = build_batch_handler(plane, perf=perf)
        handler(flows[:100])
        plane.switches()[0].failed = True  # a state the array path does not model
        handler(flows[100:250])
        parts = self.split(perf.counters)
        assert parts["bypass"] == 150
        assert sum(parts.values()) == perf.counter("kernel.flows_fallback")
