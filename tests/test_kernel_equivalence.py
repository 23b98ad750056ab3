"""The columnar kernel's own contract, beyond equivalence.

Vectorized ≡ scalar over every execution shape is the equivalence matrix's
(``test_equivalence_matrix.py``).  These tests hold what the kernel does on
the way: fallback flows take the plane's own per-flow step with nothing
swapped out under it, records are read as columns and never minted, numpy is
asked for only by the kernel, and ``kernel.flows_fallback`` splits by cause.
"""

from unittest import mock

import pytest

pytest.importorskip("numpy")

from equivalence import LINK_SPECS, SYSTEMS, TABLE_SPECS, Cell, build_spec, outcome
from repro.common.errors import ConfigurationError
from repro.core.runner import ScenarioRunner
from repro.replay.spec import ExecutionSpec


def kernel_perf(spec):
    """Each system's perf snapshot of ``spec`` on the vectorized kernel."""
    return {name: run.perf for name, run in outcome(spec, Cell(kernel="vectorized", perf=True)).result.runs.items()}


class TestFallbackIsThePlanesDecideStep:
    """Fallback flows take ``plane.first_packet``, the step ``flow_arrival`` itself
    takes for every scalar flow; nothing is swapped out under it."""

    @staticmethod
    def prepared_plane(system, links):
        from repro.core.registry import get_control_plane

        # Groups of three switches, so LazyCtrl has inter-group flows to punt.
        spec = build_spec(flows=800, seed=9, links=links, group_size_limit=3)
        network = spec.build_network()
        trace = spec.build_trace(network)
        plane = get_control_plane(system).build(network, config=spec.config)
        plane.prepare(trace, warmup_end=spec.schedule.warmup_seconds)
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


def test_batches_end_where_state_can_change_not_at_every_tick():
    """``paper-fig7`` at 20 000 flows: ticks fire inside the kernel's walk, so there
    are fewer batches than ticks, and a rule's run is cut only where its idle
    timer can fire, so the baseline walks about one flow per packet-in."""
    perfs = kernel_perf(build_spec("paper-fig7", flows=20_000))
    for name, perf in perfs.items():
        assert perf.counters["kernel.batches"] < perf.counters["replay.periodic_invocations"], name
    counters = perfs["openflow"].counters
    assert abs(counters["kernel.flows_fallback"] - counters["controller.requests"]) <= 0.05 * counters["controller.requests"]


class TestRecordsOnDemand:
    """The kernel reads columns, link meter and whole-batch bypass included."""

    def test_unmetered_walk_mints_no_record(self, constructions):
        """Fallback flows included: the packet-in step runs on the pair's flow
        key and the time column."""
        perfs = kernel_perf(build_spec(flows=800, seed=21))
        for name, perf in perfs.items():
            assert perf.counters["kernel.flows_vectorized"] > 0, name
        assert perfs["openflow"].counters["kernel.flows_fallback"] > 0
        assert constructions["FlowRecord"] == 0

    def test_metered_run_mints_no_record_either(self, constructions):
        """The link meter reads the start / duration / byte columns in one
        pass per batch: every inter-switch flow is metered, none is minted."""
        for name, perf in kernel_perf(build_spec(flows=800, seed=21, links=LINK_SPECS[1])).items():
            counters = perf.counters
            replayed = counters["kernel.flows_vectorized"] + counters["kernel.flows_fallback"]
            assert 0 < counters["kernel.flows_metered"] <= replayed, name
            assert perf.stage("kernel_meter").calls == counters["kernel.batches"], name
        assert constructions["FlowRecord"] == 0

    def test_profile_kernel_block_reports_the_meter_stage(self):
        from repro.perf.report import format_kernel_breakdown

        unmetered = format_kernel_breakdown(kernel_perf(build_spec(flows=800, seed=21))["openflow"])
        assert "  meter: " not in unmetered
        metered = kernel_perf(build_spec(flows=800, seed=21, links=LINK_SPECS[1]))["openflow"]
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
            # Static timeouts: a rule's run splits where its timer can fire,
            # so only segment heads (packet-ins) are walked.
            ("realistic", 800, None, None, {"punt"}),
            # 4-entry LRU tables: rules never age, installs evict.
            ("elephant-mice", 3000, TABLE_SPECS[3], None, {"punt", "eviction_guard"}),
            # The adaptive predictor is never decidable in bulk.
            ("realistic", 800, TABLE_SPECS[4], LINK_SPECS[1], {"punt", "rule_may_expire"}),
        ],
        ids=("plain", "tiny-lru", "adaptive-metered"),
    )
    def test_the_parts_sum_to_flows_fallback(self, model, flows, tables, links, expected):
        """Batches of 16 flows, so that rules are resident when batches start."""
        from repro.perf.report import format_kernel_breakdown
        from repro.traffic import replay

        seen, spec = set(), build_spec(model=model, flows=flows, seed=21, tables=tables, links=links)
        with mock.patch.object(replay, "KERNEL_BATCH_FLOWS", 16):
            perfs = kernel_perf(spec)
        for name, perf in perfs.items():
            counters = perf.counters
            parts = self.split(counters)
            assert sum(parts.values()) == counters["kernel.flows_fallback"], name
            seen.update(cause for cause, flows in parts.items() if flows)
            block = format_kernel_breakdown(perf)
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
        plane = get_control_plane("openflow").build(network, config=spec.config)
        perf = PerfRecorder()
        handler = build_batch_handler(plane, perf=perf)
        handler(flows[:100])
        plane.switches()[0].failed = True  # a state the array path does not model
        handler(flows[100:250])
        parts = self.split(perf.counters)
        assert parts["bypass"] == 150
        assert sum(parts.values()) == perf.counter("kernel.flows_fallback")
