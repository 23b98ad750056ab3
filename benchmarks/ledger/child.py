"""The in-child half of the ledger: the set-up-only run and the traced run.

``run.py`` starts this file in a fresh interpreter (``PYTHONPATH`` pointing
at ``src/``) so that nothing it imports or allocates is shared with the
harness or with another measurement:

* ``child.py setup spec.json`` makes, in the runner's order, exactly the
  public calls ``ScenarioRunner.run`` makes before the first flow is
  replayed, then exits; its wall clock, measured by the parent, is
  ``setup_s``.
* ``child.py trace spec.json out.json`` runs the scenario untraced and then
  with ``collect_perf=True``, makes the same public calls in isolation with a
  span around each, runs the micro-benchmarks, and writes the spans and the
  per-layer metrics to ``out.json``.

Every span is recorded here, around a call into a ``src/repro`` package;
nothing inside ``src/`` is instrumented by this file.
"""

from __future__ import annotations

import gc
import json
import sys
import timeit
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

#: ``(name, unit, better)`` of every per-layer metric, in print order.
#: Times and counts are summed over the workload's systems, ratios are taken
#: over the summed counts; a metric whose layer the workload never enters
#: (``kernel.*`` on a scalar run, ``replay.*`` on a serial one) reads 0.
PER_LAYER: Tuple[Tuple[str, str, str], ...] = (
    ("cli.import_s", "s", "lower"),
    ("core.spec_load_s", "s", "lower"),
    ("topology.build_network_s", "s", "lower"),
    ("traffic.generate_s", "s", "lower"),
    ("traffic.generate_us_per_flow", "us", "lower"),
    ("traffic.generate_share", "ratio", "lower"),
    ("core.plane_build_s", "s", "lower"),
    ("core.prepare_s", "s", "lower"),
    ("kernel.build_s", "s", "lower"),
    ("traffic.replay_s", "s", "lower"),
    ("traffic.replay_self_s", "s", "lower"),
    ("core.flow_handling_s", "s", "lower"),
    ("core.scalar_us_per_flow", "us", "lower"),
    ("kernel.classify_s", "s", "lower"),
    ("kernel.accumulate_s", "s", "lower"),
    ("kernel.fallback_s", "s", "lower"),
    ("kernel.coverage", "ratio", "higher"),
    ("kernel.flows_fallback", "count", "lower"),
    ("kernel.fallback_us_per_flow", "us", "lower"),
    ("controlplane.periodic_s", "s", "lower"),
    ("controlplane.dissemination_s", "s", "lower"),
    ("partitioning.regroup_s", "s", "lower"),
    ("tables.sweep_s", "s", "lower"),
    ("churn.engine_s", "s", "lower"),
    ("controlplane.requests", "count", "lower"),
    ("controlplane.regroups_applied", "count", "lower"),
    ("churn.events", "count", "lower"),
    ("dataplane.packets_to_controller", "count", "lower"),
    ("dataplane.flow_table_hit_ratio", "ratio", "higher"),
    ("datastructures.gfib_cache_hit_ratio", "ratio", "higher"),
    ("tables.reinstall_ratio", "ratio", "lower"),
    ("bandwidth.congested_flows", "count", "lower"),
    ("bandwidth.peak_utilization", "ratio", "lower"),
    ("replay.critical_path_s", "s", "lower"),
    ("replay.total_shard_s", "s", "lower"),
    ("replay.parallel_efficiency", "ratio", "higher"),
    ("replay.pool_overhead_s", "s", "lower"),
    ("core.save_s", "s", "lower"),
    ("core.unattributed_s", "s", "lower"),
    ("sim.ctrl_reduction", "ratio", "higher"),
    ("sim.latency_reduction", "ratio", "higher"),
    ("trace.overhead_ratio", "ratio", "lower"),
    ("datastructures.gfib_query_warm_ns", "ns", "lower"),
    ("datastructures.gfib_query_cold_ns", "ns", "lower"),
    ("datastructures.flow_table_lookup_ns", "ns", "lower"),
    ("datastructures.flow_table_install_evict_ns", "ns", "lower"),
    ("datastructures.bloom_contains_ns", "ns", "lower"),
    ("simulation.latency_fold_ns", "ns", "lower"),
    ("bandwidth.meter_observe_ns", "ns", "lower"),
    ("partitioning.initial_grouping_ms", "ms", "lower"),
    ("partitioning.incremental_update_ms", "ms", "lower"),
)

#: Per-layer metrics a deterministic simulator must repeat exactly between two
#: runs of one commit on one seed, and that a performance change may not move.
EXACT_REPEAT = frozenset(
    name
    for name, unit, _ in PER_LAYER
    if unit == "count" or name.startswith("sim.")
) | {
    "kernel.coverage",
    "dataplane.flow_table_hit_ratio",
    "datastructures.gfib_cache_hit_ratio",
    "tables.reinstall_ratio",
    "bandwidth.peak_utilization",
}

#: Seconds each timed repetition of a micro-benchmark loop aims for.
MICRO_TARGET_SECONDS = 0.06
MICRO_REPEATS = 5


class Spans:
    """In-memory span recorder: name, start, end, parent and workload/system id."""

    def __init__(self, workload: str) -> None:
        self.workload = workload
        self.rows: List[Dict[str, Any]] = []
        self._open: List[int] = []

    @contextmanager
    def span(self, name: str, *, system: Optional[str] = None) -> Iterator[Dict[str, Any]]:
        row = {
            "id": len(self.rows),
            "name": name,
            "parent": self._open[-1] if self._open else None,
            "workload": self.workload,
            "system": system,
            "start": perf_counter(),
            "end": None,
        }
        self.rows.append(row)
        self._open.append(row["id"])
        try:
            yield row
        finally:
            row["end"] = perf_counter()
            self._open.pop()

    def seconds(self, name: str) -> float:
        """Total duration of every finished span called ``name``."""
        return sum(row["end"] - row["start"] for row in self.rows if row["name"] == name)

    def count(self, name: str) -> int:
        return sum(1 for row in self.rows if row["name"] == name)


def setup_calls(spec_path: str, spans: Spans, *, drain_streams: bool = False):
    """The runner's pre-replay public calls, in its order, one span each.

    Mirrors ``ScenarioRunner._run_serial`` / ``execute_shard``: one network
    and one materialized trace shared by the systems, or a fresh network and
    a lazy stream per system when streaming, or a fresh network with the
    flows rebound per system under churn.  A time-window shard does what one
    streamed system does here, so the sharded workload's set-up is one
    shard's worth.  With ``drain_streams`` a streamed spec's chunks are
    additionally drained once, which is the generation the replay would do.
    """
    with spans.span("cli.import"):
        import repro.cli  # noqa: F401  (what ``python -m repro`` imports before parsing argv)
        from repro.core.registry import get_control_plane
        from repro.core.scenario import ScenarioSpec
        from repro.traffic.trace import Trace

    with spans.span("core.spec_load"):
        spec = ScenarioSpec.load(spec_path)
        config = spec.effective_config()
    schedule = spec.schedule

    base_trace = None
    if not spec.stream or drain_streams:
        with spans.span("topology.build_network"):
            network = spec.build_network()
        with spans.span("traffic.generate"):
            if spec.stream:
                for chunk in spec.build_stream(network).chunks():
                    len(chunk)
            else:
                base_trace = spec.build_trace(network)

    for name in spec.systems:
        entry = get_control_plane(name)
        if spec.stream:
            with spans.span("topology.build_network", system=name):
                network = spec.build_network()
            trace = spec.build_stream(network)
        elif spec.churn_active:
            with spans.span("topology.build_network", system=name):
                network = spec.build_network()
            trace = Trace(base_trace.name, network, base_trace.flows)
        else:
            trace = base_trace
        with spans.span("core.plane_build", system=name):
            plane = entry.build(
                trace.network,
                config=config,
                workload_bucket_seconds=schedule.bucket_seconds,
                latency_bucket_seconds=schedule.bucket_seconds,
            )
        with spans.span("core.prepare", system=name):
            plane.prepare(trace, warmup_end=schedule.warmup_seconds)
        # Active churn on a churn-aware plane needs per-flow engine lockstep,
        # so the runner never builds the kernel there.
        if spec.execution.kernel == "vectorized" and not (spec.churn_active and entry.churn_aware):
            with spans.span("kernel.build", system=name):
                from repro.kernel import build_batch_handler

                build_batch_handler(plane)
    return spec


# -- per-layer metrics from the two runs ------------------------------------


def _stage_total(result, stage: str) -> float:
    total = 0.0
    for run in result.runs.values():
        try:
            total += run.perf.stage(stage).total_seconds
        except KeyError:
            pass
    return total


def _counter_total(result, counter: str) -> int:
    return sum(run.perf.counters.get(counter, 0) for run in result.runs.values())


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _network_builds(spec) -> int:
    """How many times a serial run of ``spec`` calls ``build_network``."""
    if spec.stream:
        return len(spec.systems)
    return 1 + (len(spec.systems) if spec.churn_active else 0)


def layer_metrics(spec, spans: Spans, untraced, traced, untraced_wall: float, traced_wall: float) -> Dict[str, float]:
    """Every per-layer metric except ``cli.import_s`` and the micro-benchmarks."""
    systems = len(spec.systems)
    flows = spec.traffic.total_flows or 0
    runs = list(untraced.runs.values())
    pooled = bool(untraced.shards and untraced.shards.get("pooled"))
    workers = untraced.shards["workers"] if pooled else 1

    network_s = spans.seconds("topology.build_network") / spans.count("topology.build_network")
    generate_s = spans.seconds("traffic.generate")
    generations = systems if spec.stream else 1
    replay_s = _stage_total(traced, "replay")
    flow_handling_s = _stage_total(traced, "flow_handling")
    periodic_s = _stage_total(traced, "periodic")
    fallback_s = _stage_total(traced, "kernel_fallback")
    vectorized = _counter_total(traced, "kernel.flows_vectorized")
    fallback = _counter_total(traced, "kernel.flows_fallback")
    table_hits = _counter_total(traced, "edge.flow_table_hits")
    table_misses = _counter_total(traced, "edge.flow_table_misses")
    installs = sum(run.tables.installs for run in runs if run.tables is not None)
    reinstalls = sum(run.tables.reinstalls for run in runs if run.tables is not None)

    if pooled:
        # Every shard's wall covers its own network, stream, warm-up and
        # replay; what an ideally packed pool would take is all the run can
        # attribute to them.
        attributed = untraced.shards["total_shard_seconds"] / workers
    else:
        attributed = (
            network_s * _network_builds(spec)
            + (0.0 if spec.stream else generate_s)
            + spans.seconds("core.plane_build")
            + spans.seconds("core.prepare")
            + spans.seconds("kernel.build")
            + sum(run.perf.wall_seconds for run in traced.runs.values())
        )

    metrics = {
        "core.spec_load_s": spans.seconds("core.spec_load"),
        "topology.build_network_s": network_s,
        "traffic.generate_s": generate_s,
        "traffic.generate_us_per_flow": _ratio(generate_s * 1e6, flows),
        "traffic.generate_share": _ratio(generate_s * generations, traced_wall * workers),
        "core.plane_build_s": spans.seconds("core.plane_build"),
        "core.prepare_s": spans.seconds("core.prepare"),
        "kernel.build_s": spans.seconds("kernel.build"),
        "traffic.replay_s": replay_s,
        "traffic.replay_self_s": replay_s - flow_handling_s - periodic_s,
        "core.flow_handling_s": flow_handling_s,
        "core.scalar_us_per_flow": (
            _ratio(flow_handling_s * 1e6, flows * systems)
            if spec.execution.kernel == "scalar"
            else 0.0
        ),
        "kernel.classify_s": _stage_total(traced, "kernel_classify"),
        "kernel.accumulate_s": _stage_total(traced, "kernel_accumulate"),
        "kernel.fallback_s": fallback_s,
        "kernel.coverage": _ratio(vectorized, flows * systems),
        "kernel.flows_fallback": fallback,
        "kernel.fallback_us_per_flow": _ratio(fallback_s * 1e6, fallback),
        "controlplane.periodic_s": periodic_s,
        "controlplane.dissemination_s": _stage_total(traced, "dissemination"),
        "partitioning.regroup_s": _stage_total(traced, "regrouping"),
        "tables.sweep_s": _stage_total(traced, "table_sweep"),
        "churn.engine_s": _stage_total(traced, "engine"),
        "controlplane.requests": sum(run.total_controller_requests for run in runs),
        "controlplane.regroups_applied": sum(sum(run.updates_per_hour) for run in runs),
        "churn.events": sum(run.churn.total_events() for run in runs if run.churn is not None),
        "dataplane.packets_to_controller": _counter_total(traced, "edge.packets_to_controller"),
        "dataplane.flow_table_hit_ratio": _ratio(table_hits, table_hits + table_misses),
        "datastructures.gfib_cache_hit_ratio": _ratio(
            _counter_total(traced, "edge.gfib_query_cache_hits"),
            _counter_total(traced, "edge.gfib_queries"),
        ),
        "tables.reinstall_ratio": _ratio(reinstalls, installs),
        "bandwidth.congested_flows": sum(run.counters.congested_flows for run in runs),
        "bandwidth.peak_utilization": max(
            (run.links.peak_utilization for run in runs if run.links is not None), default=0.0
        ),
        "replay.critical_path_s": untraced.shards["critical_path_seconds"] if pooled else 0.0,
        "replay.total_shard_s": untraced.shards["total_shard_seconds"] if pooled else 0.0,
        "replay.parallel_efficiency": (
            _ratio(untraced.shards["total_shard_seconds"], workers * untraced_wall) if pooled else 0.0
        ),
        "replay.pool_overhead_s": (
            untraced_wall - untraced.shards["critical_path_seconds"] if pooled else 0.0
        ),
        "core.save_s": spans.seconds("core.save"),
        "core.unattributed_s": untraced_wall - attributed,
        "sim.ctrl_reduction": 0.0,
        "sim.latency_reduction": 0.0,
        "trace.overhead_ratio": _ratio(traced_wall, untraced_wall),
    }
    if "openflow" in untraced.runs and "lazyctrl-dynamic" in untraced.runs:
        metrics["sim.ctrl_reduction"] = untraced.reduction("openflow", "lazyctrl-dynamic")
        metrics["sim.latency_reduction"] = 1.0 - _ratio(
            untraced.runs["lazyctrl-dynamic"].latency.overall_mean_ms,
            untraced.runs["openflow"].latency.overall_mean_ms,
        )
    return metrics


def per_system_stages(traced) -> Dict[str, Dict[str, float]]:
    """The traced run's stage totals per system (the breakdown behind the sums)."""
    return {
        name: {
            "replay_wall_s": run.perf.wall_seconds,
            **{stage.name + "_s": stage.total_seconds for stage in run.perf.stages},
        }
        for name, run in traced.runs.items()
    }


# -- micro-benchmarks ---------------------------------------------------------


def _best_seconds_per_call(loop: Callable[[int], None]) -> float:
    """Best-of-``MICRO_REPEATS`` seconds per operation of ``loop(n)``."""
    calls = 1
    while True:
        started = perf_counter()
        loop(calls)
        elapsed = perf_counter() - started
        if elapsed >= MICRO_TARGET_SECONDS / 4 or calls >= 1 << 24:
            break
        calls *= 4
    calls = max(1, int(calls * MICRO_TARGET_SECONDS / max(elapsed, 1e-9)))
    best = min(timeit.repeat(lambda: loop(calls), number=1, repeat=MICRO_REPEATS))
    return best / calls


def micro_benchmarks(spans: Spans) -> Dict[str, float]:
    """Hot primitives in isolation, each on the state a replay holds it in."""
    from itertools import cycle, islice

    from repro.common.addresses import MacAddress
    from repro.common.config import BloomFilterConfig, LatencyModelConfig
    from repro.common.packets import FlowKey
    from repro.core.presets import get_preset
    from repro.datastructures.bloom import BloomFilter
    from repro.datastructures.fib import GroupFib
    from repro.datastructures.flow_table import ActionType, FlowAction, FlowTable
    from repro.bandwidth.meter import build_link_meter
    from repro.partitioning.sgi import SgiGrouper
    from repro.simulation.latency import LatencyModel
    from repro.simulation.metrics import LatencyRecorder

    import workloads

    results: Dict[str, float] = {}

    def record(name: str, scale: float, loop: Callable[[int], None]) -> None:
        with spans.span("micro." + name):
            results[name] = _best_seconds_per_call(loop) * scale

    # A G-FIB as one switch of an 8-switch group holds it: 7 peers, ~12 hosts each.
    gfib = GroupFib()
    for peer in range(7):
        gfib.install_peer(peer, [MacAddress.from_host_index(peer * 12 + i) for i in range(12)])
    resident = [MacAddress.from_host_index(i) for i in range(84)]
    # More distinct MACs than the query cache holds, so a cycled query never
    # finds its previous answer.
    strangers = [MacAddress.from_host_index(1000 + i) for i in range(GroupFib.QUERY_CACHE_LIMIT * 2 + 1)]

    def query_loop(macs):
        # One endless iterator per loop, so a repetition continues where the
        # last one stopped instead of revisiting (and re-finding) its start.
        endless = cycle(macs)

        def loop(calls: int) -> None:
            query = gfib.query
            for mac in islice(endless, calls):
                query(mac)
        return loop

    record("datastructures.gfib_query_warm_ns", 1e9, query_loop(resident))
    record("datastructures.gfib_query_cold_ns", 1e9, query_loop(strangers))

    bloom = BloomFilter.from_config(BloomFilterConfig())
    bloom.add_all(mac.to_bytes() for mac in resident[:12])
    needles = [mac.to_bytes() for mac in resident[:24]]

    endless_needles = cycle(needles)

    def bloom_loop(calls: int) -> None:
        for needle in islice(endless_needles, calls):
            needle in bloom

    record("datastructures.bloom_contains_ns", 1e9, bloom_loop)

    # Lookups against a full default table, beside installs into a full small
    # one (the table-pressure preset's), so a read gain that costs writes shows.
    action = FlowAction(ActionType.ENCAP_TO_SWITCH, 1)
    table = FlowTable()
    keys = [
        FlowKey(MacAddress.from_host_index(i), MacAddress.from_host_index(i + 1), 0)
        for i in range(table.capacity)
    ]
    for key in keys:
        table.install(key, action)

    resident_keys = cycle(keys)

    def lookup_loop(calls: int) -> None:
        lookup = table.lookup
        for key in islice(resident_keys, calls):
            lookup(key, now=1.0, size_bytes=1500)

    record("datastructures.flow_table_lookup_ns", 1e9, lookup_loop)

    (pressure,) = get_preset("table-pressure").specs()
    small = FlowTable(pressure.effective_config().flow_table)

    arriving_keys = cycle(keys)

    def install_loop(calls: int) -> None:
        install = small.install
        for key in islice(arriving_keys, calls):
            install(key, action, now=1.0)

    record("datastructures.flow_table_install_evict_ns", 1e9, install_loop)

    model = LatencyModel(LatencyModelConfig())
    recorder = LatencyRecorder(7200.0)

    def fold_loop(calls: int) -> None:
        fold = recorder.record
        for index in range(0, calls, 4):
            now = float(index)
            fold(now, model.local_delivery_ms())
            fold(now, model.flow_table_hit_ms(), count=9)
            fold(now, model.intra_group_ms(1))
            fold(now, model.inter_group_setup_ms(500.0))

    record("simulation.latency_fold_ns", 1e9, fold_loop)

    incast = workloads.with_flows(workloads.build("incast-links"), 2_000)
    network = incast.build_network()
    meter = build_link_meter(network)
    observations = [
        (flow, network.switch_of_host(flow.src_host_id), network.switch_of_host(flow.dst_host_id))
        for flow in incast.build_trace(network).flows
    ]

    arrivals = cycle(observations)

    def observe_loop(calls: int) -> None:
        observe = meter.observe
        for flow, src, dst in islice(arrivals, calls):
            observe(flow, src, dst, flow.start_time)

    record("bandwidth.meter_observe_ns", 1e9, observe_loop)

    # IniGroup and IncUpdate on the 96-switch matrices the churn workload's
    # controller sees: its warm-up hour, then the hour after it.
    churn = workloads.build("churn-regroup")
    stream = churn.build_stream(churn.build_network())
    warmup = churn.schedule.warmup_seconds
    history = stream.switch_intensity(start=0.0, end=warmup)
    recent = stream.switch_intensity(start=warmup, end=2 * warmup)
    grouper = SgiGrouper(churn.config.grouping)
    grouping = grouper.initial_grouping(history)

    def initial_loop(calls: int) -> None:
        for _ in range(calls):
            grouper.initial_grouping(history)

    def incremental_loop(calls: int) -> None:
        for _ in range(calls):
            grouper.incremental_update(grouping, history, recent)

    record("partitioning.initial_grouping_ms", 1e3, initial_loop)
    record("partitioning.incremental_update_ms", 1e3, incremental_loop)
    return results


# -- the traced child -----------------------------------------------------------


def trace(spec_path: str, *, micro: bool = True) -> Dict[str, Any]:
    """Untraced run, traced run, isolated calls and micro-benchmarks of one spec."""
    workload = Path(spec_path).stem
    spans = Spans(workload)
    with spans.span("child.trace"):
        with spans.span("cli.import"):
            import repro.cli  # noqa: F401
            from repro.core.runner import ScenarioRunner
            from repro.core.scenario import ScenarioSpec

        spec = ScenarioSpec.load(spec_path)
        with spans.span("run.untraced") as row:
            untraced = ScenarioRunner().run(spec)
        untraced_wall = row["end"] - row["start"]
        gc.collect()
        with spans.span("run.traced") as row:
            traced = ScenarioRunner().run(spec, collect_perf=True)
        traced_wall = row["end"] - row["start"]
        with spans.span("core.save"):
            untraced.save(Path(spec_path).with_name("trace-result.json"))
        traced.save(Path(spec_path).with_name("trace-result-traced.json"))
        gc.collect()
        with spans.span("isolated"):
            setup_calls(spec_path, spans, drain_streams=True)
        gc.collect()
        metrics = layer_metrics(spec, spans, untraced, traced, untraced_wall, traced_wall)
        if micro:
            with spans.span("micro"):
                metrics.update(micro_benchmarks(spans))
    return {
        "workload": workload,
        "metrics": metrics,
        "per_system": per_system_stages(traced),
        "run_wall_s": {"untraced": untraced_wall, "traced": traced_wall},
        "spans": spans.rows,
    }


def main(argv: List[str]) -> int:
    if len(argv) == 2 and argv[0] == "setup":
        setup_calls(argv[1], Spans(Path(argv[1]).stem))
        return 0
    if len(argv) == 3 and argv[0] == "trace":
        Path(argv[2]).write_text(json.dumps(trace(argv[1])) + "\n", encoding="utf-8")
        return 0
    print("usage: child.py setup SPEC.json | child.py trace SPEC.json OUT.json", file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
