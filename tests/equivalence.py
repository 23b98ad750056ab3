"""The equivalence harness: one reference for every execution shape.

Every figure is read off counters promised bit-identical however a replay
runs: scalar or vectorized kernel; flows delivered as a materialized trace,
a stream or a record list; serial, pooled per system or in time windows;
traced or not.  This module holds one copy of each piece checking it takes:
the spec builder (:func:`build_spec`, with :func:`expansion_window`), the
execution shape (:class:`Cell`: its reference and its refusal), a run's
outcome and its one comparison (:func:`outcome`, :meth:`Outcome.assert_same`),
the end state a result does not carry (:func:`replay_plane`,
:func:`plane_state`, :func:`switch_state`), and the component-level entry
point "a run of ``n`` is ``n`` runs of one" (:func:`assert_n_ones`).
"""

from __future__ import annotations

import dataclasses
import tempfile
from contextlib import nullcontext
from pathlib import Path
from typing import Any, Dict, List, Optional
from unittest import mock

import pytest

from repro.bandwidth.spec import LinkCapacitySpec
from repro.churn.spec import ChurnSpec
from repro.common.config import FlowTableConfig, GroupingConfig, LazyCtrlConfig
from repro.common.diff import payload_drift
from repro.core import scenario
from repro.core.runner import ScenarioResult, ScenarioRunner
from repro.core.scenario import ScenarioSpec, ScheduleSpec, TraceSpec
from repro.obs.tracer import JsonlEventListener, TraceOptions
from repro.perf.recorder import PerfRecorder
from repro.replay.executor import shard_tracer
from repro.replay.spec import ExecutionSpec
from repro.topology.builder import TopologyProfile
from repro.traffic.trace import Trace

SYSTEMS = ("openflow", "lazyctrl-static", "lazyctrl-dynamic")

#: Tables that hit every kernel path: generous (pure HIT/LOCAL/INTRA), tiny
#: (slack-guard demotions, evictions) and adaptive (per-rule timeouts: all fallback).
TABLE_SPECS = (
    None,
    FlowTableConfig(policy="static-idle", idle_timeout_seconds=900.0).resized(8),
    FlowTableConfig(policy="idle-hard-hybrid", idle_timeout_seconds=900.0, hard_timeout_seconds=3600.0).resized(8),
    FlowTableConfig(policy="lru").resized(4),
    FlowTableConfig(
        policy="adaptive",
        idle_timeout_seconds=900.0,
        policy_params={"min_timeout_seconds": 60.0, "max_timeout_seconds": 1800.0},
    ).resized(8),
)
TABLE_IDS = ("default", "idle-cap8", "hybrid-cap8", "lru-cap4", "adaptive-cap8")

#: No metering and an undersized uplink; and uplinks thin enough to congest.
LINK_SPECS = (None, LinkCapacitySpec(uplink_mbps=0.5))
THIN_LINKS = LinkCapacitySpec(uplink_mbps=0.05)

#: Host moves; and tenants arriving and leaving, whose departures leave flows
#: between hosts that are gone.
CHURN_SPECS = (
    ChurnSpec(seed=5, migration_rate_per_hour=24.0, drift_rate_per_hour=4.0),
    ChurnSpec(
        seed=5, migration_rate_per_hour=2.0, tenant_arrival_rate_per_hour=3.0, tenant_departure_rate_per_hour=3.0
    ),
)
CHURN_IDS = ("migration-drift", "tenant-lifecycle")

#: Eight switches, 48 hosts, tenants of 6–12 homed on two switches each.
SMALL_TENANTS = TopologyProfile(
    switch_count=8, host_count=48, min_tenant_size=6, max_tenant_size=12, home_switches_per_tenant=2, seed=4
)
#: Six switches, 48 hosts: the network trace-level properties generate over.
TRACE_PROFILE = TopologyProfile(switch_count=6, host_count=48, seed=23, home_switches_per_tenant=2)

#: What :func:`build_spec` gives a model beyond its flow count and seed.
MODEL_PARAMS = {
    "incast-hotspot": {"hotspot_count": 2, "hotspot_flow_fraction": 0.7, "burst_window_hours": (1.0, 3.0)},
    "elephant-mice": {"elephant_pair_count": 4, "elephant_flow_fraction": 0.3},
    "mix": {
        "components": (
            {"model": "realistic", "params": {}, "weight": 1.0},
            {"model": "incast-hotspot", "params": {"hotspot_count": 2}, "weight": 2.0},
        )
    },
}

#: Where the §V-D expansion lands in a replayed spec (its default, hours 8–24,
#: lies past every schedule here): across the 2 h bucket edge, and inside the
#: 4 h schedule of :func:`build_spec`.
EXPAND_WINDOW_HOURS = (1.0, 3.0)


def expansion_inside(hours=EXPAND_WINDOW_HOURS):
    """A context in which the expansion lands in ``hours``."""
    return mock.patch.object(scenario, "EXPAND_WINDOW_HOURS", hours)


@pytest.fixture
def expansion_window():
    with expansion_inside():
        yield


def queued(config: LazyCtrlConfig) -> LazyCtrlConfig:
    """``config`` with the 0.25 ms queueing term that capacitated links feed."""
    return dataclasses.replace(config, latency=dataclasses.replace(config.latency, queueing_service_ms=0.25))


def build_spec(
    preset: Optional[str] = None,
    *,
    model: str = "realistic",
    flows: int = 600,
    seed: int = 7,
    switches: int = 8,
    hosts: int = 64,
    hours: float = 4.0,
    bucket_hours: float = 2.0,
    trace_hours: Optional[float] = None,
    params: Optional[Dict[str, Any]] = None,
    expand: float = 0.0,
    tables: Optional[FlowTableConfig] = None,
    links: Optional[LinkCapacitySpec] = None,
    group_size_limit: Optional[int] = None,
    config: Optional[LazyCtrlConfig] = None,
    **fields: Any,
) -> ScenarioSpec:
    """A small spec, or ``preset``'s at ``flows``; any other spec field by keyword.

    Topology and traffic share ``seed``; ``trace_hours`` bounds the model's
    day; ``params``, when given, are the model's params as they stand;
    capacitated ``links`` come with the queueing term.
    """
    if preset is not None:
        from repro.core.presets import get_preset

        (spec,) = get_preset(preset).specs()
        if config is not None:
            fields["config"] = config
        return dataclasses.replace(spec, traffic=spec.traffic.with_params(total_flows=flows), **fields)
    if params is None:
        params = {"total_flows": flows, "seed": seed, **MODEL_PARAMS.get(model, {})}
    if trace_hours is not None:
        params = {**params, "duration_hours": trace_hours}
    config = config or LazyCtrlConfig()
    if group_size_limit is not None:
        grouping = GroupingConfig(group_size_limit=group_size_limit, random_seed=seed)
        config = dataclasses.replace(config, grouping=grouping)
    if tables is not None:
        config = dataclasses.replace(config, flow_table=tables)
    fields.setdefault("topology", TopologyProfile(switch_count=switches, host_count=hosts, seed=seed))
    fields.setdefault("systems", SYSTEMS)
    fields.setdefault("schedule", ScheduleSpec(duration_hours=hours, bucket_hours=bucket_hours))
    return ScenarioSpec(
        name=fields.pop("name", "equivalence"),
        traffic=TraceSpec(model=model, params=params, expand_fraction=expand),
        config=config if links is None else queued(config),
        links=links,
        **fields,
    )


def fig7(**fields: Any) -> ScenarioSpec:
    """The paper-fig7 shape at test scale: 12 switches, two systems, 8 h."""
    shape = dict(switches=12, hosts=120, seed=2015, flows=3_000, hours=8.0, systems=("openflow", "lazyctrl-dynamic"))
    return build_spec(**{**shape, **fields})


# -- cells: one execution shape each ------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class Cell:
    """How a run delivers, splits, handles and watches its flows.

    ``delivery``: ``"columns"`` (a materialized trace), ``"stream"``, or
    ``"records"`` (a record list for each system's replay; one worker only).
    ``shard``: ``"system"`` (serial on one worker, else the per-system pool)
    or ``"time-window"``.
    """

    kernel: str = "scalar"
    delivery: str = "columns"
    shard: str = "system"
    workers: int = 1
    windows: int = 4
    timeline: bool = False
    events: bool = False
    perf: bool = False

    @property
    def reference(self) -> "Cell":
        """Serial, scalar and materialized; for time windows, the same plan on one
        worker: each window replays against cold state, so only one window is exact."""
        if self.shard == "time-window" and self.windows > 1:
            return Cell(shard="time-window", windows=self.windows, timeline=self.timeline)
        return Cell(timeline=self.timeline, events=self.events)

    def refusal(self, spec: ScenarioSpec) -> Optional[str]:
        """What the planner refuses this cell for (a word of its message), if anything."""
        if self.shard != "time-window":
            return None
        if spec.failures is not None:
            return "failure"
        if spec.churn_active:
            return "churn"
        return "events" if self.events and self.windows > 1 else None  # one window is one replay per system

    def execution(self) -> ExecutionSpec:
        windowed = self.shard == "time-window"
        return ExecutionSpec(
            kernel=self.kernel,
            stream=self.delivery == "stream",
            workers=self.workers,
            shard_strategy="time-window" if windowed else "system",
            shard_count=self.windows if windowed else 0,
        )


@dataclasses.dataclass
class Outcome:
    result: ScenarioResult
    events: Optional[List[str]]  #: the JSONL event lines but ``chunk_drained``

    @property
    def runs(self) -> Dict[str, Any]:
        """system -> its run, as the results file holds it."""
        return self.result.to_dict()["runs"]

    def assert_same(self, other: "Outcome") -> None:
        """The results files minus ``execution`` are equal (the one comparison
        ``repro diff`` and ``bench --check`` make), and so are the events."""
        drift = payload_drift(other.result.to_dict(), self.result.to_dict())
        if drift:
            pytest.fail(f"{drift[0]} ({len(drift)} drifted paths)")
        assert self.events == other.events


def outcome(spec: ScenarioSpec, cell: Cell = Cell()) -> Outcome:
    """``spec`` run in ``cell``, as the spec's own execution."""
    spec = dataclasses.replace(spec, execution=cell.execution())
    with tempfile.TemporaryDirectory() as scratch:
        path = str(Path(scratch) / "events.jsonl") if cell.events else None
        obs = TraceOptions(timeline=cell.timeline, events_path=path)
        if cell.delivery == "records":
            result = ScenarioResult(spec=spec, runs=_record_born(spec, obs, cell.perf))
        else:
            result = ScenarioRunner().run(spec, obs=obs, collect_perf=cell.perf)
        events = path and [line for line in Path(path).read_text().splitlines() if '"chunk_drained"' not in line]
    return Outcome(result, events)


def _record_born(spec: ScenarioSpec, obs: TraceOptions, collect_perf: bool):
    """Each system replays the spec's flows handed over as a record list."""
    records = list(spec.build_trace(spec.build_network()).flows)
    bucket = spec.schedule.bucket_seconds if obs.timeline else None
    runs = {}
    with open(obs.events_path, "w") if obs.events_path else nullcontext() as sink:
        for system in spec.systems:
            listener = sink and JsonlEventListener(sink, system=system, scenario=spec.name)
            runs[system] = ScenarioRunner().replay_system(
                system,
                Trace(spec.name, spec.build_network(), records),
                schedule=spec.schedule,
                config=spec.config,
                failures=spec.failures,
                churn=spec.churn,
                perf=PerfRecorder() if collect_perf else None,
                tracer=shard_tracer(system, bucket, listener),
                kernel=spec.execution.kernel,
            )
    return runs


# -- end state: what a result does not carry ------------------------------------------------


def replay_plane(spec: ScenarioSpec, system: str, *, kernel: str = "scalar", end=None):
    """``system``'s serial replay of ``spec`` up to ``end``, and the plane it leaves."""
    return ScenarioRunner()._replay_system(
        system,
        spec.build_trace(spec.build_network()),
        schedule=spec.schedule,
        config=spec.config,
        failures=spec.failures,
        churn=spec.churn,
        end=end,
        kernel=kernel,
    )


def table_state(table):
    return [dataclasses.asdict(rule) for rule in table], dataclasses.asdict(table.stats)


def gfib_state(gfib):
    """Counters, memo, and every filter's bits in install order (so every
    answer and the storage, which derive from them).

    The memo is compared as a dict: it is cleared wholesale, so the order it
    filled in changes nothing (and the kernel fills it in another).
    """
    return {
        "queries": (gfib.query_count, gfib.query_cache_hits, gfib.peer_installs),
        "memo": dict(gfib._query_cache),
        "filters": [(peer, bytes(bloom._bits)) for peer, bloom in gfib._filters.items()],
        "exact": None if gfib._exact is None else {peer: set(macs) for peer, macs in gfib._exact.items()},
    }


def switch_state(switch):
    return {
        "table": table_state(switch.flow_table),
        "lfib": {entry.mac: entry for entry in switch.lfib},
        "counts": (switch.packets_processed, switch.packets_to_controller, switch.duplicate_deliveries),
        "false_positive_drops": getattr(switch, "false_positive_drops", 0),
        "failed": switch.failed,
        "gfib": None if switch.gfib is None else gfib_state(switch.gfib),
    }


def plane_state(plane, horizon: float) -> Dict[str, Any]:
    """Every switch, host, recorder and controller structure a replay leaves."""
    hosts = plane.network.hosts()
    macs = [host.mac for host in hosts]
    matrix, timeline, controller = plane.intensity_matrix(), plane.tracer.timeline, plane.controller
    state = {
        "placement": {host.host_id: host.switch_id for host in hosts},
        "switches": [switch_state(switch) for switch in plane.switches()],
        "counters": dataclasses.asdict(plane.counters),
        "latency": plane.latency_recorder.bucket_totals(),
        "intensity": None if matrix is None else list(matrix.pairs()),  # key order included
        "links": plane.link_usage(horizon),
        "requests": plane.total_controller_requests(),
        "workload": plane.workload_series().series(bucket_range=(0, 8)),
        "updates": plane.updates_per_hour(hours=2),
        "timeline": None if timeline is None else timeline.result(8),
    }
    if hasattr(controller, "clib"):
        clib = controller.clib
        state["clib"] = clib.version, len(clib), [(clib.locate(mac), clib._tenants.get(mac)) for mac in macs]
        state["tenants"] = {
            tenant: sorted(switches) for tenant, switches in controller.tenant_manager._switches_by_tenant.items()
        }
        state["groups"] = {
            group_id: (group.member_ids(), group.peer_messages_sent, group.state_reports_sent)
            for group_id, group in controller.groups.items()
        }
        state["dissemination"] = dataclasses.asdict(plane.disseminator.stats)
    return state


# -- the second entry point: a run of n is n runs of one ------------------------------------


def assert_n_ones(run, single, state, *, whole, ones, ask=None):
    """Twins: ``run`` takes ``n`` at once, ``single`` the ``n`` one by one.

    ``ask(run)`` is a probe: it must leave ``state(run)`` as it was, and its
    verdict ``None`` (undecidable) ends the check.  Otherwise ``whole(run,
    verdict)`` applies the run, ``ones(single)`` makes the single calls, and
    the twins must end in the same state.  Returns ``(verdict, whole's
    answer, the single calls' answers)`` for the caller's own checks.
    """
    verdict = None
    if ask is not None:
        before = state(run)
        verdict = ask(run)
        assert state(run) == before, "asking changed the state"
        if verdict is None:
            return None, None, ones(single)
    answers = ones(single)
    answer = whole(run, verdict)
    assert state(run) == state(single)
    return verdict, answer, answers
