"""The scenario runner: one entry point for every experiment shape.

:class:`ScenarioRunner` materializes a :class:`~repro.core.scenario.ScenarioSpec`
(topology, trace), instantiates each selected control plane through the
registry, replays the trace, and collects a serializable
:class:`ScenarioResult`.  ``run_many`` fans independent scenarios out over a
process pool, which is how sweeps (scale, config, traffic mix) use every
core.

The lower-level :meth:`ScenarioRunner.replay_system` drives one registered
control plane over an already-built trace.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace
from pathlib import Path
from time import perf_counter
from typing import TYPE_CHECKING, Any, Dict, Iterable, List, Optional, Tuple

from repro.common.errors import ConfigurationError
from repro.common.config import LazyCtrlConfig
from repro.core.registry import ControlPlane, get_control_plane
from repro.core.results import (
    LatencySeriesResult,
    RunResult,
    WorkloadComparison,
    WorkloadSeriesResult,
)
from repro.core.scenario import FailureInjectionSpec, ScenarioSpec, ScheduleSpec
from repro.core.system import EdgePlane
from repro.obs.tracer import NULL_TRACER, TraceOptions
from repro.perf.recorder import NULL_RECORDER, PerfRecorder, peak_rss_bytes
from repro.replay.executor import can_fork_workers, execute_plan, fork_pool_map
from repro.replay.merge import merge_outcomes
from repro.replay.sharding import plan_shards
from repro.replay.spec import ExecutionSpec
from repro.tables.registry import get_table_policy
from repro.traffic.replay import TraceReplayer
from repro.traffic.stream import FlowStream
from repro.traffic.trace import Trace

if TYPE_CHECKING:
    from repro.churn.scheduler import ChurnScheduler
    from repro.churn.spec import ChurnSpec
    from repro.obs.timeline import MetricsTimeline, TimelineResult
    from repro.perf.report import PerfSnapshot


#: The ``execution`` keys that are measurements, not facts about the plan.
TIMED_KEYS = ("shard_walls_seconds", "critical_path_seconds", "total_shard_seconds", "perf")


@dataclass(frozen=True)
class ScenarioResult:
    """All runs of one scenario, keyed by control-plane registry name."""

    spec: ScenarioSpec
    runs: Dict[str, RunResult]
    #: How the shard plan ran: its ``strategy``, whether it was ``pooled``
    #: and its ``windows_per_system``; a run that is not the serial
    #: per-system plan in process adds its shard walls (``shard_walls_seconds``,
    #: ``critical_path_seconds`` and ``total_shard_seconds``).
    executed: Dict[str, Any] = field(default_factory=dict)

    @property
    def shards(self) -> Optional[Dict[str, Any]]:
        """Shard-execution telemetry (strategy, workers, per-shard walls,
        critical path); ``None`` for a serial run (the per-system plan in process)."""
        sharded = "critical_path_seconds" in self.executed
        return {"workers": self.spec.execution.workers, **self.executed} if sharded else None

    @property
    def execution(self) -> Dict[str, Any]:
        """Everything about how the run was executed: ``spec.execution``,
        :attr:`executed` and each run's perf snapshot, when one was collected."""
        perf = {name: run.perf.to_dict() for name, run in self.runs.items() if run.perf is not None}
        return {**self.spec.execution.to_dict(), **self.executed, **({"perf": perf} if perf else {})}

    # -- lookups -------------------------------------------------------------

    def result_for(self, system: str) -> RunResult:
        """The run for a control plane, accepted by registry name or label."""
        if system in self.runs:
            return self.runs[system]
        for run in self.runs.values():
            if run.label == system:
                return run
        known = ", ".join(f"{name} ({run.label})" for name, run in self.runs.items())
        raise KeyError(f"no run for {system!r}; available: {known}")

    def labels(self) -> List[str]:
        """Display labels of all runs, in spec order."""
        return [run.label for run in self.runs.values()]

    # -- comparisons ---------------------------------------------------------

    def workload_comparison(self, baseline: str, other: str) -> WorkloadComparison:
        """Controller-workload comparison between two runs."""
        return WorkloadComparison(
            baseline=self.result_for(baseline).workload,
            lazyctrl=self.result_for(other).workload,
        )

    def reduction(self, baseline: str, other: str) -> float:
        """Overall controller-workload reduction of ``other`` vs ``baseline``."""
        return self.workload_comparison(baseline, other).reduction_fraction()

    # -- serialization -------------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        """The results file: what was computed (``spec`` and ``runs``, which
        depend on the spec alone) and, apart, how (:attr:`execution`)."""
        spec = {key: value for key, value in self.spec.to_dict().items() if key != "execution"}
        runs = {name: run.to_dict() for name, run in self.runs.items()}
        for run in runs.values():
            del run["perf"]
        return {"spec": spec, "runs": runs, "execution": self.execution}

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "ScenarioResult":
        """Rebuild a result from :meth:`to_dict` output.

        A file written before the ``execution`` block keeps its
        ``ExecutionSpec`` in ``spec`` and its shard telemetry in a top-level
        ``shards``; it loads as it was written.
        """
        execution = dict(data.get("execution") or data.get("shards") or {})
        perf = execution.pop("perf", {})
        knobs = {key: execution.pop(key) for key in ExecutionSpec().to_dict() if key in execution}
        spec = ScenarioSpec.from_dict(data["spec"])
        if "execution" in data:
            spec = replace(spec, execution=ExecutionSpec.from_dict(knobs))
        runs = {
            name: RunResult.from_dict({"perf": perf.get(name), **run}, path=f"runs.{name}")
            for name, run in data["runs"].items()
        }
        return cls(spec=spec, runs=runs, executed=execution)

    def save(self, path: str | Path) -> Path:
        """Write this result to ``path`` as JSON and return the path."""
        target = Path(path)
        target.write_text(json.dumps(self.to_dict(), indent=2) + "\n", encoding="utf-8")
        return target

    @classmethod
    def load(cls, path: str | Path) -> "ScenarioResult":
        """Load a result previously written with :meth:`save`."""
        return cls.from_dict(json.loads(Path(path).read_text(encoding="utf-8")))


class _FailureInjector:
    """Periodic callback that fires the spec's failure storms on schedule."""

    def __init__(self, plane: ControlPlane, spec: FailureInjectionSpec) -> None:
        self._plane = plane
        self._spec = spec
        self._pending = sorted(hour * 3600.0 for hour in spec.at_hours)
        self.events = 0

    def __call__(self, now: float) -> None:
        while self._pending and now >= self._pending[0]:
            self._pending.pop(0)
            self._plane.inject_failures(count=self._spec.switches_per_event, now=now)
            self.events += 1


class ScenarioRunner:
    """Runs declarative scenarios against registered control planes."""

    def run(
        self,
        spec: ScenarioSpec,
        *,
        collect_perf: bool = False,
        obs: Optional[TraceOptions] = None,
    ) -> ScenarioResult:
        """Materialize ``spec`` and run every selected control plane on it.

        Every run plans ``spec.execution``'s shards, executes them and merges
        them (see :mod:`repro.replay`).  A serial run is the per-system plan
        executed in process: one whole-timeline shard per system, in spec
        order, sharing one materialized trace where semantics allow.  The
        per-system (``"system"``) strategy is bit-identical to it for any
        worker count; the ``"time-window"`` strategy is bit-identical across
        worker counts.

        With ``collect_perf=True`` every run is instrumented with a
        :class:`~repro.perf.recorder.PerfRecorder` and carries a
        :class:`~repro.perf.report.PerfSnapshot` on ``RunResult.perf``.

        With an active ``obs`` every run is traced: events stream to
        ``obs.events_path`` (one shared JSONL file, lines stamped with the
        system name — this requires the per-system shard strategy) and/or a
        per-bucket :class:`~repro.obs.timeline.TimelineResult` rides on
        ``RunResult.timeline``.  Without it every component keeps the shared
        :data:`~repro.obs.tracer.NULL_TRACER` and the replay is bit-identical
        to an untraced one.

        With ``spec.execution.stream`` set the trace is never materialized:
        every shard drains a freshly instantiated chunk stream over its own
        topology copy, bounding replay memory by the chunk size at the cost
        of regenerating the flows per shard (generation is deterministic,
        so all shards still see the identical workload).
        """
        # Resolve every name up front so a typo fails before minutes of
        # generation and replay: the control planes and the flow-table
        # policy with its params.
        entries = [get_control_plane(name) for name in spec.systems]
        table = spec.config.flow_table
        get_table_policy(table.policy).make_params(table.policy_params)
        plan = plan_shards(spec)
        stream_events = obs is not None and obs.events_path is not None
        if stream_events and not plan.is_serial_per_system:
            raise ConfigurationError(
                "events streaming needs one whole-timeline replay per system "
                "(shard-strategy=system); time-window shards would interleave "
                "per-shard lifecycles in the JSONL stream"
            )
        use_pool = plan.workers > 1 and len(plan.shards) > 1 and not stream_events and can_fork_workers()
        outcomes = execute_plan(spec, plan, collect_perf=collect_perf, obs=obs, use_pool=use_pool)
        runs: Dict[str, RunResult] = {}
        walls: Dict[str, List[float]] = {}
        for entry in entries:
            system_outcomes = sorted(
                (outcome for outcome in outcomes if outcome.shard.system == entry.name),
                key=lambda outcome: outcome.shard.index,
            )
            runs[entry.name] = merge_outcomes(system_outcomes, schedule=spec.schedule)
            walls[entry.name] = [outcome.wall_seconds for outcome in system_outcomes]
        executed = {"strategy": plan.strategy, "pooled": use_pool, "windows_per_system": plan.windows_per_system}
        if use_pool or not plan.is_serial_per_system:
            all_walls = [wall for system_walls in walls.values() for wall in system_walls]
            executed.update(
                shard_walls_seconds=walls,
                # What a perfectly parallel run would take: the slowest shard.
                critical_path_seconds=max(all_walls),
                total_shard_seconds=sum(all_walls),
            )
        return ScenarioResult(spec=spec, runs=runs, executed=executed)

    def run_many(
        self,
        specs: Iterable[ScenarioSpec],
        *,
        execution: Optional[ExecutionSpec] = None,
    ) -> List[ScenarioResult]:
        """Run independent scenarios, fanned out over a process pool.

        ``execution.workers`` sizes the fan-out across *scenarios* (each
        spec still runs under its own ``spec.execution``).  With one worker
        (or a single spec) the scenarios run serially in this process.
        """
        spec_list = list(specs)
        fan_out = execution.workers if execution is not None else 1
        if not spec_list:
            return []
        if fan_out <= 1 or len(spec_list) == 1 or not can_fork_workers():
            return [self.run(spec) for spec in spec_list]
        payloads = [spec.to_dict() for spec in spec_list]
        results = fork_pool_map(_run_spec_payload, payloads, fan_out)
        return [ScenarioResult.from_dict(result) for result in results]

    # -- single-system replay -------------------------------------------------

    def replay_system(
        self,
        system: str,
        trace: Trace | FlowStream,
        *,
        schedule: ScheduleSpec | None = None,
        config: LazyCtrlConfig | None = None,
        label: Optional[str] = None,
        failures: Optional[FailureInjectionSpec] = None,
        churn: Optional[ChurnSpec] = None,
        perf: Optional[PerfRecorder] = None,
        tracer=NULL_TRACER,
        start: Optional[float] = None,
        end: Optional[float] = None,
        kernel: str = "scalar",
    ) -> RunResult:
        """Drive one registered control plane over a trace or chunk stream.

        ``trace`` may be a materialized :class:`~repro.traffic.trace.Trace`
        or any :class:`~repro.traffic.stream.FlowStream`; both expose the
        windowed ``switch_intensity`` the control plane's warm-up needs and
        both are drained through the replayer's chunked path.

        ``start``/``end`` bound the replayed window (defaults: the whole
        schedule).  The sharded executor uses them to replay one
        bucket-aligned time window per call.

        ``perf`` instruments the replay: stage timings and counters are
        collected into the recorder and the resulting
        :class:`~repro.perf.report.PerfSnapshot` rides on the returned
        :class:`RunResult`.  Without it, every component keeps the shared
        null recorder and the replay is byte-for-byte the uninstrumented one.

        When ``churn`` is active and the control plane declares itself
        churn-aware (``register_control_plane(..., churn_aware=True)`` plus
        the :class:`~repro.core.registry.ChurnAware` hooks), the churn
        events are pre-drawn as one time-sorted list that the replayer cuts
        its batches on; a plane registered without the flag runs on a frozen
        topology whatever methods it has.  An inert churn spec (all rates
        zero) is ignored entirely, so it reproduces the churn-free replay
        bit for bit.

        ``kernel`` selects the per-shard flow-handling engine (see
        :class:`~repro.replay.spec.ExecutionSpec`): ``"vectorized"`` runs
        the columnar numpy kernel from :mod:`repro.kernel`, bit-identical
        to the scalar path by construction, churn included.  It silently
        degrades to scalar when the control plane is not an
        :class:`~repro.core.system.EdgePlane`.

        .. warning:: Active churn mutates ``trace.network`` in place during
           the replay.  To compare systems fairly, give each call its own
           trace bound to a pristine network (rebind the flows with
           ``trace.bound_to(fresh_network)``, which shares them instead of
           sorting and holding a second copy), which is what :meth:`run` does.
        """
        run, _ = self._replay_system(
            system,
            trace,
            schedule=schedule,
            config=config,
            label=label,
            failures=failures,
            churn=churn,
            perf=perf,
            tracer=tracer,
            start=start,
            end=end,
            kernel=kernel,
        )
        return run

    def _replay_system(
        self,
        system: str,
        trace: Trace | FlowStream,
        *,
        schedule: ScheduleSpec | None = None,
        config: LazyCtrlConfig | None = None,
        label: Optional[str] = None,
        failures: Optional[FailureInjectionSpec] = None,
        churn: Optional[ChurnSpec] = None,
        perf: Optional[PerfRecorder] = None,
        tracer=NULL_TRACER,
        start: Optional[float] = None,
        end: Optional[float] = None,
        kernel: str = "scalar",
    ) -> Tuple[RunResult, ControlPlane]:
        """:meth:`replay_system` body, also handing back the control plane.

        The plane is what the sharded executor needs: the raw mergeable
        forms of the workload and latency series only live on the plane's
        recorders, not on the finished :class:`RunResult`.
        """
        entry = get_control_plane(system)
        schedule = schedule or ScheduleSpec()
        plane = entry.build(
            trace.network,
            config=config,
            workload_bucket_seconds=schedule.bucket_seconds,
            latency_bucket_seconds=schedule.bucket_seconds,
        )
        # Perf counters, event tracing, table and link accounting are the
        # edge plane's surface; a design that implements only the
        # ControlPlane protocol runs without them.
        edge_plane = plane if isinstance(plane, EdgePlane) else None
        if edge_plane is not None:
            if perf is not None:
                edge_plane.set_perf_recorder(perf)
            if tracer.enabled:
                edge_plane.set_tracer(tracer)
        plane.prepare(trace, warmup_end=schedule.warmup_seconds)

        callbacks = [plane.periodic]
        injector: Optional[_FailureInjector] = None
        if failures is not None and hasattr(plane, "inject_failures"):
            injector = _FailureInjector(plane, failures)
            callbacks.append(injector)

        scheduler: Optional[ChurnScheduler] = None
        if churn is not None and churn.active and entry.churn_aware:
            from repro.churn.scheduler import ChurnScheduler

            scheduler = ChurnScheduler(
                churn,
                plane,
                replay_end=schedule.duration_seconds,
                bucket_seconds=schedule.bucket_seconds,
                tracer=tracer,
            )

        batch_handler = None
        if kernel == "vectorized":
            # build_batch_handler returns None for control planes it cannot
            # accelerate.
            from repro.kernel import build_batch_handler

            batch_handler = build_batch_handler(
                plane, perf=perf if perf is not None else NULL_RECORDER
            )

        replayer = TraceReplayer(
            trace,
            plane,
            periodic_interval=schedule.periodic_interval_seconds,
            periodic_callbacks=callbacks,
            events=scheduler.events if scheduler is not None else (),
            perf=perf if perf is not None else NULL_RECORDER,
            tracer=tracer,
            batch_handler=batch_handler,
        )
        started = perf_counter()
        progress = replayer.replay(
            start=start if start is not None else 0.0,
            end=end if end is not None else schedule.duration_seconds,
        )
        wall_seconds = perf_counter() - started
        tracer.close()

        perf_snapshot: Optional[PerfSnapshot] = None
        if perf is not None:
            if edge_plane is not None:
                edge_plane.fold_perf_counters()
            perf.count("replay.flows_replayed", progress.flows_replayed)
            perf.count("replay.periodic_invocations", progress.periodic_invocations)
            perf.count("replay.chunks_drained", progress.chunks_drained)
            perf.gauge("replay.peak_rss_bytes", peak_rss_bytes())
            perf_snapshot = perf.snapshot(
                wall_seconds=wall_seconds, flows_replayed=progress.flows_replayed
            )
        run = self._collect(
            entry.label if label is None else label,
            plane,
            edge_plane,
            schedule,
            injector,
            scheduler,
            perf_snapshot,
            tracer.timeline,
        )
        return run, plane

    # -- result collection -----------------------------------------------------

    @staticmethod
    def _collect(
        label: str,
        plane: ControlPlane,
        edge_plane: Optional[EdgePlane],
        schedule: ScheduleSpec,
        injector: Optional[_FailureInjector] = None,
        churn_scheduler: Optional[ChurnScheduler] = None,
        perf_snapshot: Optional[PerfSnapshot] = None,
        timeline: Optional[MetricsTimeline] = None,
    ) -> RunResult:
        # A partial final bucket is reported rather than dropped (its rate
        # is still averaged over a full bucket width).
        bucket_count = schedule.bucket_count()
        # A fractional duration (say 1.5 h) still covers two hour buckets of
        # grouping updates, so round the hour count up rather than truncating.
        hours = max(1, math.ceil(schedule.duration_hours))
        # Requests per bucket -> requests/second -> thousands of requests per
        # second (the paper's Krps axis).
        krps = [
            count / schedule.bucket_seconds / 1000.0
            for _, count in plane.workload_series().series(bucket_range=(0, bucket_count))
        ]
        latency_series = [
            plane.latency_recorder.bucket_mean(index) for index in range(bucket_count)
        ]
        churn_result = None
        if churn_scheduler is not None:
            churn_result = churn_scheduler.result(
                bucket_count=bucket_count,
                churn_attributed_regroupings=(
                    edge_plane.churn_attributed_regroupings() if edge_plane is not None else 0
                ),
            )
        timeline_result: Optional[TimelineResult] = None
        if timeline is not None:
            # The timeline may use its own bucket width; size the result to
            # cover the same duration the other series cover.
            timeline_result = timeline.result(schedule.bucket_count(timeline.bucket_seconds))
        return RunResult(
            label=label,
            workload=WorkloadSeriesResult(label=label, bucket_hours=schedule.bucket_hours, krps=krps),
            latency=LatencySeriesResult(
                label=label,
                bucket_hours=schedule.bucket_hours,
                mean_latency_ms=latency_series,
                overall_mean_ms=plane.latency_recorder.overall_mean(),
            ),
            updates_per_hour=plane.updates_per_hour(hours=hours),
            counters=plane.counters,
            total_controller_requests=plane.total_controller_requests(),
            failover_events=injector.events if injector is not None else 0,
            churn=churn_result,
            perf=perf_snapshot,
            tables=edge_plane.table_usage() if edge_plane is not None else None,
            timeline=timeline_result,
            links=(
                edge_plane.link_usage(schedule.duration_seconds) if edge_plane is not None else None
            ),
        )


def _run_spec_payload(payload: Dict[str, Any]) -> Dict[str, Any]:
    """Worker-side body of :meth:`ScenarioRunner.run_many` (module-level for pickling)."""
    result = ScenarioRunner().run(ScenarioSpec.from_dict(payload))
    return result.to_dict()
