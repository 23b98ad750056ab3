"""Shard execution: the one replay body, its two drivers and the fork pool.

:func:`execute_shard` replays one shard over the trace and tracer its
driver hands it.  :func:`execute_plan` is the one driver loop: in process it
walks ``plan.shards`` (a serial run is that loop over the per-system plan),
and over a pool every worker runs the same body for one shard.  Both pick a
shard's trace with :func:`shard_trace` and its tracer with
:func:`shard_tracer`; only the in-process loop has a materialized base trace
to share, so a pool worker generates its own, and deterministic generation
makes the two identical.  That is what makes results independent of the
worker count.

Cross-process transport goes through plain dicts (``spec.to_dict``
/ ``run.to_dict``) rather than pickled dataclasses, keeping Python 3.10
workers happy; dict round-trips preserve every float exactly, so the
transport is invisible in the results.

The runner is imported lazily inside :func:`execute_shard`: this module is
imported by :mod:`repro.core.runner` itself.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import asdict
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Sequence

from repro.common.errors import ReproError, ShardFailure
from repro.core.results import RunResult
from repro.core.scenario import ScenarioSpec
from repro.obs.tracer import NULL_TRACER, EventTracer, JsonlEventListener, TraceOptions
from repro.perf.recorder import PerfRecorder
from repro.replay.merge import ShardOutcome
from repro.replay.sharding import Shard, ShardPlan
from repro.traffic.stream import FlowStream
from repro.traffic.trace import Trace


def can_fork_workers() -> bool:
    """Whether this process may create worker processes.

    Pool workers are daemonic and may not have children, so a scenario
    whose spec asks for parallel shards degrades to in-process sequential
    execution when it is itself being run inside a ``run_many`` worker —
    same results, no nested pool.
    """
    import multiprocessing

    return not multiprocessing.current_process().daemon


def fork_pool_map(function: Callable[[Any], Any], payloads: Sequence[Any], workers: int) -> List[Any]:
    """``map(function, payloads)`` over at most ``workers`` pool processes.

    Fork-start processes where available, so control planes registered by
    the calling program remain visible to the workers.
    """
    import multiprocessing

    start_method = "fork" if "fork" in multiprocessing.get_all_start_methods() else None
    context = multiprocessing.get_context(start_method)
    with context.Pool(processes=min(workers, len(payloads))) as pool:
        return pool.map(function, payloads)


def _import_shard_modules(spec: ScenarioSpec) -> None:
    """Import, before a pool forks, the modules every shard of ``spec`` imports.

    The package imports lazily, so a module the parent never touched would
    otherwise be imported again by each worker in its first shard: the
    traffic model and topology shape the spec names, and the vectorized
    kernel with numpy and the realistic model's array emitter.  (The runner
    has already resolved the control planes.)  Forked workers inherit them.
    """
    spec.traffic.entry()
    spec.topology.entry()
    if spec.execution.kernel == "vectorized":
        import repro.kernel.columnar  # noqa: F401
        import repro.kernel.realistic  # noqa: F401


def shard_trace(spec: ScenarioSpec, base: Optional[Trace] = None) -> Trace | FlowStream:
    """The trace one shard replays, given the run's shared materialized ``base``.

    A stream is consumed by its replay, so every shard gets a fresh stream
    over a fresh network.  A materialized trace is generated once (``base``)
    and shared; churn mutates the topology during a replay, so under active
    churn each shard gets the flows rebound to its own pristine network.
    Without a base (a pool worker) the shard generates the trace itself.
    """
    if spec.execution.stream:
        return spec.build_stream(spec.build_network())
    if base is None:
        return spec.build_trace(spec.build_network())
    return base.bound_to(spec.build_network()) if spec.churn_active else base


def shard_tracer(
    system: str,
    timeline_bucket_seconds: Optional[float],
    listener: Optional[JsonlEventListener] = None,
):
    """An event tracer when a timeline or a JSONL listener wants events, else the null one."""
    if timeline_bucket_seconds is None and listener is None:
        return NULL_TRACER
    timeline = None
    if timeline_bucket_seconds is not None:
        from repro.obs.timeline import MetricsTimeline

        timeline = MetricsTimeline(timeline_bucket_seconds)
    tracer = EventTracer(system=system, timeline=timeline)
    if listener is not None:
        tracer.add_listener(listener)
    return tracer


def shard_failure(shard: Shard, error: Exception) -> ReproError:
    """``error`` restated with the shard it ended: index, system and ``[start, end)``.

    A :class:`~repro.common.errors.ReproError` keeps its class, anything else
    (a bug) becomes a :class:`~repro.common.errors.ShardFailure`; the caller
    chains the original to it.  The message alone names the shard, so it
    survives a pool worker's pickling.
    """
    where = f"shard {shard.index} ({shard.system}, [{shard.start}, {shard.end})) failed"
    if isinstance(error, ReproError):
        try:
            return type(error)(f"{where}: {error}")
        except TypeError:  # a subclass with a constructor of its own
            pass
    return ShardFailure(f"{where}: {type(error).__name__}: {error}")


def execute_shard(
    spec: ScenarioSpec,
    shard: Shard,
    trace: Trace | FlowStream,
    tracer,
    *,
    collect_perf: bool = False,
    started: Optional[float] = None,
) -> ShardOutcome:
    """Replay one shard over ``trace`` and package its outcome.

    Warms a fresh control plane from the scenario's warm-up window, replays
    exactly ``[shard.start, shard.end)``, and exports the raw mergeable
    forms of the workload and latency series alongside the finished
    ``RunResult``.  The shard's wall runs from ``started`` (when its driver
    began building the trace; default: now).
    """
    from repro.core.runner import ScenarioRunner

    started = perf_counter() if started is None else started
    try:
        run, plane = ScenarioRunner()._replay_system(
            shard.system,
            trace,
            schedule=spec.schedule,
            config=spec.config,
            failures=spec.failures,
            churn=spec.churn,
            perf=PerfRecorder() if collect_perf else None,
            tracer=tracer,
            start=shard.start,
            end=shard.end,
            kernel=spec.execution.kernel,
        )
    except Exception as error:
        raise shard_failure(shard, error) from error
    wall_seconds = perf_counter() - started
    bucket_count = spec.schedule.bucket_count()
    return ShardOutcome(
        shard=shard,
        run=run,
        wall_seconds=wall_seconds,
        workload_counts=[
            count for _, count in plane.workload_series().series(bucket_range=(0, bucket_count))
        ],
        latency_totals=plane.latency_recorder.bucket_totals(),
    )


def execute_plan(
    spec: ScenarioSpec,
    plan: ShardPlan,
    *,
    collect_perf: bool = False,
    obs: Optional[TraceOptions] = None,
    use_pool: bool = False,
) -> List[ShardOutcome]:
    """Execute every shard of ``plan``, in process or over a fork pool.

    In process, a materialized trace is generated once for all shards and
    the ``obs.events_path`` JSONL file is opened once for the run.  Shard
    outcomes come back in plan order either way; the merge sorts by shard
    index again regardless, so results never depend on completion order.
    A shard that raises is named in the error (:func:`shard_failure`); a
    missing numpy under ``kernel=vectorized`` is refused before any shard
    starts, as the run's configuration rather than one shard's failure.
    """
    if spec.execution.kernel == "vectorized":
        from repro.kernel import require_numpy

        require_numpy()
    timeline_bucket: Optional[float] = None
    if obs is not None and obs.timeline:
        timeline_bucket = obs.timeline_bucket_seconds or spec.schedule.bucket_seconds
    if use_pool:
        _import_shard_modules(spec)
        spec_dict = spec.to_dict()
        payloads = [
            {
                "spec": spec_dict,
                "shard": asdict(shard),
                "collect_perf": collect_perf,
                "timeline_bucket_seconds": timeline_bucket,
            }
            for shard in plan.shards
        ]
        raw = fork_pool_map(_execute_shard_payload, payloads, plan.workers)
        return [_outcome_from_dict(data) for data in raw]

    base = None if spec.execution.stream else spec.build_trace(spec.build_network())
    events_path = obs.events_path if obs is not None else None
    events_file = nullcontext() if events_path is None else open(events_path, "w", encoding="utf-8")
    outcomes = []
    with events_file as sink:
        for shard in plan.shards:
            started = perf_counter()
            listener = None
            if sink is not None:
                listener = JsonlEventListener(
                    sink, system=shard.system, scenario=spec.name, sample=obs.sample
                )
            outcomes.append(
                execute_shard(
                    spec,
                    shard,
                    shard_trace(spec, base),
                    shard_tracer(shard.system, timeline_bucket, listener),
                    collect_perf=collect_perf,
                    started=started,
                )
            )
    return outcomes


def _execute_shard_payload(payload: Dict[str, Any]) -> Dict[str, Any]:
    """Worker-side shard body (module-level for pickling)."""
    spec = ScenarioSpec.from_dict(payload["spec"])
    shard = Shard(**payload["shard"])
    started = perf_counter()
    outcome = execute_shard(
        spec,
        shard,
        shard_trace(spec),
        shard_tracer(shard.system, payload["timeline_bucket_seconds"]),
        collect_perf=payload["collect_perf"],
        started=started,
    )
    return {
        "shard": asdict(outcome.shard),
        "run": outcome.run.to_dict(),
        "wall_seconds": outcome.wall_seconds,
        "workload_counts": outcome.workload_counts,
        "latency_totals": outcome.latency_totals,
    }


def _outcome_from_dict(data: Dict[str, Any]) -> ShardOutcome:
    return ShardOutcome(
        shard=Shard(**data["shard"]),
        run=RunResult.from_dict(data["run"]),
        wall_seconds=data["wall_seconds"],
        workload_counts=data["workload_counts"],
        latency_totals=data["latency_totals"],
    )
