"""Turns a churn spec into the replay's sorted event list and accounts for it.

:class:`ChurnScheduler` is the glue between a :class:`~repro.churn.spec.ChurnSpec`
and one replay: it builds the enabled processes, pre-draws their event
streams and hands the :class:`~repro.traffic.replay.TraceReplayer` one
time-sorted list of ``(time, action)`` pairs.  The replayer cuts its batches
at those times and fires each action through the system under test's churn
hooks.  Applied events are counted per result bucket so
:class:`ScenarioResult` surfaces how much dynamics each bucket experienced
(the churn analogue of the Fig. 8 update-frequency series).
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter
from typing import Callable, List, Tuple

from repro.churn.processes import ChurnKind, ChurnProcess, ChurnTarget, build_processes
from repro.churn.results import ChurnRunResult
from repro.churn.spec import ChurnSpec
from repro.obs.tracer import NULL_TRACER
from repro.simulation.metrics import CounterSeries


@dataclass(slots=True)
class ChurnStats:
    """Aggregate counters of churn applied during one replay."""

    migrations: int = 0
    drift_events: int = 0
    drift_host_moves: int = 0
    tenant_arrivals: int = 0
    tenant_departures: int = 0
    hosts_added: int = 0
    hosts_removed: int = 0
    skipped_events: int = 0


class ChurnScheduler:
    """Pre-draws a spec's churn events as one sorted list firing into a target."""

    def __init__(
        self,
        spec: ChurnSpec,
        target: ChurnTarget,
        *,
        replay_end: float,
        bucket_seconds: float,
        tracer=NULL_TRACER,
    ) -> None:
        self.spec = spec
        self.target = target
        self.tracer = tracer
        self.stats = ChurnStats()
        self.events_series = CounterSeries(bucket_seconds)
        start, end = spec.window_seconds(replay_end)
        events = [
            (time, self._action(process, kind))
            for process in build_processes(spec)
            for time, kind in process.schedule(start, end)
        ]
        # Stable: simultaneous events keep build_processes order, then each
        # process's own stream order.
        events.sort(key=itemgetter(0))
        #: The replay's churn, time-sorted, for ``TraceReplayer(events=...)``.
        self.events: List[Tuple[float, Callable[[float], None]]] = events

    def _action(self, process: ChurnProcess, kind: ChurnKind):
        def fire(now: float) -> None:
            self._account(kind, process.fire(kind, self.target, now), now)

        return fire

    def _account(self, kind: ChurnKind, applied: int, now: float) -> None:
        if self.tracer.enabled:
            from repro.obs.events import ChurnAppliedEvent

            self.tracer.emit(ChurnAppliedEvent(time=now, kind=kind.value, applied=applied))
        if applied <= 0:
            self.stats.skipped_events += 1
            return
        if kind == ChurnKind.HOST_MIGRATION:
            self.stats.migrations += 1
        elif kind == ChurnKind.TRAFFIC_DRIFT:
            self.stats.drift_events += 1
            self.stats.drift_host_moves += applied
        elif kind == ChurnKind.TENANT_ARRIVAL:
            self.stats.tenant_arrivals += 1
            self.stats.hosts_added += applied
        elif kind == ChurnKind.TENANT_DEPARTURE:
            self.stats.tenant_departures += 1
            self.stats.hosts_removed += applied
        self.events_series.record(now)

    def result(self, *, bucket_count: int, churn_attributed_regroupings: int = 0) -> ChurnRunResult:
        """The serializable churn summary for one run."""
        per_bucket = [
            count for _, count in self.events_series.series(bucket_range=(0, bucket_count))
        ]
        return ChurnRunResult(
            migrations=self.stats.migrations,
            drift_events=self.stats.drift_events,
            drift_host_moves=self.stats.drift_host_moves,
            tenant_arrivals=self.stats.tenant_arrivals,
            tenant_departures=self.stats.tenant_departures,
            hosts_added=self.stats.hosts_added,
            hosts_removed=self.stats.hosts_removed,
            skipped_events=self.stats.skipped_events,
            churn_attributed_regroupings=churn_attributed_regroupings,
            per_bucket_events=per_bucket,
        )
