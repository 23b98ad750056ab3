"""Trace replayer.

The paper replays its day-long trace against the prototype with a custom
trace re-player on every emulated edge switch.  Our replayer plays the same
role for the simulated system: it walks the trace in time order, presents
every flow arrival to a *flow sink* (a control-plane design under test), and
invokes periodic callbacks (grouping checks, state reports) at a fixed
interval of simulation time.

The sink protocol is intentionally tiny so the replayer works for the
baseline OpenFlow design, for LazyCtrl, and for unit-test doubles alike.

A replay can additionally be handed a time-sorted list of control events
(workload churn: ``(time, action)`` pairs from
:class:`~repro.churn.scheduler.ChurnScheduler`).  They share the one
timeline with the ticks: an event at time T fires before the tick at T and
before the flows arriving at or after T.

The replayer drains its source chunk by chunk through the
:class:`~repro.traffic.stream.FlowStream` protocol — a materialized
:class:`~repro.traffic.trace.Trace` presents itself as one resident chunk,
a generated stream as a lazy sequence of O(chunk)-sized ones — so replay
memory is bounded by the chunk size, not the trace size.  Every chunk is a
:class:`~repro.traffic.chunk.FlowChunk` and every batch a view of one: the
flows before the next periodic tick or control event, whichever is first,
are drained in one slice.  A batch handler (the vectorized kernel) reads the
batch column-wise, churn or not; without one, :func:`replay_batch` hands a
sink the batch's rows — :meth:`FlowSink.flow_arrival`, as every
:class:`~repro.core.system.EdgePlane` offers, and no record is built — or, for
a sink that only speaks records, the chunk's records.  An optional
:class:`~repro.perf.recorder.PerfRecorder` times the stages and counts
drained chunks; the default :data:`~repro.perf.recorder.NULL_RECORDER` makes
instrumentation a per-batch no-op.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from math import inf
from typing import Callable, List, Optional, Protocol, Sequence, Tuple

from repro.obs.tracer import NULL_TRACER
from repro.perf.recorder import NULL_RECORDER
from repro.traffic.chunk import FlowChunk
from repro.traffic.flow import FlowRecord
from repro.traffic.stream import FlowStream, windowed_chunks


class FlowSink(Protocol):
    """Anything that can accept replayed flow arrivals.

    A sink may also offer the column form of the same step,
    ``flow_arrival(start_time, src_host_id, dst_host_id, packet_count,
    byte_count, duration)`` — the flow arriving at its start time, sending
    its bytes at a constant rate for its duration — and is then handed the
    rows of each batch instead of its records (:func:`replay_batch`).
    """

    def handle_flow_arrival(self, flow: FlowRecord, now: float) -> object:
        """Process one flow arriving at simulation time ``now``."""
        ...


def replay_batch(sink: FlowSink, batch: FlowChunk) -> None:
    """Present every flow of ``batch`` to ``sink``, in order, at its start time.

    Row by row off the six columns when the sink takes them, record by
    record otherwise.
    """
    flow_arrival = getattr(sink, "flow_arrival", None)
    if flow_arrival is None:
        handle = sink.handle_flow_arrival
        for flow in batch:
            handle(flow, flow.start_time)
        return
    for row in zip(*batch.columns()):
        flow_arrival(*row)


PeriodicCallback = Callable[[float], None]
#: One control event: its simulation time and the action it applies then.
ControlEvent = Tuple[float, Callable[[float], None]]


@dataclass(slots=True)
class ReplayProgress:
    """Summary of one replay run."""

    flows_replayed: int = 0
    periodic_invocations: int = 0
    chunks_drained: int = 0
    start_time: float = 0.0
    end_time: float = 0.0


class TraceReplayer:
    """Replays a flow source against a sink with periodic housekeeping callbacks.

    The source may be a materialized :class:`~repro.traffic.trace.Trace` or
    any :class:`~repro.traffic.stream.FlowStream`; both are drained through
    the same chunked path.
    """

    def __init__(
        self,
        trace: FlowStream,
        sink: FlowSink,
        *,
        periodic_interval: float = 60.0,
        periodic_callbacks: Optional[List[PeriodicCallback]] = None,
        events: Sequence[ControlEvent] = (),
        perf=NULL_RECORDER,
        tracer=NULL_TRACER,
        batch_handler: Optional[Callable[[FlowChunk], None]] = None,
    ) -> None:
        if periodic_interval <= 0:
            raise ValueError("periodic_interval must be positive")
        self._trace = trace
        self._sink = sink
        self._interval = periodic_interval
        self._callbacks: List[PeriodicCallback] = list(periodic_callbacks or [])
        self._events = events
        # The events' times, closed by a sentinel so the next one always exists.
        self._event_times = [time for time, _ in events] + [inf]
        self._perf = perf
        self._tracer = tracer
        # Optional whole-batch fast path (the vectorized kernel).
        self._batch_handler = batch_handler

    def replay(self, *, start: float = 0.0, end: Optional[float] = None) -> ReplayProgress:
        """Replay the source window ``[start, end)`` in time order.

        With ``end=None`` the window is clamped to the flows actually seen:
        every remaining flow is replayed (the last arrival inclusive) and no
        periodic tick fires past the last arrival.  For an empty source (or
        a ``start`` past the last arrival) the window collapses to the empty
        ``[start, start)``, so ``end_time`` never precedes ``start_time``.

        Periodic callbacks fire at every multiple of the configured interval
        that falls inside the window, interleaved correctly with flow
        arrivals (callbacks scheduled at time T fire before flows arriving at
        or after T).  Control events fire in list order at every time up to
        the window end, an event at T before the tick at T; events past the
        window end never fire.
        """
        progress = ReplayProgress(start_time=start, end_time=start)
        with self._perf.timeit("replay"):
            self._run(start, end, progress)
        return progress

    def _run(self, start: float, end: Optional[float], progress: ReplayProgress) -> None:
        perf = self._perf
        tracer = self._tracer
        batch_handler = self._batch_handler
        event_times = self._event_times
        next_tick = start + self._interval
        next_event = 0  # index of the next control event to fire
        last_arrival: Optional[float] = None

        for flows in windowed_chunks(self._trace, start=start, end=end):
            progress.chunks_drained += 1
            start_times = flows.start_times
            total = len(flows)
            index = 0
            while index < total:
                # All flows arriving strictly before the next tick and the next
                # event form one batch; both fire before flows at or after them.
                cut = min(next_tick, event_times[next_event])
                boundary = bisect_left(start_times, cut, index)
                if boundary > index:
                    with perf.timeit("flow_handling"):
                        if batch_handler is not None:
                            batch_handler(flows[index:boundary])
                        else:
                            replay_batch(self._sink, flows[index:boundary])
                    progress.flows_replayed += boundary - index
                    index = boundary
                if index < total:
                    next_tick, next_event = self._fire_until(
                        start_times[index], next_tick, next_event, progress
                    )
            if total:
                last_arrival = start_times[-1]
            if tracer.enabled:
                from repro.obs.events import ChunkDrainedEvent

                # Stamped with the chunk's last arrival: the simulation time
                # at which the chunk was fully drained.
                tracer.emit(
                    ChunkDrainedEvent(
                        time=last_arrival if last_arrival is not None else start,
                        index=progress.chunks_drained - 1,
                        flows=total,
                    )
                )

        if end is not None:
            window_end = end
        elif last_arrival is not None:
            window_end = max(start, last_arrival)
        else:
            window_end = start
        self._fire_until(window_end, next_tick, next_event, progress)
        progress.end_time = window_end

    def _fire_until(
        self, until: float, next_tick: float, next_event: int, progress: ReplayProgress
    ) -> Tuple[float, int]:
        """Fire every event and tick at or before ``until``, in time order.

        An event at time T fires before the tick at T.  Returns the next tick
        time and the index of the next event to fire.
        """
        while True:
            due = bisect_right(self._event_times, min(until, next_tick), next_event)
            if due > next_event:
                # Timed as "engine", the stage profiles and the ledger's
                # churn.engine_s read.
                with self._perf.timeit("engine"):
                    for time, action in self._events[next_event:due]:
                        action(time)
                next_event = due
            if next_tick > until:
                return next_tick, next_event
            self._fire_periodic(next_tick, progress)
            next_tick += self._interval

    def _fire_periodic(self, now: float, progress: ReplayProgress) -> None:
        with self._perf.timeit("periodic"):
            for callback in self._callbacks:
                callback(now)
        progress.periodic_invocations += 1
        if self._tracer.enabled:
            from repro.obs.events import ReplayTickEvent

            self._tracer.emit(
                ReplayTickEvent(time=now, index=progress.periodic_invocations - 1)
            )
