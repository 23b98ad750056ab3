"""Trace replayer.

The paper replays its day-long trace against the prototype with a custom
trace re-player on every emulated edge switch.  Our replayer plays the same
role for the simulated system: it walks the trace in time order, presents
every flow arrival to a *flow sink* (a control-plane design under test), and
invokes periodic callbacks (grouping checks, state reports) at a fixed
interval of simulation time.

The sink protocol is intentionally tiny so the replayer works for the
baseline OpenFlow design, for LazyCtrl, and for unit-test doubles alike.

A replay can additionally be coupled to a
:class:`~repro.simulation.engine.SimulationEngine`: the replayer then
advances the engine clock in lockstep with the trace, so events queued on
the engine (workload churn, failure storms) fire in exact time order,
interleaved with flow arrivals and periodic ticks.

The replayer drains its source chunk by chunk through the
:class:`~repro.traffic.stream.FlowStream` protocol — a materialized
:class:`~repro.traffic.trace.Trace` presents itself as one resident chunk,
a generated stream as a lazy sequence of O(chunk)-sized ones — so replay
memory is bounded by the chunk size, not the trace size.  Every chunk is a
:class:`~repro.traffic.chunk.FlowChunk` and every batch a view of one: the
flows between two periodic ticks are drained in one slice, and the engine
lockstep cuts that slice where an engine event is actually pending instead of
asking per flow.  A batch handler (the vectorized kernel) reads the batch
column-wise; without one, :func:`replay_batch` hands a sink the batch's rows —
:meth:`FlowSink.flow_arrival`, as every
:class:`~repro.core.system.EdgePlane` offers, and no record is built — or, for
a sink that only speaks records, the chunk's records.  An optional
:class:`~repro.perf.recorder.PerfRecorder` times the stages and counts
drained chunks; the default :data:`~repro.perf.recorder.NULL_RECORDER` makes
instrumentation a per-batch no-op.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, List, Optional, Protocol

from repro.obs.events import ChunkDrainedEvent, ReplayTickEvent
from repro.obs.tracer import NULL_TRACER
from repro.perf.recorder import NULL_RECORDER
from repro.traffic.chunk import FlowChunk
from repro.traffic.flow import FlowRecord
from repro.traffic.stream import FlowStream, windowed_chunks

if TYPE_CHECKING:  # pragma: no cover - import for type checkers only
    from repro.simulation.engine import SimulationEngine


class FlowSink(Protocol):
    """Anything that can accept replayed flow arrivals.

    A sink may also offer the column form of the same step,
    ``flow_arrival(start_time, src_host_id, dst_host_id, packet_count,
    byte_count, duration[, rate_profile])`` — the flow arriving at its start
    time — and is then handed the rows of each batch instead of its records
    (:func:`replay_batch`).
    """

    def handle_flow_arrival(self, flow: FlowRecord, now: float) -> object:
        """Process one flow arriving at simulation time ``now``."""
        ...


def replay_batch(sink: FlowSink, batch: FlowChunk) -> None:
    """Present every flow of ``batch`` to ``sink``, in order, at its start time.

    Row by row off the columns when the sink takes them — a chunk holding
    records with rate profiles zips those in as the seventh column — and
    record by record otherwise.
    """
    flow_arrival = getattr(sink, "flow_arrival", None)
    if flow_arrival is None:
        handle = sink.handle_flow_arrival
        for flow in batch:
            handle(flow, flow.start_time)
        return
    columns = batch.columns()
    profiles = batch.rate_profiles
    if profiles is not None:
        columns = (*columns, profiles)
    for row in zip(*columns):
        flow_arrival(*row)


PeriodicCallback = Callable[[float], None]


@dataclass(slots=True)
class ReplayProgress:
    """Summary of one replay run."""

    flows_replayed: int = 0
    periodic_invocations: int = 0
    chunks_drained: int = 0
    start_time: float = 0.0
    end_time: float = 0.0

    @property
    def duration(self) -> float:
        """Simulated time covered by the replay."""
        return max(0.0, self.end_time - self.start_time)


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
        event_engine: "SimulationEngine | None" = None,
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
        self._engine = event_engine
        self._perf = perf
        self._tracer = tracer
        # Optional whole-batch fast path (the vectorized kernel).  Only used
        # without a coupled engine: the kernel is unverified under one, and
        # memoizes host placement that engine events (churn) change.
        self._batch_handler = batch_handler

    def add_periodic_callback(self, callback: PeriodicCallback) -> None:
        """Register an additional housekeeping callback."""
        self._callbacks.append(callback)

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
        or after T).
        """
        progress = ReplayProgress(start_time=start, end_time=start)
        with self._perf.timeit("replay"):
            self._run(start, end, progress)
        return progress

    def _run(self, start: float, end: Optional[float], progress: ReplayProgress) -> None:
        interval = self._interval
        perf = self._perf
        engine = self._engine
        tracer = self._tracer
        batch_handler = self._batch_handler if engine is None else None
        next_tick = start + interval
        last_arrival: Optional[float] = None

        for flows in windowed_chunks(self._trace, start=start, end=end):
            progress.chunks_drained += 1
            start_times = flows.start_times
            total = len(flows)
            index = 0
            while index < total:
                # All flows arriving strictly before the next tick form one
                # batch; the tick at time T fires before flows at or after T.
                boundary = bisect_left(start_times, next_tick, index)
                if boundary > index:
                    with perf.timeit("flow_handling"):
                        if batch_handler is not None:
                            batch_handler(flows[index:boundary])
                        elif engine is None:
                            replay_batch(self._sink, flows[index:boundary])
                        else:
                            self._drain_with_engine(flows, start_times, index, boundary)
                    progress.flows_replayed += boundary - index
                    index = boundary
                if index >= total:
                    break
                # The next flow arrives at or after next_tick: fire every tick
                # scheduled up to (and including) that arrival time first.
                arrival = start_times[index]
                while next_tick <= arrival:
                    self._fire_periodic(next_tick, progress)
                    next_tick += interval
            if total:
                last_arrival = start_times[-1]
            if tracer.enabled:
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
        while next_tick <= window_end:
            self._fire_periodic(next_tick, progress)
            next_tick += interval
        self._advance_engine(window_end)
        progress.end_time = window_end

    def _drain_with_engine(self, flows, start_times, index: int, boundary: int) -> None:
        """Replay ``flows[index:boundary]`` in lockstep with the coupled engine.

        An engine event at time T fires before the flows arriving at or after
        T, so the batch is cut at each pending event and every stretch between
        two of them is replayed as the plain batch it is; once the queue peeks
        empty that is the whole rest (the clock catches up at the next
        periodic tick or at window end).
        """
        engine = self._engine
        next_event = engine.queue.peek_time()
        while index < boundary:
            if next_event is not None and next_event <= start_times[index]:
                with self._perf.timeit("engine"):
                    engine.run_until(start_times[index])
                next_event = engine.queue.peek_time()
            cut = boundary
            if next_event is not None:
                cut = bisect_left(start_times, next_event, index, boundary)
            replay_batch(self._sink, flows[index:cut])
            index = cut

    def _fire_periodic(self, now: float, progress: ReplayProgress) -> None:
        self._advance_engine(now)
        with self._perf.timeit("periodic"):
            for callback in self._callbacks:
                callback(now)
        progress.periodic_invocations += 1
        if self._tracer.enabled:
            self._tracer.emit(
                ReplayTickEvent(time=now, index=progress.periodic_invocations - 1)
            )

    def _advance_engine(self, now: float) -> None:
        """Dispatch all coupled-engine events scheduled up to ``now``."""
        if self._engine is not None and now >= self._engine.now:
            with self._perf.timeit("engine"):
                self._engine.run_until(now)
