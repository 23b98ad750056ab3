"""The event bus: null/real tracers and the O(1)-memory JSONL listener.

Mirrors the perf recorder's design
(:class:`~repro.perf.recorder.NullRecorder`): a single shared
:data:`NULL_TRACER` is the default everywhere, its class attribute
``enabled`` is ``False``, and every publisher guards its emit sites with
``if tracer.enabled`` — so a run without observability pays one attribute
lookup per guarded site and allocates nothing, keeping untraced replays
bit-identical to pre-observability ones.  The event classes are imported
inside those guards, so an untraced run never loads :mod:`repro.obs.events`.

:class:`EventTracer` is per system under test: it feeds an optional
:class:`~repro.obs.timeline.MetricsTimeline` *before* any sampling (so
per-bucket sums always equal the scalar counters) and fans events out to
listeners.  :class:`JsonlEventListener` streams events to an open text sink
one line at a time — memory is O(1) in trace length — applying deterministic
stride sampling to the high-volume event types: with ``sample=s`` every
``round(1/s)``-th event of each type is written (always including the
first), so two runs of the same scenario emit the identical line set, with
no RNG involved.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Iterable, List, Optional, Protocol, TextIO

from repro.common.errors import ConfigurationError

if TYPE_CHECKING:
    from repro.obs.events import TraceEvent
    from repro.obs.timeline import MetricsTimeline


class EventListener(Protocol):
    """Anything that can receive published events."""

    def on_event(self, event: TraceEvent) -> None:
        """Receive one published event."""
        ...


@dataclass(frozen=True)
class TraceOptions:
    """What one run's observability should collect.

    ``events_path`` streams every system's events into one JSONL file
    (``sample`` thins the high-volume types); ``timeline`` aggregates the
    per-bucket :class:`~repro.obs.timeline.TimelineResult` carried on
    ``RunResult.timeline``.  ``timeline_bucket_seconds`` overrides the
    schedule's result-bucket width for the aggregation.
    """

    events_path: Optional[str] = None
    sample: float = 1.0
    timeline: bool = False
    timeline_bucket_seconds: Optional[float] = None

    def __post_init__(self) -> None:
        if self.timeline_bucket_seconds is not None and not self.timeline_bucket_seconds > 0:
            raise ConfigurationError(
                f"timeline bucket width must be positive, got {self.timeline_bucket_seconds}"
            )

    @property
    def active(self) -> bool:
        """Whether this options object asks for any collection at all."""
        return self.timeline or self.events_path is not None


class NullTracer:
    """The disabled tracer: every operation is a no-op.

    A single module-level instance (:data:`NULL_TRACER`) is shared by every
    publisher, so "tracing off" costs no allocations at all.
    """

    __slots__ = ()

    enabled = False
    has_listeners = False
    timeline: Optional[MetricsTimeline] = None

    def emit(self, event: TraceEvent) -> None:
        """Discard a published event."""

    def flow(self, now: float, latency_ms: float) -> None:
        """Discard a per-flow timeline observation."""

    def gauge(self, name: str, now: float, value: float) -> None:
        """Discard a sampled-gauge timeline observation."""

    def close(self) -> None:
        """Nothing to flush."""


#: The shared disabled tracer; publishers default to this instance.
NULL_TRACER = NullTracer()


class EventTracer:
    """The enabled bus for one system under test.

    Events reach the timeline first and unsampled — bucket sums must equal
    the run's scalar counters exactly, whatever ``--trace-sample`` says —
    then every listener in registration order.  Per-flow observations
    (``flow``/``gauge``) go to the timeline only; they are aggregates, not
    events, and would swamp a JSONL stream.
    """

    __slots__ = ("system", "timeline", "_listeners")

    enabled = True

    def __init__(
        self,
        *,
        system: str = "",
        timeline: Optional[MetricsTimeline] = None,
        listeners: Iterable[EventListener] = (),
    ) -> None:
        self.system = system
        self.timeline = timeline
        self._listeners: List[EventListener] = list(listeners)

    def add_listener(self, listener: EventListener) -> None:
        """Register an additional event listener."""
        self._listeners.append(listener)

    @property
    def has_listeners(self) -> bool:
        """Whether events go anywhere besides the timeline (whose folds are order-free)."""
        return bool(self._listeners)

    def emit(self, event: TraceEvent) -> None:
        """Publish one event to the timeline and every listener."""
        if self.timeline is not None:
            self.timeline.on_event(event)
        for listener in self._listeners:
            listener.on_event(event)

    def flow(self, now: float, latency_ms: float) -> None:
        """Feed one handled flow (first-packet latency) to the timeline."""
        if self.timeline is not None:
            self.timeline.record_flow(now, latency_ms)

    def gauge(self, name: str, now: float, value: float) -> None:
        """Feed one sampled gauge observation to the timeline."""
        if self.timeline is not None:
            self.timeline.record_gauge(name, now, value)

    def close(self) -> None:
        """Flush listeners that buffer (the JSONL listener flushes its sink)."""
        for listener in self._listeners:
            flush = getattr(listener, "flush", None)
            if flush is not None:
                flush()


def sample_stride(sample: float) -> int:
    """The deterministic stride for a sampling rate in ``(0, 1]``."""
    if not 0.0 < sample <= 1.0:
        raise ConfigurationError(f"trace sample rate must be in (0, 1], got {sample}")
    return max(1, round(1.0 / sample))


class JsonlEventListener:
    """Streams events to a text sink as JSONL, one line per event.

    The sink is any writable text file object and may be shared by several
    listeners (the runner opens one file for all systems of a run); each
    listener stamps its lines with its ``system`` (and optional
    ``scenario``) so the streams interleave without ambiguity.  Memory is
    O(event types), never O(events): the only state is the per-type ``seq``
    counters that drive the deterministic stride sampling.
    """

    __slots__ = ("system", "scenario", "_sink", "_stride", "_seq")

    def __init__(
        self,
        sink: TextIO,
        *,
        system: str = "",
        scenario: Optional[str] = None,
        sample: float = 1.0,
    ) -> None:
        self.system = system
        self.scenario = scenario
        self._sink = sink
        self._stride = sample_stride(sample)
        self._seq: Dict[str, int] = {}

    def on_event(self, event: TraceEvent) -> None:
        """Serialize one event to the sink, honouring the sampling stride."""
        from repro.obs.events import SAMPLED_EVENTS, event_to_dict

        name = type(event).event
        seq = self._seq.get(name, 0)
        self._seq[name] = seq + 1
        if name in SAMPLED_EVENTS and seq % self._stride:
            return
        record = event_to_dict(event, system=self.system, seq=seq, scenario=self.scenario)
        self._sink.write(json.dumps(record, separators=(",", ":")) + "\n")

    def flush(self) -> None:
        """Flush the underlying sink."""
        self._sink.flush()
