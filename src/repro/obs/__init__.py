"""Bounded-overhead observability: structured events, timelines, exporters.

The subsystem has three layers, all off by default:

* :mod:`repro.obs.events` — the typed structured-event vocabulary
  (:class:`TraceEvent` dataclasses) that dataplanes, controllers, the flow
  tables, the churn scheduler and the trace replayer publish;
* :mod:`repro.obs.tracer` — the event bus.  Every publisher holds the shared
  :data:`NULL_TRACER` until a run opts in, so an untraced replay is
  bit-identical to one built before this package existed.  An
  :class:`EventTracer` fans events out to listeners — the O(1)-memory
  :class:`JsonlEventListener` with deterministic sampling, and a
  :class:`~repro.obs.timeline.MetricsTimeline`;
* :mod:`repro.obs.timeline` / :mod:`repro.obs.export` — per-bucket
  time-series aggregation carried on ``RunResult.timeline`` (with an ASCII
  sparkline renderer) and the Perfetto-loadable Chrome trace-event exporter.
"""

from repro import _lazy_exports

__all__ = [
    "EVENT_TYPES",
    "SAMPLED_EVENTS",
    "ChunkDrainedEvent",
    "ChurnAppliedEvent",
    "EventTracer",
    "EvictionEvent",
    "FlowInstallEvent",
    "FlowRemovedEvent",
    "JsonlEventListener",
    "MetricsTimeline",
    "NULL_TRACER",
    "NullTracer",
    "OverflowEvent",
    "PacketInEvent",
    "RegroupFinishEvent",
    "RegroupStartEvent",
    "ReinstallEvent",
    "ReplayTickEvent",
    "TimelineResult",
    "TraceEvent",
    "TraceOptions",
    "chrome_trace",
    "event_to_dict",
    "read_events",
    "render_timeline",
    "sparkline",
    "validate_chrome_trace",
    "validate_event_dict",
    "write_chrome_trace",
]

__getattr__, __dir__ = _lazy_exports(
    __name__,
    {
        "repro.obs.events": (
            "EVENT_TYPES",
            "SAMPLED_EVENTS",
            "ChunkDrainedEvent",
            "ChurnAppliedEvent",
            "EvictionEvent",
            "FlowInstallEvent",
            "FlowRemovedEvent",
            "OverflowEvent",
            "PacketInEvent",
            "RegroupFinishEvent",
            "RegroupStartEvent",
            "ReinstallEvent",
            "ReplayTickEvent",
            "TraceEvent",
            "event_to_dict",
            "validate_event_dict",
        ),
        "repro.obs.export": (
            "chrome_trace",
            "read_events",
            "validate_chrome_trace",
            "write_chrome_trace",
        ),
        "repro.obs.timeline": (
            "MetricsTimeline",
            "TimelineResult",
            "render_timeline",
            "sparkline",
        ),
        "repro.obs.tracer": (
            "NULL_TRACER",
            "EventTracer",
            "JsonlEventListener",
            "NullTracer",
            "TraceOptions",
        ),
    },
)
