"""Simulation measurement substrate: the latency model and the metric recorders."""

from repro import _lazy_exports

__all__ = [
    "CounterSeries",
    "LatencyBreakdown",
    "LatencyModel",
    "LatencyRecorder",
    "WorkloadMeter",
]

__getattr__, __dir__ = _lazy_exports(
    __name__,
    {
        "repro.simulation.latency": ("LatencyBreakdown", "LatencyModel"),
        "repro.simulation.metrics": ("CounterSeries", "LatencyRecorder", "WorkloadMeter"),
    },
)
