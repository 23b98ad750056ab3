"""Simulation measurement substrate: the latency model and the metric recorders."""

from repro.simulation.latency import LatencyBreakdown, LatencyModel
from repro.simulation.metrics import (
    CounterSeries,
    LatencyRecorder,
    WorkloadMeter,
)

__all__ = [
    "CounterSeries",
    "LatencyBreakdown",
    "LatencyModel",
    "LatencyRecorder",
    "WorkloadMeter",
]
