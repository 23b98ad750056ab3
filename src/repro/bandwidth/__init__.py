"""Link bandwidth, utilization accounting, and congestion.

Flows were latency-only events until this subsystem: the elephant-mice and
incast-hotspot workloads never actually stressed the links they are named
for.  This package gives them something to saturate.  Every flow sends its
``byte_count`` at the constant rate its ``duration`` implies:

* :class:`~repro.bandwidth.meter.LinkUtilizationMeter` — a per-window
  byte accumulator over edge-switch uplinks, fed during replay a run of
  flows at a time (``account_run``, on start / duration / byte columns) or a
  record at a time (``observe``, the run of one);
* :class:`~repro.bandwidth.usage.LinkUsageResult` — the serializable
  per-link utilization matrix attached to every run that has capacities;
* :class:`~repro.bandwidth.spec.LinkCapacitySpec` — the spec-level overlay
  (mirroring ``ScenarioSpec.tables``) that assigns capacities and enables
  the M/M/1-style queueing term in the latency model.

With no capacities configured (the default) nothing in this package runs
and every counter, latency sample, and timeline bucket stays bit-identical
to a build without it.
"""

from repro.bandwidth.meter import LinkUtilizationMeter, build_link_meter
from repro.bandwidth.spec import LinkCapacitySpec
from repro.bandwidth.usage import LinkUsageResult

__all__ = [
    "LinkCapacitySpec",
    "LinkUsageResult",
    "LinkUtilizationMeter",
    "build_link_meter",
]
