"""Result records produced by the control-plane systems and experiments."""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Dict, List, Optional

from repro import _lazy_exports
from repro.common.serialize import dataclass_from_dict, dataclass_to_dict

if TYPE_CHECKING:
    from repro.bandwidth.usage import LinkUsageResult
    from repro.churn.results import ChurnRunResult
    from repro.obs.timeline import TimelineResult
    from repro.perf.report import PerfSnapshot

# The optional sections of a RunResult name their types lazily: a run
# without churn, perf, a timeline or link capacities never imports them.
__getattr__, __dir__ = _lazy_exports(
    __name__,
    {
        "repro.bandwidth.usage": ("LinkUsageResult",),
        "repro.churn.results": ("ChurnRunResult",),
        "repro.obs.timeline": ("TimelineResult",),
        "repro.perf.report": ("PerfSnapshot",),
    },
)


class FlowPathKind(enum.Enum):
    """Which mechanism carried a flow's first packet."""

    LOCAL = "local"
    FLOW_TABLE = "flow_table"
    INTRA_GROUP = "intra_group"
    INTER_GROUP = "inter_group"
    CONTROLLER_REACTIVE = "controller_reactive"
    DROPPED = "dropped"


@dataclass(frozen=True, slots=True)
class FlowHandlingResult:
    """How one replayed flow was handled by the system under test."""

    flow_id: int
    path: FlowPathKind
    src_switch_id: int
    dst_switch_id: int
    controller_involved: bool
    first_packet_latency_ms: float
    steady_packet_latency_ms: float
    duplicate_deliveries: int = 0
    false_positive_drop: bool = False


@dataclass(slots=True)
class SystemCounters:
    """Aggregate counters of one system over one replay."""

    flows_handled: int = 0
    local_flows: int = 0
    intra_group_flows: int = 0
    inter_group_flows: int = 0
    controller_requests: int = 0
    duplicate_deliveries: int = 0
    false_positive_drops: int = 0
    # Replayed flows whose endpoints no longer exist because their tenant
    # departed mid-run (workload churn); they are skipped, not handled.
    departed_flows: int = 0
    # Flows that arrived while either traversed uplink was offered at least
    # its capacity (bandwidth subsystem); always 0 without capacities.
    congested_flows: int = 0


@dataclass(frozen=True, slots=True)
class WorkloadSeriesResult:
    """A per-bucket controller-workload series in thousands of requests/second."""

    label: str
    bucket_hours: float
    krps: List[float]

    def mean_krps(self) -> float:
        """Mean Krps over all buckets."""
        return sum(self.krps) / len(self.krps) if self.krps else 0.0

    def peak_krps(self) -> float:
        """Peak bucket Krps."""
        return max(self.krps, default=0.0)


@dataclass(frozen=True, slots=True)
class WorkloadComparison:
    """Headline comparison between the baseline and a LazyCtrl variant."""

    baseline: WorkloadSeriesResult
    lazyctrl: WorkloadSeriesResult

    def reduction_fraction(self) -> float:
        """Overall workload reduction (1 - lazy/baseline), in [0, 1]."""
        baseline_total = sum(self.baseline.krps)
        lazy_total = sum(self.lazyctrl.krps)
        if baseline_total <= 0:
            return 0.0
        return max(0.0, 1.0 - lazy_total / baseline_total)


@dataclass(frozen=True, slots=True)
class LatencySeriesResult:
    """Per-bucket mean forwarding latency in milliseconds."""

    label: str
    bucket_hours: float
    mean_latency_ms: List[float]
    overall_mean_ms: float


@dataclass(frozen=True, slots=True)
class TableUsageResult:
    """Flow-table pressure accounting aggregated over a system's switches.

    ``capacity`` and ``policy`` describe the per-switch tables;
    ``peak_occupancy`` is the highest rule count any single switch reached
    (directly comparable against ``capacity``); the remaining fields sum the
    per-switch :class:`~repro.datastructures.flow_table.FlowTableStats` plus
    the controller's ``flow_removed`` tally, exposing the whole
    eviction → ``flow_removed`` → ``packet_in`` re-install loop.
    """

    capacity: int
    policy: str
    installs: int
    overflows: int
    evictions: int
    idle_timeouts: int
    hard_timeouts: int
    reinstalls: int
    flow_removed_messages: int
    peak_occupancy: int
    final_occupancy: int


@dataclass(frozen=True, slots=True)
class RunResult:
    """Everything measured for one (control plane, trace) combination."""

    label: str
    workload: WorkloadSeriesResult
    latency: LatencySeriesResult
    updates_per_hour: List[float]
    counters: SystemCounters
    total_controller_requests: int
    failover_events: int = 0
    churn: Optional[ChurnRunResult] = None
    # Present only when the run was instrumented (repro profile / bench);
    # an uninstrumented run serializes exactly as before.
    perf: Optional[PerfSnapshot] = None
    # Flow-table pressure accounting; None for systems predating the field
    # (old serialized results load with tables omitted).
    tables: Optional[TableUsageResult] = None
    # Per-bucket event timeline; present only when the run was traced
    # (``--events-out`` / ``repro timeline`` / bench), None otherwise.
    timeline: Optional[TimelineResult] = None
    # Per-uplink utilization matrix; present only when the scenario assigned
    # link capacities (``ScenarioSpec.links``).
    links: Optional[LinkUsageResult] = None

    def to_dict(self) -> Dict[str, Any]:
        """A JSON-ready representation of this run."""
        return dataclass_to_dict(self)

    @classmethod
    def from_dict(cls, data: Dict[str, Any], *, path: Optional[str] = None) -> "RunResult":
        """Rebuild a run from :meth:`to_dict` output; ``path`` names it in errors."""
        return dataclass_from_dict(cls, data, path=path)


@dataclass(frozen=True, slots=True)
class ColdCacheResult:
    """The cold-cache experiment of §V-E."""

    lazyctrl_intra_group_ms: float
    lazyctrl_inter_group_ms: float
    openflow_ms: float

    def intra_group_speedup(self) -> float:
        """How many times faster LazyCtrl intra-group setup is vs. the baseline."""
        if self.lazyctrl_intra_group_ms <= 0:
            return float("inf")
        return self.openflow_ms / self.lazyctrl_intra_group_ms
