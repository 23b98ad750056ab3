"""Control planes: the protocol a design implements and the registry naming it.

:class:`ControlPlane` is what :class:`~repro.core.runner.ScenarioRunner`
drives: the replayer-facing half (``handle_flow_arrival`` / ``periodic``), a
``prepare`` hook for warm-up provisioning, and the metric accessors results
are collected from.  :data:`CONTROL_PLANES` names the designs
(``"openflow"``, ``"lazyctrl-dynamic"``, ...); see :mod:`repro.common.registry`.
"""

from __future__ import annotations

from functools import partial
from typing import List, Protocol, Sequence, runtime_checkable

from repro.common.registry import NamedRegistry
from repro.core.results import SystemCounters
from repro.core.system import LazyCtrlSystem, OpenFlowSystem
from repro.simulation.metrics import CounterSeries, LatencyRecorder
from repro.traffic.flow import FlowRecord
from repro.traffic.trace import Trace


@runtime_checkable
class ControlPlane(Protocol):
    """The contract a control-plane design fulfils to run under the runner.

    The first two methods are the :class:`~repro.traffic.replay.FlowSink`
    plus periodic-callback contract the replayer has always used; the rest
    is what the runner needs to provision the design and collect a
    :class:`~repro.core.results.RunResult` afterwards.

    One optional extension is discovered by ``hasattr``: designs exposing
    ``inject_failures`` receive the spec's failure storms.  Workload churn
    is opted into *explicitly*: register the design with
    ``register_control_plane(..., churn_aware=True)`` and implement the
    :class:`ChurnAware` hooks; a design registered without the flag runs on
    a frozen topology.  Perf counters, event tracing and table/link
    accounting come with :class:`~repro.core.system.EdgePlane`, the base of
    the built-in designs; a design that implements only this protocol runs
    without them.
    """

    counters: SystemCounters
    latency_recorder: LatencyRecorder

    def handle_flow_arrival(self, flow: FlowRecord, now: float) -> object:
        """Process one replayed flow arriving at simulation time ``now``."""
        ...

    def periodic(self, now: float) -> None:
        """Periodic control-plane housekeeping (state reports, regrouping)."""
        ...

    def prepare(self, trace: Trace, *, warmup_end: float, now: float = 0.0) -> None:
        """Provision the design from the warm-up window before the replay."""
        ...

    def workload_series(self) -> CounterSeries:
        """Controller requests bucketed over simulation time."""
        ...

    def total_controller_requests(self) -> int:
        """Total number of requests the central controller served."""
        ...

    def updates_per_hour(self, *, hours: int) -> List[float]:
        """Grouping (or equivalent reconfiguration) updates per hour bucket."""
        ...


@runtime_checkable
class ChurnAware(Protocol):
    """The churn hooks a control plane implements to experience workload dynamics.

    The signatures mirror :class:`repro.churn.processes.ChurnTarget` (the
    scheduler-side view).  Implementing them is only half the contract:
    the design must also be registered with ``churn_aware=True`` so the
    runner applies churn by declaration rather than by ``hasattr``
    discovery.
    """

    def churn_migrate_host(self, host_id: int, new_switch_id: int, *, now: float) -> None:
        """Move a host (VM) to a new edge switch at simulation time ``now``."""
        ...

    def churn_tenant_arrival(self, name: str, placements: Sequence[int], *, now: float) -> int:
        """Provision a new tenant with hosts on ``placements``; returns its id."""
        ...

    def churn_tenant_departure(self, tenant_id: int, *, now: float) -> int:
        """Remove a tenant and all its hosts; returns the number removed."""
        ...


CONTROL_PLANES = NamedRegistry(kind="control plane", known_label="registered designs")

#: Register a factory ``(network, *, config, workload_bucket_seconds,
#: latency_bucket_seconds) -> ControlPlane`` under a name, as a decorator::
#:
#:     @register_control_plane("my-design", label="My design")
#:     def build_my_design(network, *, config=None, **buckets):
#:         return MyDesign(network, config=config, **buckets)
#:
#: Pass ``churn_aware=True`` when the design implements the :class:`ChurnAware`
#: hooks and should experience scenario churn.
register_control_plane = CONTROL_PLANES.register
unregister_control_plane = CONTROL_PLANES.unregister
get_control_plane = CONTROL_PLANES.get
available_control_planes = CONTROL_PLANES.available


register_control_plane(
    "openflow",
    label="OpenFlow",
    description="Reactive centralized baseline: every table miss goes to the controller",
    churn_aware=True,
)(OpenFlowSystem)
register_control_plane(
    "lazyctrl-static",
    label="LazyCtrl (static)",
    description="LazyCtrl with the initial grouping frozen (no IncUpdate)",
    churn_aware=True,
)(partial(LazyCtrlSystem, dynamic_grouping=False))
register_control_plane(
    "lazyctrl-dynamic",
    label="LazyCtrl (dynamic)",
    description="LazyCtrl with incremental grouping updates enabled",
    churn_aware=True,
)(partial(LazyCtrlSystem, dynamic_grouping=True))

