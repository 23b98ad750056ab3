"""The pluggable control-plane registry.

The trace replayer only ever needed an implicit contract — "has
``handle_flow_arrival`` and a ``periodic`` callback" — which kept the two
built-in designs (OpenFlow and LazyCtrl) wired by hand in the experiment
runner.  This module makes the contract explicit so any control-plane design
can be driven by :class:`~repro.core.runner.ScenarioRunner` without touching
core code:

* :class:`ControlPlane` is the full protocol a design must implement:
  the replayer-facing half (``handle_flow_arrival`` / ``periodic``), a
  ``prepare`` hook for warm-up provisioning, and the metric accessors the
  runner collects results from.
* :func:`register_control_plane` registers a factory under a short name
  (``"openflow"``, ``"lazyctrl-dynamic"``, ...); third-party designs plug in
  with the same decorator from their own modules.
* :func:`get_control_plane` / :func:`available_control_planes` look the
  registry up; :class:`~repro.core.scenario.ScenarioSpec` references entries
  purely by name, which is what keeps scenario specs JSON-serializable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Protocol, Sequence, runtime_checkable

from repro.common.config import LazyCtrlConfig
from repro.common.registry import NamedRegistry
from repro.core.results import SystemCounters
from repro.simulation.metrics import CounterSeries, LatencyRecorder
from repro.topology.network import DataCenterNetwork
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


#: Builds a control plane for one network; called once per (system, trace) run.
ControlPlaneFactory = Callable[..., ControlPlane]


@dataclass(frozen=True, slots=True)
class ControlPlaneEntry:
    """One registered control-plane design."""

    name: str
    factory: ControlPlaneFactory
    label: str
    description: str = ""
    #: Declares that the design implements the :class:`ChurnAware` hooks and
    #: wants the scenario's workload dynamics applied to it.
    churn_aware: bool = False

    def build(
        self,
        network: DataCenterNetwork,
        *,
        config: LazyCtrlConfig | None = None,
        workload_bucket_seconds: float = 7200.0,
        latency_bucket_seconds: float = 7200.0,
    ) -> ControlPlane:
        """Instantiate the design for one network."""
        return self.factory(
            network,
            config=config,
            workload_bucket_seconds=workload_bucket_seconds,
            latency_bucket_seconds=latency_bucket_seconds,
        )


_REGISTRY: NamedRegistry[ControlPlaneEntry] = NamedRegistry(
    kind="control plane",
    name_label="control-plane name",
    known_label="registered designs",
)


def register_control_plane(
    name: str,
    *,
    label: str | None = None,
    description: str = "",
    replace: bool = False,
    churn_aware: bool = False,
) -> Callable[[ControlPlaneFactory], ControlPlaneFactory]:
    """Register a control-plane factory under ``name``.

    Use as a decorator on a factory callable taking ``(network, *, config,
    workload_bucket_seconds, latency_bucket_seconds)`` and returning a
    :class:`ControlPlane`::

        @register_control_plane("my-design", label="My design")
        def build_my_design(network, *, config=None, **buckets):
            return MyDesign(network, config=config, **buckets)

    Pass ``churn_aware=True`` when the design implements the
    :class:`ChurnAware` hooks and should experience scenario churn.
    """
    _REGISTRY.validate_name(name)

    def decorator(factory: ControlPlaneFactory) -> ControlPlaneFactory:
        _REGISTRY.add(
            name,
            ControlPlaneEntry(
                name=name,
                factory=factory,
                label=label or name,
                description=description,
                churn_aware=churn_aware,
            ),
            replace=replace,
        )
        return factory

    return decorator


def unregister_control_plane(name: str) -> None:
    """Remove a registered design (primarily for tests)."""
    _REGISTRY.remove(name)


def get_control_plane(name: str) -> ControlPlaneEntry:
    """Look a registered design up by name."""
    return _REGISTRY.get(name)


def available_control_planes() -> List[ControlPlaneEntry]:
    """All registered designs, sorted by name."""
    return _REGISTRY.available()


def _register_builtin_control_planes() -> None:
    """Register the paper's designs (idempotent; called at import time)."""
    if "openflow" in _REGISTRY:
        return
    from repro.core.system import LazyCtrlSystem, OpenFlowSystem

    @register_control_plane(
        "openflow",
        label="OpenFlow",
        description="Reactive centralized baseline: every table miss goes to the controller",
        churn_aware=True,
    )
    def _build_openflow(network, *, config=None, workload_bucket_seconds=7200.0, latency_bucket_seconds=7200.0):
        return OpenFlowSystem(
            network,
            config=config,
            workload_bucket_seconds=workload_bucket_seconds,
            latency_bucket_seconds=latency_bucket_seconds,
        )

    @register_control_plane(
        "lazyctrl-static",
        label="LazyCtrl (static)",
        description="LazyCtrl with the initial grouping frozen (no IncUpdate)",
        churn_aware=True,
    )
    def _build_lazyctrl_static(network, *, config=None, workload_bucket_seconds=7200.0, latency_bucket_seconds=7200.0):
        return LazyCtrlSystem(
            network,
            config=config,
            dynamic_grouping=False,
            workload_bucket_seconds=workload_bucket_seconds,
            latency_bucket_seconds=latency_bucket_seconds,
        )

    @register_control_plane(
        "lazyctrl-dynamic",
        label="LazyCtrl (dynamic)",
        description="LazyCtrl with incremental grouping updates enabled",
        churn_aware=True,
    )
    def _build_lazyctrl_dynamic(network, *, config=None, workload_bucket_seconds=7200.0, latency_bucket_seconds=7200.0):
        return LazyCtrlSystem(
            network,
            config=config,
            dynamic_grouping=True,
            workload_bucket_seconds=workload_bucket_seconds,
            latency_bucket_seconds=latency_bucket_seconds,
        )


_register_builtin_control_planes()
