"""Reproduction of *LazyCtrl: Scalable Network Control for Cloud Data Centers* (ICDCS 2015).

The library implements the paper's hybrid control plane — switch grouping by
traffic affinity (SGI), Local Control Groups with Bloom-filter G-FIBs, and a
lazy central controller — together with every substrate the evaluation
needs: a multi-tenant data-center model, trace generators, a baseline
reactive OpenFlow controller, a latency model and a scenario runner.

The public surface is the Scenario API: describe an experiment declaratively
with a :class:`ScenarioSpec` (topology + traffic + control planes +
schedule), run it with :class:`ScenarioRunner`, and get back a serializable
:class:`ScenarioResult`.  Control-plane designs are pluggable: register your
own with :func:`register_control_plane` and reference it by name in a spec.

Quickstart
----------
>>> from repro import ScenarioRunner, get_preset
>>> spec = get_preset("paper-fig7").specs()[0]           # doctest: +SKIP
>>> result = ScenarioRunner().run(spec)                  # doctest: +SKIP
>>> result.reduction("openflow", "lazyctrl-dynamic")     # doctest: +SKIP

The same experiment from the command line::

    python -m repro run paper-fig7
    python -m repro list-scenarios

To replay one registered control plane over a trace you built yourself,
call :meth:`ScenarioRunner.replay_system`.
"""

from repro.churn.spec import ChurnSpec
from repro.common.config import LazyCtrlConfig
from repro.core.presets import get_preset, list_presets
from repro.core.registry import (
    ControlPlane,
    available_control_planes,
    get_control_plane,
    register_control_plane,
)
from repro.core.runner import ScenarioResult, ScenarioRunner
from repro.core.scenario import (
    FailureInjectionSpec,
    ScenarioSpec,
    ScheduleSpec,
    TopologySpec,
    TraceSpec,
)
from repro.core.system import EdgePlane, LazyCtrlSystem, OpenFlowSystem
from repro.obs import (
    EventTracer,
    JsonlEventListener,
    MetricsTimeline,
    TimelineResult,
    TraceOptions,
    render_timeline,
    write_chrome_trace,
)
from repro.partitioning.sgi import Grouping, SgiGrouper
from repro.perf import PerfRecorder, PerfSnapshot
from repro.topology.builder import TopologyProfile, build_multi_tenant_datacenter
from repro.topology.registry import (
    available_topologies,
    get_topology,
    register_topology,
)
from repro.traffic.mix import TrafficComponentSpec, TrafficMixSpec
from repro.traffic.realistic import RealisticTraceGenerator, RealisticTraceProfile
from repro.traffic.registry import (
    available_traffic_models,
    get_traffic_model,
    register_traffic_model,
)

__version__ = "1.4.0"

__all__ = [
    "ChurnSpec",
    "ControlPlane",
    "EdgePlane",
    "EventTracer",
    "FailureInjectionSpec",
    "Grouping",
    "JsonlEventListener",
    "LazyCtrlConfig",
    "LazyCtrlSystem",
    "MetricsTimeline",
    "OpenFlowSystem",
    "PerfRecorder",
    "PerfSnapshot",
    "RealisticTraceGenerator",
    "RealisticTraceProfile",
    "ScenarioResult",
    "ScenarioRunner",
    "ScenarioSpec",
    "ScheduleSpec",
    "SgiGrouper",
    "TimelineResult",
    "TopologyProfile",
    "TopologySpec",
    "TraceOptions",
    "TraceSpec",
    "TrafficComponentSpec",
    "TrafficMixSpec",
    "available_control_planes",
    "available_topologies",
    "available_traffic_models",
    "build_multi_tenant_datacenter",
    "get_control_plane",
    "get_preset",
    "get_topology",
    "get_traffic_model",
    "list_presets",
    "register_control_plane",
    "register_topology",
    "register_traffic_model",
    "render_timeline",
    "write_chrome_trace",
    "__version__",
]
