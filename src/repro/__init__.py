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

Importing :mod:`repro` or any of its subpackages imports no submodule: each
name in a package's ``__all__`` loads its defining module on first access
(PEP 562), so ``python -m repro`` pays only for the modules a command and its
spec use (README "Start-up cost").
"""

import importlib
import sys
from typing import Callable, Dict, List, Mapping, Sequence, Tuple


def _lazy_exports(
    owner: str, exports: Mapping[str, Sequence[str]]
) -> Tuple[Callable[[str], object], Callable[[], List[str]]]:
    """PEP 562 ``__getattr__`` and ``__dir__`` for a module whose names load lazily.

    ``exports`` maps each defining module to the names ``owner`` (a package's
    re-exports, or a module's optional types) takes from it.  A name's module
    is imported the first time the name is read (``from repro.core import
    ScenarioRunner`` included) and the value is cached in ``owner``'s
    namespace, so importing a package costs only its ``__init__`` and a run
    imports only the modules it touches.
    """
    namespace = sys.modules[owner].__dict__
    homes: Dict[str, str] = {name: module for module, names in exports.items() for name in names}

    def __getattr__(name: str) -> object:
        module = homes.get(name)
        if module is None:
            raise AttributeError(f"module {owner!r} has no attribute {name!r}")
        value = namespace[name] = getattr(importlib.import_module(module), name)
        return value

    def __dir__() -> List[str]:
        return sorted(set(namespace) | set(homes))

    return __getattr__, __dir__


__getattr__, __dir__ = _lazy_exports(
    __name__,
    {
        "repro.churn.spec": ("ChurnSpec",),
        "repro.common.config": ("LazyCtrlConfig",),
        "repro.core.presets": ("get_preset", "list_presets"),
        "repro.core.registry": (
            "ControlPlane",
            "available_control_planes",
            "get_control_plane",
            "register_control_plane",
        ),
        "repro.core.runner": ("ScenarioResult", "ScenarioRunner"),
        "repro.core.scenario": (
            "FailureInjectionSpec",
            "ScenarioSpec",
            "ScheduleSpec",
            "TopologySpec",
            "TraceSpec",
        ),
        "repro.core.system": ("EdgePlane", "LazyCtrlSystem", "OpenFlowSystem"),
        "repro.obs.export": ("write_chrome_trace",),
        "repro.obs.timeline": ("MetricsTimeline", "TimelineResult", "render_timeline"),
        "repro.obs.tracer": ("EventTracer", "JsonlEventListener", "TraceOptions"),
        "repro.partitioning.sgi": ("Grouping", "SgiGrouper"),
        "repro.perf.recorder": ("PerfRecorder",),
        "repro.perf.report": ("PerfSnapshot",),
        "repro.topology.builder": ("TopologyProfile", "build_multi_tenant_datacenter"),
        "repro.topology.registry": ("available_topologies", "get_topology", "register_topology"),
        "repro.traffic.mix": ("TrafficComponentSpec", "TrafficMixSpec"),
        "repro.traffic.realistic": ("RealisticTraceGenerator", "RealisticTraceProfile"),
        "repro.traffic.registry": (
            "available_traffic_models",
            "get_traffic_model",
            "register_traffic_model",
        ),
    },
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
