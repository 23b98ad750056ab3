"""Core systems and the Scenario API.

Every name below is resolved on first access (PEP 562), so importing this
package imports none of its modules: the cold-cache experiment of
:mod:`repro.core.latency_eval`, for one, loads only for code that names it.
"""

from repro import _lazy_exports

__all__ = [
    "ColdCacheExperiment",
    "ColdCacheExperimentConfig",
    "ColdCacheResult",
    "ControlPlane",
    "EdgePlane",
    "FailureInjectionSpec",
    "FlowHandlingResult",
    "FlowPathKind",
    "LatencySeriesResult",
    "LazyCtrlSystem",
    "OpenFlowSystem",
    "RunResult",
    "ScenarioResult",
    "ScenarioRunner",
    "ScenarioSpec",
    "ScheduleSpec",
    "SystemCounters",
    "TopologySpec",
    "TraceSpec",
    "WorkloadComparison",
    "WorkloadSeriesResult",
    "available_control_planes",
    "default_grouping_config",
    "get_control_plane",
    "get_preset",
    "list_presets",
    "register_control_plane",
    "unregister_control_plane",
]

__getattr__, __dir__ = _lazy_exports(
    __name__,
    {
        "repro.core.latency_eval": ("ColdCacheExperiment", "ColdCacheExperimentConfig"),
        "repro.core.presets": ("default_grouping_config", "get_preset", "list_presets"),
        "repro.core.registry": (
            "ControlPlane",
            "available_control_planes",
            "get_control_plane",
            "register_control_plane",
            "unregister_control_plane",
        ),
        "repro.core.results": (
            "ColdCacheResult",
            "FlowHandlingResult",
            "FlowPathKind",
            "LatencySeriesResult",
            "RunResult",
            "SystemCounters",
            "WorkloadComparison",
            "WorkloadSeriesResult",
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
    },
)
