"""Core systems and the Scenario API."""

from repro.core.latency_eval import ColdCacheExperiment, ColdCacheExperimentConfig
from repro.core.presets import default_grouping_config, get_preset, list_presets
from repro.core.registry import (
    ControlPlane,
    available_control_planes,
    get_control_plane,
    register_control_plane,
    unregister_control_plane,
)
from repro.core.results import (
    ColdCacheResult,
    FlowHandlingResult,
    FlowPathKind,
    LatencySeriesResult,
    RunResult,
    SystemCounters,
    WorkloadComparison,
    WorkloadSeriesResult,
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
