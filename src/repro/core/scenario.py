"""Declarative scenario specifications.

A :class:`ScenarioSpec` fully describes one experiment without holding any
live objects: the topology to build, the trace to generate over it, which
registered control planes to drive, the replay schedule, the system
configuration, and (optionally) failure-injection and churn plans.  Specs are
frozen, comparable and JSON-round-trippable (``ScenarioSpec.from_dict(
spec.to_dict()) == spec``), so they can be stored next to results, shipped to
worker processes, and diffed between runs.

Workloads are referenced purely by registry name:

* :class:`TopologySpec` names a shape from
  :mod:`repro.topology.registry` (``"multi-tenant"``, ``"striped"``,
  ``"multi-pod"``, ...) plus a raw params dict;
* :class:`TraceSpec` names a traffic model from
  :mod:`repro.traffic.registry` (``"realistic"``, ``"elephant-mice"``,
  ``"mix"``, ...) plus a raw params dict, with the §V-D expansion riding on
  top.

Both resolve their registry entry lazily at build time, so specs for
third-party models can be constructed before the plugin module is imported.
Every setting has one home: flow tables in ``config.flow_table``, queueing
in ``config.latency``, uplink capacity in ``links``.  Legacy spec JSON still
loads through shims in :meth:`ScenarioSpec.from_dict`: pre-registry forms
(``topology`` as a bare profile dict, ``traffic`` with a ``kind``
discriminator), settings in an old second place, and retired settings at the
value of the constant that replaced them.
"""

from __future__ import annotations

import dataclasses
import importlib
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Any, Dict, Mapping, Optional, Tuple

from repro import _lazy_exports
from repro.common.config import LazyCtrlConfig
from repro.common.errors import ConfigurationError
from repro.common.registry import Entry
from repro.common.serialize import dataclass_from_dict, dataclass_to_dict, from_jsonable, to_jsonable
from repro.replay.spec import ExecutionSpec
from repro.topology.builder import TopologyProfile
from repro.topology.network import DataCenterNetwork
from repro.topology.registry import get_topology
from repro.traffic.registry import get_traffic_model
from repro.traffic.stream import FlowStream, GeneratedStream
from repro.traffic.trace import Trace

if TYPE_CHECKING:
    from repro.bandwidth.spec import LinkCapacitySpec
    from repro.churn.spec import ChurnSpec
    from repro.traffic.mix import TrafficMixSpec

# A spec's optional sections name their types lazily: loading or running a
# spec without churn or link capacities never imports those subsystems.
__getattr__, __dir__ = _lazy_exports(
    __name__,
    {
        "repro.bandwidth.spec": ("LinkCapacitySpec",),
        "repro.churn.spec": ("ChurnSpec",),
    },
)

# The first hour of traffic is the warm-up the initial grouping is computed
# from (IniGroup, §III-C); the replay window starts after it.
WARMUP_HOURS = 1.0
# The §V-D expansion spreads its extra flows over hours 8-24 of the day.
EXPAND_WINDOW_HOURS = (8.0, 24.0)


@dataclass(frozen=True, slots=True)
class ScheduleSpec:
    """When the replay starts, ends, and how results are bucketed."""

    duration_hours: float = 24.0
    bucket_hours: float = 2.0
    periodic_interval_seconds: float = 120.0

    def __post_init__(self) -> None:
        if self.duration_hours <= 0:
            raise ConfigurationError("duration_hours must be positive")
        if self.bucket_hours <= 0:
            raise ConfigurationError("bucket_hours must be positive")
        if self.periodic_interval_seconds <= 0:
            raise ConfigurationError("periodic_interval_seconds must be positive")

    @property
    def duration_seconds(self) -> float:
        """Replay window length in seconds."""
        return self.duration_hours * 3600.0

    @property
    def warmup_seconds(self) -> float:
        """Warm-up window length in seconds."""
        return WARMUP_HOURS * 3600.0

    @property
    def bucket_seconds(self) -> float:
        """Result bucket width in seconds."""
        return self.bucket_hours * 3600.0

    def bucket_count(self, bucket_seconds: Optional[float] = None) -> int:
        """How many buckets (default: result buckets) cover the replay window.

        A partial last bucket counts; a ratio within float error of a whole
        number is that number, so 39.6 h in 3.3 h buckets is 12, not 13.
        """
        ratio = self.duration_seconds / (bucket_seconds or self.bucket_seconds)
        whole = round(ratio)
        return max(1, whole if math.isclose(ratio, whole, rel_tol=1e-9) else math.ceil(ratio))


def _merge_registry_params(
    kind: str,
    name: str,
    supported: frozenset,
    params: Dict[str, Any],
    overrides: Dict[str, Any],
) -> Dict[str, Any]:
    """Merge ``overrides`` into ``params``, rejecting keys ``name`` can't take."""
    unsupported = sorted(set(overrides) - supported)
    if unsupported:
        keys = ", ".join(repr(key) for key in unsupported)
        raise ConfigurationError(
            f"{kind} {name!r} does not accept {keys}; "
            f"supported params: {', '.join(sorted(supported))}"
        )
    return {**params, **overrides}


@dataclass(frozen=True, slots=True)
class TopologySpec:
    """Which registered topology shape to build, and with which params."""

    shape: str = "multi-tenant"
    params: Dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.shape or not self.shape.strip():
            raise ConfigurationError("topology shape must be a non-empty string")
        object.__setattr__(self, "params", dict(to_jsonable(dict(self.params))))

    @classmethod
    def from_profile(cls, profile: TopologyProfile) -> "TopologySpec":
        """Wrap a classic multi-tenant profile into a registry-backed spec."""
        return cls(shape="multi-tenant", params=dataclass_to_dict(profile))

    # -- registry resolution -------------------------------------------------

    def entry(self) -> Entry:
        """The registry entry this spec references (raises on unknown shape)."""
        return get_topology(self.shape)

    def resolved_params(self) -> Any:
        """The params dict validated into the shape's params dataclass."""
        return self.entry().make_params(self.params)

    def build(self) -> DataCenterNetwork:
        """Build the data-center topology this spec describes."""
        return self.entry().build(params=self.params)

    # -- conveniences --------------------------------------------------------

    def dimensions(self) -> Tuple[Optional[int], Optional[int]]:
        """Best-effort ``(switch_count, host_count)`` for display/benchmarks."""
        params = self.resolved_params()
        return (
            getattr(params, "switch_count", None),
            getattr(params, "host_count", None),
        )

    def with_params(self, **overrides: Any) -> "TopologySpec":
        """A copy with ``overrides`` merged into ``params``.

        Raises :class:`~repro.common.errors.ConfigurationError` when the
        shape's params dataclass does not accept an override's key.
        """
        merged = _merge_registry_params(
            "topology shape", self.shape, self.entry().param_names(), self.params, overrides
        )
        return dataclasses.replace(self, params=merged)


@dataclass(frozen=True, slots=True)
class TraceSpec:
    """Which registered traffic model generates the trace, plus expansion.

    ``model`` names an entry of :mod:`repro.traffic.registry`; ``params`` is
    the raw (JSON-shaped) mapping validated into the model's params
    dataclass at build time.  A positive ``expand_fraction`` additionally
    applies the §V-D "extra flows among previously silent pairs" expansion
    to the generated trace.
    """

    model: str = "realistic"
    params: Dict[str, Any] = field(default_factory=dict)
    expand_fraction: float = 0.0
    expand_seed: int = 2015

    def __post_init__(self) -> None:
        if not self.model or not self.model.strip():
            raise ConfigurationError("traffic model must be a non-empty string")
        object.__setattr__(self, "params", dict(to_jsonable(dict(self.params))))
        if not 0.0 <= self.expand_fraction <= 5.0:
            raise ConfigurationError("expand_fraction must be in [0, 5]")

    # -- constructors for the common models ----------------------------------

    @classmethod
    def realistic(cls, **params: Any) -> "TraceSpec":
        """A realistic-model spec from sparse knobs."""
        return cls(model="realistic", params=params)

    @classmethod
    def mix(cls, mix_spec: TrafficMixSpec) -> "TraceSpec":
        """A composed-mix spec (see :class:`~repro.traffic.mix.TrafficMixSpec`)."""
        return cls(model="mix", params=dataclass_to_dict(mix_spec))

    # -- registry resolution -------------------------------------------------

    def entry(self) -> Entry:
        """The registry entry this spec references (raises on unknown model)."""
        return get_traffic_model(self.model)

    def resolved_params(self) -> Any:
        """The params dict validated into the model's params dataclass."""
        return self.entry().make_params(self.params)

    def with_params(self, **overrides: Any) -> "TraceSpec":
        """A copy with ``overrides`` merged into ``params``.

        Raises :class:`~repro.common.errors.ConfigurationError` when the
        model's params dataclass does not accept an override's key.
        """
        merged = _merge_registry_params(
            "traffic model", self.model, self.entry().param_names(), self.params, overrides
        )
        return dataclasses.replace(self, params=merged)

    @property
    def total_flows(self) -> Optional[int]:
        """The model's flow budget, when its params expose one."""
        return getattr(self.resolved_params(), "total_flows", None)

    def build(
        self, network: DataCenterNetwork, *, name: str = "scenario", kernel: str = "scalar"
    ) -> Trace:
        """Generate the trace this spec describes over ``network``: the stream, collected.

        The stream is :meth:`build_stream`'s under the same ``kernel``, so a
        resident trace is drawn exactly as a streamed one is.
        """
        stream = self.build_stream(network, name=name, kernel=kernel)
        return stream if isinstance(stream, Trace) else Trace.from_stream(stream)

    def build_stream(
        self, network: DataCenterNetwork, *, name: str = "scenario", kernel: str = "scalar"
    ) -> FlowStream:
        """Generate the trace as a lazy chunk stream over ``network``.

        Under ``kernel="vectorized"`` a model that can draw its chunks in
        numpy does (:meth:`GeneratedStream.drawn_as_arrays
        <repro.traffic.stream.GeneratedStream.drawn_as_arrays>`), byte for
        byte as its Python emitter would.  The §V-D expansion needs the base's full
        set of silent pairs, so a spec with ``expand_fraction > 0`` generates
        the base once here to find them, and holds the extra flows (one
        chunk) for as long as the stream lives; the base itself is still only
        ever resident a chunk at a time.
        """
        stream = self.entry().build(network, params=self.params, name=name)
        if kernel == "vectorized" and isinstance(stream, GeneratedStream):
            stream = stream.drawn_as_arrays()
        if self.expand_fraction > 0.0:
            from repro.traffic.expand import expand_trace

            start, end = EXPAND_WINDOW_HOURS
            stream = expand_trace(
                stream,
                extra_fraction=self.expand_fraction,
                window_start_hour=start,
                window_end_hour=end,
                seed=self.expand_seed,
            )
        return stream


@dataclass(frozen=True, slots=True)
class FailureInjectionSpec:
    """A failure-storm plan: when to fail switches, and how many at once.

    At each hour in ``at_hours`` the runner fails the designated switch of
    the ``switches_per_event`` busiest Local Control Groups and drives the
    detection wheel plus the recovery actions (§III-E).  Control planes
    without failover machinery simply ignore the plan.
    """

    at_hours: Tuple[float, ...] = (8.0,)
    switches_per_event: int = 1

    def __post_init__(self) -> None:
        if not self.at_hours:
            raise ConfigurationError("at_hours must list at least one injection time")
        if any(hour < 0 for hour in self.at_hours):
            raise ConfigurationError("injection hours must be non-negative")
        if self.switches_per_event < 1:
            raise ConfigurationError("switches_per_event must be at least 1")
        object.__setattr__(self, "at_hours", tuple(float(hour) for hour in self.at_hours))


def _modernize_topology(data: Any) -> Any:
    """Shim: a pre-registry bare profile dict becomes a multi-tenant spec."""
    if isinstance(data, Mapping) and "shape" not in data and "params" not in data:
        return {"shape": "multi-tenant", "params": dict(data)}
    return data


def _modernize_traffic(data: Any) -> Any:
    """Shim: a pre-registry ``kind``-discriminated trace dict becomes model+params."""
    if not isinstance(data, Mapping) or "model" in data or "kind" not in data:
        return data
    kind = data.get("kind", "realistic")
    modern: Dict[str, Any] = {
        "model": kind,
        "params": dict(data.get(kind) or {}),
    }
    for key in ("expand_fraction", "expand_window_hours", "expand_seed"):
        if key in data:
            modern[key] = data[key]
    return modern


#: Built-in topology shapes whose params took an ``uplink_mbps``.
_UPLINK_SHAPES = frozenset({"multi-tenant", "paper-real", "paper-synthetic", "striped", "multi-pod"})
#: Legacy ``links`` queueing key -> its ``config.latency`` field.
_LEGACY_QUEUEING = {"queueing_service_ms": "queueing_service_ms", "utilization_cap": "queueing_utilization_cap"}


#: Settings a spec no longer has: (path of the object that held it, key,
#: dotted name of the constant that replaced it).  The constant is ``None``
#: for the five that were never read, which load as absent at any value:
#: ``chunk_flows`` sized an adapter that no longer exists,
#: ``group_broadcast_ms`` priced per-packet ARP resolution the replay never
#: modelled, and the other three were validated but never read.  No
#: experiment varied the rest, so each is fixed at its constant.
_RETIRED = (
    (("execution",), "chunk_flows", None),
    (("config", "latency"), "group_broadcast_ms", None),
    (("config", "grouping"), "imbalance_tolerance", None),
    (("config", "regrouping"), "underload_threshold_rps", None),
    (("config",), "state_report_interval_seconds", None),
    (("schedule",), "warmup_hours", "repro.core.scenario.WARMUP_HOURS"),
    (("traffic",), "expand_window_hours", "repro.core.scenario.EXPAND_WINDOW_HOURS"),
    (("config", "grouping"), "coarsening_threshold", "repro.partitioning.mlkp.COARSENING_THRESHOLD"),
    (("config", "grouping"), "refinement_passes", "repro.partitioning.mlkp.REFINEMENT_PASSES"),
    (("config", "grouping"), "restarts", "repro.partitioning.mlkp.RESTARTS"),
    (("config", "regrouping"), "workload_growth_trigger", "repro.controlplane.grouping_manager.WORKLOAD_GROWTH_TRIGGER"),
    (("config", "regrouping"), "min_interval_seconds", "repro.controlplane.grouping_manager.MIN_INTERVAL_SECONDS"),
    (("config", "regrouping"), "max_interval_seconds", "repro.controlplane.grouping_manager.MAX_INTERVAL_SECONDS"),
    (("config", "regrouping"), "overload_threshold_rps", "repro.controlplane.grouping_manager.OVERLOAD_THRESHOLD_RPS"),
    (("config", "regrouping"), "churn_event_trigger", "repro.controlplane.grouping_manager.CHURN_EVENT_TRIGGER"),
    (("config", "latency"), "datapath_lookup_ms", "repro.simulation.latency.DATAPATH_LOOKUP_MS"),
    (("config", "latency"), "encapsulation_ms", "repro.simulation.latency.ENCAPSULATION_MS"),
    (("config", "latency"), "underlay_hop_ms", "repro.simulation.latency.UNDERLAY_HOP_MS"),
    (("config", "latency"), "host_link_ms", "repro.simulation.latency.HOST_LINK_MS"),
    (("config", "latency"), "controller_rtt_ms", "repro.simulation.latency.CONTROLLER_RTT_MS"),
    (("config", "latency"), "controller_base_processing_ms", "repro.simulation.latency.CONTROLLER_BASE_PROCESSING_MS"),
    (("config", "latency"), "controller_per_krps_penalty_ms", "repro.simulation.latency.CONTROLLER_PER_KRPS_PENALTY_MS"),
    (("config", "latency"), "arp_flood_ms", "repro.simulation.latency.ARP_FLOOD_MS"),
    (("config", "latency"), "queueing_utilization_cap", "repro.simulation.latency.QUEUEING_UTILIZATION_CAP"),
    (("config", "flow_table"), "sweep_interval_seconds", "repro.core.system.TABLE_SWEEP_INTERVAL_SECONDS"),
    (("config",), "keepalive_interval_seconds", "repro.failover.detection.KEEPALIVE_INTERVAL_SECONDS"),
    (("churn",), "drift_batch_size", "repro.churn.processes.DRIFT_BATCH_SIZE"),
    (("churn",), "tenant_size_range", "repro.churn.processes.TENANT_SIZE_RANGE"),
    (("links",), "window_seconds", "repro.bandwidth.meter.WINDOW_SECONDS"),
)


def _without_retired(data: Any, path: Tuple[str, ...], key: str, constant: Optional[str], where: str = "spec") -> Any:
    """Shim: ``data`` (not mutated) without a retired ``key`` in the object at ``path``.

    The key loads as absent when it is ``null``, when it holds its constant's
    value, or at any value when it has no constant; any other value raises,
    so an old spec never silently runs a different model.  Malformed data is
    left to report.
    """
    if not isinstance(data, Mapping):
        return data
    if path:
        head = path[0]
        if head not in data:
            return data
        return {**data, head: _without_retired(data[head], path[1:], key, constant, f"{where}.{head}")}
    if key not in data:
        return data
    value = data[key]
    if value is not None and constant is not None:
        module, _, name = constant.rpartition(".")
        fixed = to_jsonable(getattr(importlib.import_module(module), name))
        if value != fixed:
            raise ConfigurationError(
                f"{where}.{key} is no longer a setting: it is fixed at {fixed!r} "
                f"({constant}), got {value!r}"
            )
    return {name: item for name, item in data.items() if name != key}


def _merge_config(data: Dict[str, Any], section: str, updates: Dict[str, Any]) -> None:
    """Merge ``updates`` into ``data["config"][section]`` (a malformed config is left to report)."""
    config = data.get("config") or {}
    if updates and isinstance(config, Mapping) and isinstance(config.get(section) or {}, Mapping):
        data["config"] = {**config, section: {**(config.get(section) or {}), **updates}}


def _fold_second_homes(data: Dict[str, Any]) -> Any:
    """Shim: a setting written in its old second place moves to its home, nulls dropped.

    ``links`` queueing knobs go to ``config.latency``; a built-in shape's
    ``uplink_mbps`` goes to ``links`` unless ``links`` sets one; a ``tables``
    overlay goes to ``config.flow_table`` the way it always applied (its
    policy and params replace the config's, ``static-idle`` and none when
    unset).  Returns the overlay's capacity for
    :meth:`~repro.common.config.FlowTableConfig.resized` to apply once typed.
    """
    links = data.get("links")
    if isinstance(links, Mapping):
        links = data["links"] = dict(links)
        queueing = {new: links.pop(old, None) for old, new in _LEGACY_QUEUEING.items()}
        _merge_config(data, "latency", {key: value for key, value in queueing.items() if value is not None})
    topology = data.get("topology")
    params = topology.get("params") if isinstance(topology, Mapping) else None
    shape = topology.get("shape", "multi-tenant") if isinstance(topology, Mapping) else None
    if isinstance(params, Mapping) and isinstance(shape, str) and shape in _UPLINK_SHAPES:
        params = dict(params)
        uplink = params.pop("uplink_mbps", None)
        data["topology"] = {**topology, "params": params}
        if uplink is not None and isinstance(links or {}, Mapping) and (links or {}).get("uplink_mbps") is None:
            data["links"] = {**(links or {}), "uplink_mbps": uplink}
    tables = data.pop("tables", None)
    if tables is None:
        return None
    if not isinstance(tables, Mapping):
        raise ConfigurationError(f"spec.tables: expected a JSON object, got {type(tables).__name__}")
    table = {"policy": "static-idle", "policy_params": {}}
    for key, value in tables.items():
        if value is not None:
            table["policy_params" if key == "params" else key] = value
    capacity = table.pop("capacity", None)
    _merge_config(data, "flow_table", table)
    return capacity


@dataclass(frozen=True, slots=True)
class ScenarioSpec:
    """A fully declarative description of one experiment.

    ``execution`` carries every knob about *how* the replay runs — process
    fan-out, shard strategy, kernel, and the bounded-memory streaming
    flag (:class:`~repro.replay.spec.ExecutionSpec`).  ``stream=True``
    there selects chunk-by-chunk generation and replay, trading one extra
    generation of the warm-up window (and one full regeneration per
    additional control plane) for O(chunk) memory — the mode that makes
    multi-million-flow scenarios fit on ordinary hardware.  ``spec.stream``
    reads ``spec.execution.stream``.
    """

    name: str
    topology: TopologySpec = field(
        default_factory=lambda: TopologySpec(
            shape="multi-tenant", params={"switch_count": 48, "host_count": 600}
        )
    )
    traffic: TraceSpec = field(default_factory=TraceSpec)
    systems: Tuple[str, ...] = ("openflow", "lazyctrl-static", "lazyctrl-dynamic")
    schedule: ScheduleSpec = field(default_factory=ScheduleSpec)
    config: LazyCtrlConfig = field(default_factory=LazyCtrlConfig)
    failures: Optional[FailureInjectionSpec] = None
    churn: Optional[ChurnSpec] = None
    execution: ExecutionSpec = field(default_factory=ExecutionSpec)
    # Uniform uplink capacity and accounting window, applied to the built
    # network whatever its shape.  ``None`` keeps links uncapacitated and
    # the bandwidth subsystem inert (the bit-identical default).
    links: Optional[LinkCapacitySpec] = None

    def __post_init__(self) -> None:
        if not self.name or not self.name.strip():
            raise ConfigurationError("scenario name must be a non-empty string")
        # A classic TopologyProfile still works everywhere a TopologySpec is
        # expected; it is wrapped into the registry-backed form on entry.
        if isinstance(self.topology, TopologyProfile):
            object.__setattr__(self, "topology", TopologySpec.from_profile(self.topology))
        if isinstance(self.systems, str):
            raise ConfigurationError(
                "systems must be a sequence of names, e.g. ('openflow',), not a bare string"
            )
        systems = tuple(self.systems)
        if not systems:
            raise ConfigurationError("a scenario must select at least one control plane")
        if any(not isinstance(system, str) or not system for system in systems):
            raise ConfigurationError("control-plane names must be non-empty strings")
        if len(set(systems)) != len(systems):
            raise ConfigurationError("systems must not contain duplicate control-plane names")
        object.__setattr__(self, "systems", systems)
        if not isinstance(self.execution, ExecutionSpec):
            raise ConfigurationError(
                "scenario execution must be an ExecutionSpec (a JSON object in a spec file), "
                f"got {type(self.execution).__name__}"
            )

    @property
    def stream(self) -> bool:
        """Alias for ``execution.stream``, kept for the stage ledger
        (``benchmarks/ledger/child.py``); the library reads ``execution.stream``."""
        return self.execution.stream

    @property
    def churn_active(self) -> bool:
        """Whether this scenario applies workload dynamics during the replay."""
        return self.churn is not None and self.churn.active

    def effective_config(self) -> LazyCtrlConfig:
        """The system config a replay runs with: ``config`` itself."""
        return self.config

    # -- materialization -----------------------------------------------------

    def build_network(self) -> DataCenterNetwork:
        """Build the data-center topology this spec describes.

        ``links`` (if any) is applied here, so every path that rebuilds the
        network from the spec — serial replay, streaming, shard workers,
        per-system churn networks — sees the same capacities.
        """
        network = self.topology.build()
        if self.links is not None:
            self.links.apply_network(network)
        return network

    def build_trace(self, network: DataCenterNetwork) -> Trace:
        """Generate the trace this spec describes over ``network`` (drawn as ``execution.kernel`` says)."""
        return self.traffic.build(network, name=self.name, kernel=self.execution.kernel)

    def build_stream(self, network: DataCenterNetwork) -> FlowStream:
        """Generate the trace as a lazy chunk stream over ``network`` (drawn as ``execution.kernel`` says)."""
        return self.traffic.build_stream(network, name=self.name, kernel=self.execution.kernel)

    # -- serialization -------------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        """A JSON-ready representation of this spec."""
        return dataclass_to_dict(self)

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "ScenarioSpec":
        """Rebuild a spec from :meth:`to_dict` output.

        Spec JSON written before the workload registries existed (PR ≤ 3:
        ``topology`` as a bare profile dict, ``traffic`` with a ``kind``
        discriminator) is transparently upgraded to the registry form, and a
        pre-ExecutionSpec top-level ``stream`` flag (PR ≤ 7) folds into
        ``execution``.  A setting written in a second place folds into its
        home, ``null`` values dropped: a ``tables`` overlay into
        ``config.flow_table``, ``links`` queueing knobs into
        ``config.latency``, and a topology ``uplink_mbps`` into ``links``
        (whose own capacity wins).  A retired setting then loads as absent
        at its constant's value and raises at any other (see
        :data:`_RETIRED`); the ``config.regrouping`` section the retired
        triggers leave empty goes with them.
        """
        data = dict(data)
        if "topology" in data:
            data["topology"] = _modernize_topology(data["topology"])
        if "traffic" in data:
            data["traffic"] = _modernize_traffic(data["traffic"])
        if "stream" in data:
            legacy_stream = data.pop("stream")
            if "execution" not in data:
                data["execution"] = {"stream": bool(legacy_stream)}
        capacity = _fold_second_homes(data)
        for path, key, constant in _RETIRED:
            data = _without_retired(data, path, key, constant)
        config = data.get("config")
        if isinstance(config, Mapping) and "regrouping" in config and config["regrouping"] in (None, {}):
            data["config"] = {name: value for name, value in config.items() if name != "regrouping"}
        spec = dataclass_from_dict(cls, data, path="spec")
        if capacity is None:
            return spec
        table = spec.config.flow_table.resized(from_jsonable(int, capacity, path="spec.tables.capacity"))
        return dataclasses.replace(spec, config=dataclasses.replace(spec.config, flow_table=table))

    def to_json(self, *, indent: int | None = 2) -> str:
        """This spec as a JSON document."""
        return json.dumps(self.to_dict(), indent=indent)

    @classmethod
    def from_json(cls, text: str) -> "ScenarioSpec":
        """Parse a spec from a JSON document."""
        return cls.from_dict(json.loads(text))

    def save(self, path: str | Path) -> Path:
        """Write this spec to ``path`` as JSON and return the path."""
        target = Path(path)
        target.write_text(self.to_json() + "\n", encoding="utf-8")
        return target

    @classmethod
    def load(cls, path: str | Path) -> "ScenarioSpec":
        """Load a spec previously written with :meth:`save`."""
        return cls.from_json(Path(path).read_text(encoding="utf-8"))
