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
Legacy spec JSON from before the registries existed (``topology`` as a bare
profile dict, ``traffic`` with a ``kind`` discriminator) still loads through
a compatibility shim in :meth:`ScenarioSpec.from_dict`.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Mapping, Optional, Tuple

from repro.churn.spec import ChurnSpec
from repro.bandwidth.spec import LinkCapacitySpec
from repro.common.config import LazyCtrlConfig
from repro.common.errors import ConfigurationError
from repro.common.serialize import dataclass_from_dict, dataclass_to_dict, to_jsonable
from repro.replay.spec import ExecutionSpec
from repro.tables.spec import TableSpec
from repro.topology.builder import TopologyProfile
from repro.topology.network import DataCenterNetwork
from repro.topology.registry import TopologyEntry, get_topology
from repro.traffic.expand import expand_trace
from repro.traffic.mix import TrafficMixSpec
from repro.traffic.realistic import RealisticTraceProfile
from repro.traffic.registry import TrafficModelEntry, get_traffic_model
from repro.traffic.stream import FlowStream
from repro.traffic.trace import Trace


@dataclass(frozen=True, slots=True)
class ScheduleSpec:
    """When the replay starts, ends, and how results are bucketed."""

    warmup_hours: float = 1.0
    duration_hours: float = 24.0
    bucket_hours: float = 2.0
    periodic_interval_seconds: float = 120.0

    def __post_init__(self) -> None:
        if self.warmup_hours < 0:
            raise ConfigurationError("warmup_hours must be non-negative")
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
        return self.warmup_hours * 3600.0

    @property
    def bucket_seconds(self) -> float:
        """Result bucket width in seconds."""
        return self.bucket_hours * 3600.0


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

    def entry(self) -> TopologyEntry:
        """The registry entry this spec references (raises on unknown shape)."""
        return get_topology(self.shape)

    def resolved_params(self) -> Any:
        """The params dict validated into the shape's params dataclass."""
        return self.entry().make_params(self.params)

    def build(self) -> DataCenterNetwork:
        """Build the data-center topology this spec describes."""
        return self.entry().build(self.params)

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
    expand_window_hours: Tuple[float, float] = (8.0, 24.0)
    expand_seed: int = 2015

    def __post_init__(self) -> None:
        if not self.model or not self.model.strip():
            raise ConfigurationError("traffic model must be a non-empty string")
        object.__setattr__(self, "params", dict(to_jsonable(dict(self.params))))
        if not 0.0 <= self.expand_fraction <= 5.0:
            raise ConfigurationError("expand_fraction must be in [0, 5]")
        start, end = self.expand_window_hours
        if end <= start:
            raise ConfigurationError("expand_window_hours must have positive length")
        object.__setattr__(self, "expand_window_hours", (float(start), float(end)))

    # -- constructors for the common models ----------------------------------

    @classmethod
    def realistic(
        cls, profile: RealisticTraceProfile | None = None, **params: Any
    ) -> "TraceSpec":
        """A realistic-model spec from a profile or from sparse knobs."""
        if profile is not None and params:
            raise ConfigurationError("pass either a profile or keyword params, not both")
        return cls(
            model="realistic",
            params=dataclass_to_dict(profile) if profile is not None else params,
        )

    @classmethod
    def mix(cls, mix_spec: TrafficMixSpec) -> "TraceSpec":
        """A composed-mix spec (see :class:`~repro.traffic.mix.TrafficMixSpec`)."""
        return cls(model="mix", params=dataclass_to_dict(mix_spec))

    # -- registry resolution -------------------------------------------------

    def entry(self) -> TrafficModelEntry:
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

    def build(self, network: DataCenterNetwork, *, name: str = "scenario") -> Trace:
        """Generate the trace this spec describes over ``network``: the stream, collected."""
        stream = self.build_stream(network, name=name)
        # A trace-factory model's stream already is its trace.
        return stream if isinstance(stream, Trace) else Trace.from_stream(stream)

    def build_stream(self, network: DataCenterNetwork, *, name: str = "scenario") -> FlowStream:
        """Generate the trace as a lazy chunk stream over ``network``.

        The §V-D expansion needs the base's full set of silent pairs, so a
        spec with ``expand_fraction > 0`` generates the base once here to find
        them, and holds the extra flows (one chunk) for as long as the stream
        lives; the base itself is still only ever resident a chunk at a time.
        """
        stream = self.entry().build_stream(network, self.params, name=name)
        if self.expand_fraction > 0.0:
            start, end = self.expand_window_hours
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
    # Finite-table overlay: capacity plus a registered timeout/eviction
    # policy, applied on top of ``config.flow_table`` at build time.  ``None``
    # leaves the config's flow-table settings untouched.
    tables: Optional[TableSpec] = None
    # Link-capacity overlay: uniform uplink capacities plus the queueing
    # knobs, applied to the built network and ``config.latency`` at build
    # time.  ``None`` keeps links uncapacitated and the bandwidth subsystem
    # inert (the bit-identical default).
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
        """Alias for ``execution.stream`` (the bounded-memory replay flag)."""
        return self.execution.stream

    @property
    def churn_active(self) -> bool:
        """Whether this scenario applies workload dynamics during the replay."""
        return self.churn is not None and self.churn.active

    def effective_config(self) -> LazyCtrlConfig:
        """The system config with the ``tables``/``links`` overlays folded in."""
        config = self.config
        if self.tables is not None:
            config = self.tables.apply(config)
        if self.links is not None:
            config = self.links.apply(config)
        return config

    # -- materialization -----------------------------------------------------

    def build_network(self) -> DataCenterNetwork:
        """Build the data-center topology this spec describes.

        The ``links`` overlay (if any) is applied here, so every path that
        rebuilds the network from the spec — serial replay, streaming,
        shard workers, per-system churn networks — sees the same capacities.
        """
        network = self.topology.build()
        if self.links is not None:
            self.links.apply_network(network)
        return network

    def build_trace(self, network: DataCenterNetwork) -> Trace:
        """Generate the trace this spec describes over ``network``."""
        return self.traffic.build(network, name=self.name)

    def build_stream(self, network: DataCenterNetwork) -> FlowStream:
        """Generate the trace as a lazy chunk stream over ``network``."""
        return self.traffic.build_stream(network, name=self.name)

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
        ``execution``.  Two removed keys are dropped: ``execution.chunk_flows``
        (it sized an adapter that no longer exists) and
        ``config.latency.group_broadcast_ms`` (it priced per-packet ARP
        resolution, which the replay never modelled).
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
        execution = data.get("execution")
        if isinstance(execution, Mapping) and "chunk_flows" in execution:
            data["execution"] = {
                key: value for key, value in execution.items() if key != "chunk_flows"
            }
        config = data.get("config")
        latency = config.get("latency") if isinstance(config, Mapping) else None
        if isinstance(latency, Mapping) and "group_broadcast_ms" in latency:
            latency = {key: value for key, value in latency.items() if key != "group_broadcast_ms"}
            data["config"] = {**config, "latency": latency}
        return dataclass_from_dict(cls, data, path="spec")

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
