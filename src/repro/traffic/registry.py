"""The pluggable traffic-model registry.

PR 1 made control planes pluggable (``@register_control_plane``); this module
extends the same pattern to the *workload* half of a scenario.  A traffic
model is a named trace generator:

* each model owns a frozen **params dataclass** (its knobs, JSON-shaped) and
  a **factory** that turns a topology plus validated params into flows: a
  lazy :class:`~repro.traffic.stream.FlowStream` (every built-in; its
  :class:`~repro.traffic.trace.Trace` is that stream collected) or a ``Trace``;
* :func:`register_traffic_model` registers the pair under a short name
  (``"realistic"``, ``"elephant-mice"``, ...); third-party generators plug
  in with the same decorator from their own modules;
* :class:`~repro.core.scenario.TraceSpec` references a model purely by name
  plus a plain params dict, which is what keeps scenario specs
  JSON-serializable and lets :class:`~repro.traffic.mix.TrafficMixSpec`
  compose any registered models into one merged trace.

Models whose params expose ``total_flows`` / ``duration_hours`` / ``seed``
(all the built-ins do) are automatically composable by the ``"mix"`` model,
which rescales those knobs per component.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Callable, List, Mapping, Optional

from repro.common.errors import ConfigurationError
from repro.common.registry import (
    NamedRegistry,
    make_entry_params,
    params_field_names,
    require_params_dataclass,
)
from repro.topology.network import DataCenterNetwork
from repro.traffic.stream import FlowStream
from repro.traffic.trace import Trace

#: Builds one trace over a network from validated params; ``name`` labels the
#: resulting trace (generators may fold it into their RNG stream labels).
TrafficModelFactory = Callable[..., Trace]

#: Builds one lazy chunk stream over a network from validated params.
TrafficStreamFactory = Callable[..., FlowStream]


@dataclasses.dataclass(frozen=True, slots=True)
class TrafficModelEntry:
    """One registered traffic model."""

    name: str
    #: ``None`` for a model whose one generator is its stream factory.
    factory: Optional[TrafficModelFactory]
    params_type: type
    label: str
    description: str = ""
    stream_factory: Optional[TrafficStreamFactory] = None

    def param_names(self) -> frozenset:
        """Names of the knobs this model's params dataclass accepts."""
        return params_field_names(self.params_type)

    def make_params(self, params: Optional[Mapping[str, Any]] = None) -> Any:
        """Validate a raw params mapping into this model's params dataclass.

        Raises :class:`~repro.common.errors.ConfigurationError` naming any
        unknown or missing key.
        """
        return make_entry_params(
            self.params_type, params, path=f"traffic model {self.name!r} params"
        )

    def build(
        self,
        network: DataCenterNetwork,
        params: Optional[Mapping[str, Any]] = None,
        *,
        name: str = "trace",
    ) -> Trace:
        """Generate one trace over ``network`` from a raw params mapping.

        A model with a stream factory has one generator: its trace is the
        stream, collected.
        """
        if self.stream_factory is not None:
            return Trace.from_stream(self.build_stream(network, params, name=name))
        return self.factory(network, self.make_params(params), name=name)

    def build_stream(
        self,
        network: DataCenterNetwork,
        params: Optional[Mapping[str, Any]] = None,
        *,
        name: str = "trace",
    ) -> FlowStream:
        """Generate one chunked flow stream over ``network`` from raw params.

        Models registered with a ``stream`` factory (all the built-ins)
        generate lazily in O(chunk) memory; a model that only provides a trace
        factory answers with its trace, which is a stream of one resident
        chunk, so every consumer still works — just without the memory bound.
        """
        if self.stream_factory is not None:
            return self.stream_factory(network, self.make_params(params), name=name)
        return self.build(network, params, name=name)


_REGISTRY: NamedRegistry[TrafficModelEntry] = NamedRegistry(
    kind="traffic model",
    name_label="traffic-model name",
    known_label="registered models",
)


def register_traffic_model(
    name: str,
    *,
    params: type,
    label: str | None = None,
    description: str = "",
    stream: Optional[TrafficStreamFactory] = None,
    replace: bool = False,
) -> Callable[[Optional[TrafficModelFactory]], Optional[TrafficModelFactory]]:
    """Register a traffic-model factory under ``name``.

    Use as a decorator on a factory taking ``(network, params, *, name)``
    and returning a :class:`~repro.traffic.trace.Trace`; ``params`` is the
    frozen dataclass describing the model's knobs.  ``stream`` optionally
    registers the model's native chunked generator (same signature,
    returning a :class:`~repro.traffic.stream.FlowStream`), which then is
    the model's one generator: ``build`` collects it, and the decorated
    trace factory may be ``None``.  Without it the streaming API is handed
    the trace the factory returns::

        @dataclasses.dataclass(frozen=True)
        class RingParams:
            total_flows: int = 10_000
            duration_hours: float = 24.0
            seed: int = 1

        @register_traffic_model("ring", params=RingParams, label="Ring")
        def build_ring_trace(network, params, *, name="ring"):
            ...
            return Trace(name, network, flows)
    """
    _REGISTRY.validate_name(name)
    require_params_dataclass("traffic model", name, params)

    def decorator(factory: Optional[TrafficModelFactory]) -> Optional[TrafficModelFactory]:
        if factory is None and stream is None:
            raise ConfigurationError(f"traffic model {name!r} needs a trace or a stream factory")
        _REGISTRY.add(
            name,
            TrafficModelEntry(
                name=name,
                factory=factory,
                params_type=params,
                label=label or name,
                description=description,
                stream_factory=stream,
            ),
            replace=replace,
        )
        return factory

    return decorator


def unregister_traffic_model(name: str) -> None:
    """Remove a registered traffic model (primarily for tests)."""
    _REGISTRY.remove(name)


def get_traffic_model(name: str) -> TrafficModelEntry:
    """Look a registered traffic model up by name."""
    return _REGISTRY.get(name)


def available_traffic_models() -> List[TrafficModelEntry]:
    """All registered traffic models, sorted by name."""
    return _REGISTRY.available()


def _register_builtin_traffic_models() -> None:
    """Register the built-in models (idempotent; called at import time)."""
    if "realistic" in _REGISTRY:
        return
    from repro.traffic.mix import TrafficMixSpec, stream_mix_trace
    from repro.traffic.models import (
        AllToAllShuffleParams,
        ElephantMiceParams,
        IncastHotspotParams,
        UniformBackgroundParams,
        stream_all_to_all_shuffle,
        stream_elephant_mice,
        stream_incast_hotspot,
        stream_uniform_background,
    )
    from repro.traffic.realistic import RealisticTraceGenerator, RealisticTraceProfile
    from repro.traffic.synthetic import SyntheticTraceGenerator, SyntheticTraceSpec

    def _stream_realistic(network, params, *, name="real-like"):
        return RealisticTraceGenerator(network, params).stream(name=name)

    def _stream_synthetic(network, params, *, name="synthetic"):
        return SyntheticTraceGenerator(network).stream(params)

    # Every built-in has one generator, its stream factory: there is no
    # trace factory to decorate, so each registration is applied to ``None``.
    register_traffic_model(
        "realistic",
        params=RealisticTraceProfile,
        label="Realistic day-long",
        description="Diurnal enterprise substitute: skewed pairs, tenant locality (paper §V-A)",
        stream=_stream_realistic,
    )(None)

    register_traffic_model(
        "synthetic",
        params=SyntheticTraceSpec,
        label="Synthetic p/q",
        description="The paper's p/q construction varying locality (Table II, §V-B)",
        stream=_stream_synthetic,
    )(None)

    register_traffic_model(
        "elephant-mice",
        params=ElephantMiceParams,
        label="Elephant/mice",
        description="Few heavy long-lived pairs over a swarm of short mice flows",
        stream=stream_elephant_mice,
    )(None)

    register_traffic_model(
        "incast-hotspot",
        params=IncastHotspotParams,
        label="Incast hotspot",
        description="Fan-in onto a few hot destination hosts, optionally burst-windowed",
        stream=stream_incast_hotspot,
    )(None)

    register_traffic_model(
        "all-to-all-shuffle",
        params=AllToAllShuffleParams,
        label="All-to-all shuffle",
        description="Periodic shuffle waves where participants exchange flows pairwise",
        stream=stream_all_to_all_shuffle,
    )(None)

    register_traffic_model(
        "uniform",
        params=UniformBackgroundParams,
        label="Uniform background",
        description="Locality-free baseline: uniform pairs, uniform arrival times",
        stream=stream_uniform_background,
    )(None)

    register_traffic_model(
        "mix",
        params=TrafficMixSpec,
        label="Traffic mix",
        description="Weighted, time-windowed composition of other registered models",
        stream=stream_mix_trace,
    )(None)


_register_builtin_traffic_models()
