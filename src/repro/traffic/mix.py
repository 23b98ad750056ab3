"""Composable traffic mixes: weighted, time-windowed blends of registered models.

A :class:`TrafficMixSpec` lists components, each naming a registered traffic
model with raw params, a weight (its share of the mix's ``total_flows``) and
an optional time window.  :func:`stream_mix_trace` generates every
component over the same topology and merges the results into one
deterministic stream — e.g. a diurnal realistic baseline, an elephant/mice
overlay through business hours, and an incast burst at 9 am.

Two properties the tests pin down:

* **determinism** — the merged trace is a pure function of (topology, mix
  spec): each component's RNG seed is derived from the mix seed and a
  canonical fingerprint of the component, never from list position;
* **order independence** — because seeds ignore position and the merged
  flows are re-numbered in a canonical sort order, permuting ``components``
  yields a bit-identical trace.

The mix is itself registered as the ``"mix"`` traffic model, so it nests
anywhere a model name is accepted — scenario specs, presets, even another
mix.

Composition is natively streamed: :func:`stream_mix_trace` builds each
component's stream and performs a k-way merge over them
(:class:`~repro.traffic.stream.MergedStream`), holding each component's
current chunk plus one output chunk — O(components × chunk), independent of
trace length — instead of concatenating materialized lists.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.common.errors import ConfigurationError
from repro.common.rng import derive_seed
from repro.common.serialize import to_jsonable
from repro.topology.network import DataCenterNetwork
from repro.traffic.registry import get_traffic_model, register_traffic_model
from repro.traffic.stream import FlowStream, MergedStream


@dataclass(frozen=True, slots=True)
class TrafficComponentSpec:
    """One ingredient of a traffic mix.

    ``window_hours`` confines the component to a slice of the mix's
    timeline: the component is generated over a duration equal to the
    window's length and then shifted to start at the window's start.  A
    model with time-of-day structure therefore restarts its own clock at
    the window start — a windowed ``realistic`` component begins at its
    hour-0 diurnal weight, not at the wall-clock hour's weight.
    """

    model: str
    params: Dict[str, Any] = field(default_factory=dict)
    weight: float = 1.0
    window_hours: Optional[Tuple[float, float]] = None

    def __post_init__(self) -> None:
        if not self.model or not self.model.strip():
            raise ConfigurationError("component model must be a non-empty string")
        if self.weight <= 0:
            raise ConfigurationError("component weight must be positive")
        object.__setattr__(self, "params", dict(to_jsonable(dict(self.params))))
        if self.window_hours is not None:
            start, end = self.window_hours
            if start < 0 or end <= start:
                raise ConfigurationError(
                    "component window_hours must be non-negative with positive length"
                )
            object.__setattr__(self, "window_hours", (float(start), float(end)))

    def fingerprint(self) -> str:
        """A canonical, position-independent identity for seed derivation."""
        return json.dumps(
            {
                "model": self.model,
                "params": self.params,
                "weight": self.weight,
                "window_hours": list(self.window_hours) if self.window_hours else None,
            },
            sort_keys=True,
        )


@dataclass(frozen=True, slots=True)
class TrafficMixSpec:
    """A weighted, time-windowed composition of registered traffic models."""

    components: Tuple[TrafficComponentSpec, ...] = ()
    total_flows: int = 200_000
    duration_hours: float = 24.0
    seed: int = 2015

    def __post_init__(self) -> None:
        components = tuple(self.components)
        if not components:
            raise ConfigurationError("a traffic mix needs at least one component")
        object.__setattr__(self, "components", components)
        if self.total_flows <= 0:
            raise ConfigurationError("total_flows must be positive")
        if self.duration_hours <= 0:
            raise ConfigurationError("duration_hours must be positive")
        for component in components:
            if component.window_hours is not None and component.window_hours[1] > self.duration_hours:
                raise ConfigurationError(
                    f"component {component.model!r} window ends at "
                    f"{component.window_hours[1]} h, beyond the mix duration of "
                    f"{self.duration_hours} h"
                )


def _component_flow_counts(mix: TrafficMixSpec) -> List[int]:
    """Split ``total_flows`` across components by weight, hitting it exactly.

    Largest-remainder allocation: floor every share, then hand the leftover
    flows to the components with the largest fractional parts.  Both the
    shares (fsum-normalized) and the tie-break (component fingerprints) are
    independent of list order, preserving the permutation invariant.

    ``repro.traffic.stream.allocate_counts`` is the same algorithm under the
    chunk grid's determinism contract (plain sum, positional tie-break);
    see its docstring before changing either.
    """
    weight_sum = math.fsum(component.weight for component in mix.components)
    shares = [
        mix.total_flows * component.weight / weight_sum for component in mix.components
    ]
    counts = [math.floor(share) for share in shares]
    leftover = mix.total_flows - sum(counts)
    by_remainder = sorted(
        range(len(shares)),
        key=lambda i: (counts[i] - shares[i], mix.components[i].fingerprint()),
    )
    for index in by_remainder[:leftover]:
        counts[index] += 1
    return counts


@register_traffic_model(
    "mix",
    params=TrafficMixSpec,
    label="Traffic mix",
    description="Weighted, time-windowed composition of other registered models",
)
def stream_mix_trace(
    network: DataCenterNetwork, mix: TrafficMixSpec, *, name: str = "mix"
) -> MergedStream:
    """Compose every component stream into one k-way-merged deterministic stream.

    Flow ids are minted in canonical ``(time, endpoints, payload)`` merge
    order, and component seeds derive from content fingerprints — so the
    merged stream, like the materialized trace it replaces, is independent
    of component list order.  Flows a component emits past its window are
    clipped by the merge rather than leaking outside its slot.
    """
    flow_counts = _component_flow_counts(mix)
    parts: List[Tuple[FlowStream, float, float]] = []
    for component, flow_count in zip(mix.components, flow_counts):
        entry = get_traffic_model(component.model)
        if flow_count <= 0:
            continue
        window = component.window_hours or (0.0, mix.duration_hours)
        window_span_hours = window[1] - window[0]
        overrides = {
            "total_flows": flow_count,
            "duration_hours": window_span_hours,
            "seed": derive_seed(mix.seed, "traffic-mix", component.fingerprint()),
        }
        supported = entry.param_names()
        params = dict(component.params)
        params.update(
            {key: value for key, value in overrides.items() if key in supported}
        )
        stream = entry.build(network, params=params, name=f"{name}:{component.model}")
        parts.append((stream, window[0] * 3600.0, window_span_hours * 3600.0))
    return MergedStream(
        name, network, parts, duration=mix.duration_hours * 3600.0
    )
