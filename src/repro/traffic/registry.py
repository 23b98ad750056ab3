"""Traffic models: the named flow generators a :class:`~repro.core.scenario.TraceSpec` references.

A model's one factory takes ``(network, params, *, name)`` and returns any
:class:`~repro.traffic.stream.FlowStream` — a lazy
:class:`~repro.traffic.stream.GeneratedStream` (every built-in) or a
materialized :class:`~repro.traffic.trace.Trace`, which is a one-chunk
stream.  Models whose params expose ``total_flows`` / ``duration_hours`` /
``seed`` (all the built-ins do) compose under the ``"mix"`` model, which
rescales those knobs per component.  See :mod:`repro.common.registry`.
"""

from __future__ import annotations

from repro.common.registry import NamedRegistry
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

TRAFFIC_MODELS = NamedRegistry(kind="traffic model", known_label="registered models")
register_traffic_model = TRAFFIC_MODELS.register
unregister_traffic_model = TRAFFIC_MODELS.unregister
get_traffic_model = TRAFFIC_MODELS.get
available_traffic_models = TRAFFIC_MODELS.available


@register_traffic_model(
    "realistic",
    params=RealisticTraceProfile,
    label="Realistic day-long",
    description="Diurnal enterprise substitute: skewed pairs, tenant locality (paper §V-A)",
)
def _stream_realistic(network, params, *, name="real-like"):
    return RealisticTraceGenerator(network, params).stream(name=name)


@register_traffic_model(
    "synthetic",
    params=SyntheticTraceSpec,
    label="Synthetic p/q",
    description="The paper's p/q construction varying locality (Table II, §V-B)",
)
def _stream_synthetic(network, params, *, name="synthetic"):
    return SyntheticTraceGenerator(network).stream(params)


register_traffic_model(
    "elephant-mice",
    params=ElephantMiceParams,
    label="Elephant/mice",
    description="Few heavy long-lived pairs over a swarm of short mice flows",
)(stream_elephant_mice)
register_traffic_model(
    "incast-hotspot",
    params=IncastHotspotParams,
    label="Incast hotspot",
    description="Fan-in onto a few hot destination hosts, optionally burst-windowed",
)(stream_incast_hotspot)
register_traffic_model(
    "all-to-all-shuffle",
    params=AllToAllShuffleParams,
    label="All-to-all shuffle",
    description="Periodic shuffle waves where participants exchange flows pairwise",
)(stream_all_to_all_shuffle)
register_traffic_model(
    "uniform",
    params=UniformBackgroundParams,
    label="Uniform background",
    description="Locality-free baseline: uniform pairs, uniform arrival times",
)(stream_uniform_background)
register_traffic_model(
    "mix",
    params=TrafficMixSpec,
    label="Traffic mix",
    description="Weighted, time-windowed composition of other registered models",
)(stream_mix_trace)

