"""Traffic traces: flow records, column chunks, generators, streams, mixes, the registry and replay."""

from repro.traffic.chunk import FlowChunk
from repro.traffic.expand import expand_trace
from repro.traffic.flow import FlowRecord
from repro.traffic.mix import (
    TrafficComponentSpec,
    TrafficMixSpec,
    stream_mix_trace,
)
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
from repro.traffic.realistic import DIURNAL_PROFILE, RealisticTraceGenerator, RealisticTraceProfile
from repro.traffic.registry import (
    available_traffic_models,
    get_traffic_model,
    register_traffic_model,
    unregister_traffic_model,
)
from repro.traffic.replay import FlowSink, ReplayProgress, TraceReplayer
from repro.traffic.stream import (
    CHUNK_TARGET_FLOWS,
    ChunkWindow,
    FlowStream,
    GeneratedStream,
    MergedStream,
    accumulate_intensity,
    subdivide_span,
    windowed_chunks,
)
from repro.traffic.synthetic import (
    PAPER_SYNTHETIC_SPECS,
    SyntheticTraceGenerator,
    SyntheticTraceSpec,
    paper_synthetic_specs,
)
from repro.traffic.trace import Trace

__all__ = [
    "AllToAllShuffleParams",
    "CHUNK_TARGET_FLOWS",
    "ChunkWindow",
    "DIURNAL_PROFILE",
    "ElephantMiceParams",
    "FlowChunk",
    "FlowRecord",
    "FlowSink",
    "FlowStream",
    "GeneratedStream",
    "IncastHotspotParams",
    "MergedStream",
    "PAPER_SYNTHETIC_SPECS",
    "RealisticTraceGenerator",
    "RealisticTraceProfile",
    "ReplayProgress",
    "SyntheticTraceGenerator",
    "SyntheticTraceSpec",
    "Trace",
    "TraceReplayer",
    "TrafficComponentSpec",
    "TrafficMixSpec",
    "UniformBackgroundParams",
    "accumulate_intensity",
    "available_traffic_models",
    "expand_trace",
    "get_traffic_model",
    "paper_synthetic_specs",
    "register_traffic_model",
    "stream_all_to_all_shuffle",
    "stream_elephant_mice",
    "stream_incast_hotspot",
    "stream_mix_trace",
    "stream_uniform_background",
    "subdivide_span",
    "unregister_traffic_model",
    "windowed_chunks",
]
