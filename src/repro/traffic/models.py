"""Built-in traffic models beyond the paper's two generators.

Each model is a deterministic trace generator with a frozen params dataclass,
registered by name in :mod:`repro.traffic.registry`.  They cover the workload
shapes the paper's evaluation gestures at but never isolates:

* **elephant/mice** — a handful of heavy, long-lived host pairs (elephants)
  over a swarm of short mice flows; locality lives in the elephants, so
  grouping gains hinge on where those few pairs sit;
* **incast hotspot** — many sources fanning in on a few hot destination
  hosts (storage frontends, reducers), optionally compressed into a burst
  window to model a synchronized stampede;
* **all-to-all shuffle** — periodic waves in which a participant set
  exchanges flows pairwise (the MapReduce shuffle shape), the workload with
  the *least* exploitable pair locality;
* **uniform background** — uniformly random pairs at uniformly random
  times, the locality-free floor every other model is compared against.

Every model generates natively as a chunked
:class:`~repro.traffic.stream.FlowStream` (``stream_*`` functions): cheap
setup state (elephant pairs, hotspots, shuffle participants) is drawn once
from a dedicated setup RNG stream, and each chunk's flows come from their
own per-chunk RNG, so any chunk can be produced in O(chunk) memory without
generating its predecessors.  A materialized trace is the stream collected
(``Trace.from_stream``, which is what the registry's ``build`` does), so
there is no second generator to keep in step.  All RNG streams derive from
the params seed only (not the trace name), so a model's output is a pure
function of its params over a given topology.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import log
from typing import List, Sequence, Tuple

from repro.common.errors import ConfigurationError, TrafficError
from repro.common.rng import make_rng
from repro.topology.network import DataCenterNetwork
from repro.traffic.registry import register_traffic_model
from repro.traffic.stream import (
    ChunkWindow,
    GeneratedStream,
    allocate_counts,
    per_distinct,
    plan_windows,
    subdivide_span,
    uniform_spans,
)

#: Rate of the exponential behind a mouse flow's packet count (mean 8).
MICE_PACKET_RATE = 1.0 / 8.0


def _require_hosts(network: DataCenterNetwork, minimum: int = 4) -> int:
    host_count = network.host_count()
    if host_count < minimum:
        raise TrafficError(f"the topology needs at least {minimum} hosts to generate traffic")
    return host_count


def _random_pair(rng, host_count: int) -> Tuple[int, int]:
    src = rng.randrange(host_count)
    dst = rng.randrange(host_count)
    while dst == src:
        dst = rng.randrange(host_count)
    return src, dst


def _mice_packets(rng) -> int:
    return max(1, int(rng.expovariate(MICE_PACKET_RATE)) + 1)


def _mice_duration(packet_count: int) -> float:
    return min(30.0, packet_count * 0.05)


def _mice_sizes(packets: List[int]) -> Tuple[List[int], List[float]]:
    """The byte and duration columns of mice flows, from their packet counts."""
    return [packet_count * 1400 for packet_count in packets], per_distinct(_mice_duration, packets)


# -- elephant / mice ----------------------------------------------------------


@dataclass(frozen=True, slots=True)
class ElephantMiceParams:
    """Knobs of the elephant/mice model."""

    total_flows: int = 200_000
    duration_hours: float = 24.0
    elephant_pair_count: int = 32
    elephant_flow_fraction: float = 0.2
    elephant_intra_tenant_fraction: float = 0.9
    elephant_packet_mean: float = 400.0
    seed: int = 2015

    def __post_init__(self) -> None:
        if self.total_flows <= 0:
            raise ConfigurationError("total_flows must be positive")
        if self.duration_hours <= 0:
            raise ConfigurationError("duration_hours must be positive")
        if self.elephant_pair_count < 1:
            raise ConfigurationError("elephant_pair_count must be at least 1")
        if not 0.0 <= self.elephant_flow_fraction <= 1.0:
            raise ConfigurationError("elephant_flow_fraction must be in [0, 1]")
        if not 0.0 <= self.elephant_intra_tenant_fraction <= 1.0:
            raise ConfigurationError("elephant_intra_tenant_fraction must be in [0, 1]")
        if self.elephant_packet_mean <= 0:
            raise ConfigurationError("elephant_packet_mean must be positive")


def stream_elephant_mice(
    network: DataCenterNetwork, params: ElephantMiceParams, *, name: str = "elephant-mice"
) -> GeneratedStream:
    """Few heavy pairs (elephants) over many light random flows (mice), streamed."""
    host_count = _require_hosts(network)
    rng = make_rng(params.seed, "elephant-mice", "setup")

    tenants = [tenant for tenant in network.tenants.tenants() if tenant.size >= 2]
    elephants: List[Tuple[int, int]] = []
    seen = set()
    attempts = 0
    while len(elephants) < params.elephant_pair_count and attempts < params.elephant_pair_count * 50:
        attempts += 1
        if tenants and rng.random() < params.elephant_intra_tenant_fraction:
            tenant = tenants[rng.randrange(len(tenants))]
            a, b = rng.sample(tenant.host_ids, 2)
        else:
            a, b = _random_pair(rng, host_count)
        pair = (a, b) if a < b else (b, a)
        if pair not in seen:
            seen.add(pair)
            elephants.append(pair)
    if not elephants:
        raise TrafficError("no elephant pairs could be selected")

    seconds = params.duration_hours * 3600.0
    elephant_fraction = params.elephant_flow_fraction
    packet_mean = params.elephant_packet_mean

    def emit(rng, window: ChunkWindow) -> Tuple[List, ...]:
        times, sources, destinations, packets, durations = [], [], [], [], []
        start, span = window.start, window.span
        for _ in range(window.counts[0]):
            times.append(start + rng.random() * span)
            if rng.random() < elephant_fraction:
                src, dst = elephants[rng.randrange(len(elephants))]
                if rng.random() < 0.5:
                    src, dst = dst, src
                packet_count = max(1, int(rng.expovariate(1.0 / packet_mean)) + 1)
                duration = min(600.0, packet_count * 0.05)
            else:
                src, dst = _random_pair(rng, host_count)
                packet_count = _mice_packets(rng)
                duration = _mice_duration(packet_count)
            sources.append(src)
            destinations.append(dst)
            packets.append(packet_count)
            durations.append(duration)
        byte_counts = [packet_count * 1400 for packet_count in packets]
        return times, sources, destinations, packets, byte_counts, durations

    return GeneratedStream(
        name,
        network,
        plan_windows(uniform_spans(seconds), params.total_flows),
        emit,
        seed=params.seed,
        rng_label="elephant-mice",
        duration=seconds,
    )



# -- incast hotspot -----------------------------------------------------------


@dataclass(frozen=True, slots=True)
class IncastHotspotParams:
    """Knobs of the incast-hotspot model."""

    total_flows: int = 200_000
    duration_hours: float = 24.0
    hotspot_count: int = 4
    hotspot_flow_fraction: float = 0.7
    hotspot_zipf_exponent: float = 0.8
    burst_window_hours: Tuple[float, float] | None = None
    seed: int = 2015

    def __post_init__(self) -> None:
        if self.total_flows <= 0:
            raise ConfigurationError("total_flows must be positive")
        if self.duration_hours <= 0:
            raise ConfigurationError("duration_hours must be positive")
        if self.hotspot_count < 1:
            raise ConfigurationError("hotspot_count must be at least 1")
        if not 0.0 <= self.hotspot_flow_fraction <= 1.0:
            raise ConfigurationError("hotspot_flow_fraction must be in [0, 1]")
        if self.hotspot_zipf_exponent <= 0:
            raise ConfigurationError("hotspot_zipf_exponent must be positive")
        if self.burst_window_hours is not None:
            start, end = self.burst_window_hours
            if start < 0 or end > self.duration_hours or end <= start:
                raise ConfigurationError(
                    "burst_window_hours must lie inside [0, duration_hours] with positive length"
                )
            object.__setattr__(self, "burst_window_hours", (float(start), float(end)))


def stream_incast_hotspot(
    network: DataCenterNetwork, params: IncastHotspotParams, *, name: str = "incast-hotspot"
) -> GeneratedStream:
    """Fan-in traffic onto a few hot destination hosts, streamed.

    The hotspot and background populations have different time supports
    (the burst window vs the whole day), so each chunk window carries one
    planned count per population: hotspot flows are spread across windows in
    proportion to their overlap with the burst, background flows in
    proportion to plain window length.
    """
    host_count = _require_hosts(network)
    rng = make_rng(params.seed, "incast-hotspot", "setup")

    hotspot_count = min(params.hotspot_count, host_count - 1)
    hotspots = rng.sample(range(host_count), hotspot_count)

    seconds = params.duration_hours * 3600.0
    if params.burst_window_hours is not None:
        burst_start = params.burst_window_hours[0] * 3600.0
        burst_end = params.burst_window_hours[1] * 3600.0
    else:
        burst_start, burst_end = 0.0, seconds

    hot_total = round(params.total_flows * params.hotspot_flow_fraction)
    background_total = params.total_flows - hot_total

    # Chunk the timeline region by region (before / inside / after the
    # burst), sizing each region's subdivision by the flows it actually
    # holds: a narrow burst concentrates every hot flow into a sliver of
    # the day, and a uniform grid over the whole duration would pack that
    # sliver into chunks far beyond the target size.
    region_edges = sorted({0.0, burst_start, burst_end, seconds})
    bounds: List[Tuple[float, float]] = []
    for region_start, region_end in zip(region_edges, region_edges[1:]):
        expected = background_total * (region_end - region_start) / seconds
        if burst_start <= region_start and region_end <= burst_end:
            expected += hot_total
        bounds.extend(subdivide_span(region_start, region_end, round(expected)))
    hot_weights = [max(0.0, min(end, burst_end) - max(start, burst_start)) for start, end in bounds]
    hot_counts = allocate_counts(hot_total, hot_weights)
    background_counts = allocate_counts(background_total, [end - start for start, end in bounds])
    windows = [
        ChunkWindow(index=part, start=start, end=end, counts=(hot_counts[part], background_counts[part]))
        for part, (start, end) in enumerate(bounds)
    ]

    zipf_exponent = params.hotspot_zipf_exponent
    hotspot_population = len(hotspots)
    host_bits = host_count.bit_length()

    def emit(rng, window: ChunkWindow) -> Tuple[List, ...]:
        # A hot loop of trace generation, inlined as the realistic model's
        # is: the hotspot's Zipf index and the clamp, randrange(n) as its
        # getrandbits(n.bit_length()) rejection loop (a draw that is out of
        # range or lands on the other endpoint is drawn again, which is what
        # redrawing a whole randrange does), and the mice packet count's
        # expovariate as -log(1 - random()) / rate.  The RNG call sequence —
        # and so every draw — is unchanged.
        times: List[float] = []
        sources: List[int] = []
        destinations: List[int] = []
        packets: List[int] = []
        add_time, add_source = times.append, sources.append
        add_destination, add_packets = destinations.append, packets.append
        random, getrandbits = rng.random, rng.getrandbits
        hot_count, background_count = window.counts
        overlap_start = max(window.start, burst_start)
        overlap_span = min(window.end, burst_end) - overlap_start
        for _ in range(hot_count):
            index = int(hotspot_population * (random() ** zipf_exponent))
            if index >= hotspot_population:
                index = hotspot_population - 1
            dst = hotspots[index]
            src = getrandbits(host_bits)
            while src >= host_count or src == dst:
                src = getrandbits(host_bits)
            add_time(overlap_start + random() * overlap_span)
            add_source(src)
            add_destination(dst)
            add_packets(int(-log(1.0 - random()) / MICE_PACKET_RATE) + 1)
        start, span = window.start, window.span
        for _ in range(background_count):
            src = getrandbits(host_bits)
            while src >= host_count:
                src = getrandbits(host_bits)
            dst = getrandbits(host_bits)
            while dst >= host_count or dst == src:
                dst = getrandbits(host_bits)
            add_time(start + random() * span)
            add_source(src)
            add_destination(dst)
            add_packets(int(-log(1.0 - random()) / MICE_PACKET_RATE) + 1)
        return (times, sources, destinations, packets, *_mice_sizes(packets))

    return GeneratedStream(
        name,
        network,
        windows,
        emit,
        seed=params.seed,
        rng_label="incast-hotspot",
        duration=seconds,
    )



# -- all-to-all shuffle -------------------------------------------------------


@dataclass(frozen=True, slots=True)
class AllToAllShuffleParams:
    """Knobs of the all-to-all shuffle model."""

    total_flows: int = 200_000
    duration_hours: float = 24.0
    phase_count: int = 4
    phase_duration_hours: float = 0.5
    participant_fraction: float = 1.0
    seed: int = 2015

    def __post_init__(self) -> None:
        if self.total_flows <= 0:
            raise ConfigurationError("total_flows must be positive")
        if self.duration_hours <= 0:
            raise ConfigurationError("duration_hours must be positive")
        if self.phase_count < 1:
            raise ConfigurationError("phase_count must be at least 1")
        if not 0 < self.phase_duration_hours <= self.duration_hours / self.phase_count:
            raise ConfigurationError(
                "phase_duration_hours must be positive and phases must fit the duration "
                "(phase_count * phase_duration_hours <= duration_hours)"
            )
        if not 0.0 < self.participant_fraction <= 1.0:
            raise ConfigurationError("participant_fraction must be in (0, 1]")


def stream_all_to_all_shuffle(
    network: DataCenterNetwork, params: AllToAllShuffleParams, *, name: str = "all-to-all-shuffle"
) -> GeneratedStream:
    """Periodic shuffle waves (participants exchange flows pairwise), streamed.

    Each phase's participant set is drawn from its own setup RNG stream so a
    phase's chunks can be generated independently; windows only cover phase
    spans (the gaps between waves hold no flows by construction).
    """
    host_count = _require_hosts(network)

    participant_count = max(2, int(round(host_count * params.participant_fraction)))
    phase_span = params.phase_duration_hours * 3600.0
    # Phases are evenly spaced across the day, each starting on its slot.
    slot = params.duration_hours * 3600.0 / params.phase_count

    per_phase = [params.total_flows // params.phase_count] * params.phase_count
    for index in range(params.total_flows % params.phase_count):
        per_phase[index] += 1

    participants_by_phase: List[Sequence[int]] = []
    for phase in range(params.phase_count):
        phase_rng = make_rng(params.seed, "all-to-all-shuffle", "phase", str(phase))
        participants_by_phase.append(
            phase_rng.sample(range(host_count), min(participant_count, host_count))
        )

    windows: List[ChunkWindow] = []
    phase_of_window: List[int] = []
    index = 0
    for phase in range(params.phase_count):
        phase_start = phase * slot
        bounds = subdivide_span(phase_start, phase_start + phase_span, per_phase[phase])
        part_counts = allocate_counts(per_phase[phase], [1.0] * len(bounds))
        for (part_start, part_end), part_count in zip(bounds, part_counts):
            windows.append(
                ChunkWindow(index=index, start=part_start, end=part_end, counts=(part_count,))
            )
            phase_of_window.append(phase)
            index += 1

    def emit(rng, window: ChunkWindow) -> Tuple[List, ...]:
        participants = participants_by_phase[phase_of_window[window.index]]
        times, sources, destinations, packets = [], [], [], []
        start, span = window.start, window.span
        for _ in range(window.counts[0]):
            src = participants[rng.randrange(len(participants))]
            dst = participants[rng.randrange(len(participants))]
            while dst == src:
                dst = participants[rng.randrange(len(participants))]
            times.append(start + rng.random() * span)
            sources.append(src)
            destinations.append(dst)
            packets.append(_mice_packets(rng))
        return (times, sources, destinations, packets, *_mice_sizes(packets))

    return GeneratedStream(
        name,
        network,
        windows,
        emit,
        seed=params.seed,
        rng_label="all-to-all-shuffle",
        duration=params.duration_hours * 3600.0,
    )



# -- uniform background -------------------------------------------------------


@dataclass(frozen=True, slots=True)
class UniformBackgroundParams:
    """Knobs of the uniform background model."""

    total_flows: int = 200_000
    duration_hours: float = 24.0
    seed: int = 2015

    def __post_init__(self) -> None:
        if self.total_flows <= 0:
            raise ConfigurationError("total_flows must be positive")
        if self.duration_hours <= 0:
            raise ConfigurationError("duration_hours must be positive")


def stream_uniform_background(
    network: DataCenterNetwork, params: UniformBackgroundParams, *, name: str = "uniform"
) -> GeneratedStream:
    """Uniformly random pairs at uniformly random times, streamed."""
    host_count = _require_hosts(network)
    seconds = params.duration_hours * 3600.0

    def emit(rng, window: ChunkWindow) -> Tuple[List, ...]:
        times, sources, destinations, packets = [], [], [], []
        start, span = window.start, window.span
        for _ in range(window.counts[0]):
            src, dst = _random_pair(rng, host_count)
            packets.append(_mice_packets(rng))
            times.append(start + rng.random() * span)
            sources.append(src)
            destinations.append(dst)
        return (times, sources, destinations, packets, *_mice_sizes(packets))

    return GeneratedStream(
        name,
        network,
        plan_windows(uniform_spans(seconds), params.total_flows),
        emit,
        seed=params.seed,
        rng_label="uniform-background",
        duration=seconds,
    )


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
