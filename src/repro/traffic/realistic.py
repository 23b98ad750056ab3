"""Generator of a "real-like" day-long enterprise data-center trace.

The paper's real trace is proprietary, so we synthesize a substitute that
reproduces every published statistic the evaluation depends on:

* 272 edge switches, 6509 hosts (scaled by the caller if desired);
* a day-long span with a diurnal arrival-rate shape (quiet at night, busy
  during working hours);
* strongly skewed pair activity: only a small fraction of all host pairs
  communicate at all, and about 10 % of the active pairs carry ~90 % of the
  flows;
* traffic concentrated inside tenants (the source of the 0.85 average
  centrality), with a small configurable fraction of inter-tenant flows.

Generation is natively streamed: the active-pair skeleton is drawn once from
a setup RNG stream (small — capped at a multiple of the host count), and the
flows of each chunk come from a per-chunk RNG over a diurnally-weighted
window grid, so a multi-million-flow day never materializes unless asked to
(:meth:`RealisticTraceGenerator.generate` collects the stream into a
:class:`~repro.traffic.trace.Trace`).  The generator is deterministic given
its seed.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import log
from typing import List, Tuple

from repro.common.errors import ConfigurationError, TrafficError
from repro.common.rng import make_rng
from repro.topology.network import DataCenterNetwork
from repro.traffic.registry import register_traffic_model
from repro.traffic.stream import ChunkWindow, GeneratedStream, per_distinct, plan_windows
from repro.traffic.trace import Trace

#: Relative flow-arrival rate per hour of the day (diurnal enterprise shape).
DIURNAL_PROFILE: tuple[float, ...] = (
    0.35, 0.30, 0.28, 0.27, 0.28, 0.35,
    0.55, 0.80, 1.00, 1.15, 1.20, 1.15,
    1.05, 1.10, 1.20, 1.25, 1.20, 1.05,
    0.90, 0.75, 0.65, 0.55, 0.45, 0.40,
)


@dataclass(frozen=True, slots=True)
class RealisticTraceProfile:
    """Parameters of the real-like trace generator."""

    total_flows: int = 200_000
    duration_hours: float = 24.0
    intra_tenant_fraction: float = 0.95
    active_pair_fraction: float = 0.002
    hot_pair_fraction: float = 0.10
    hot_pair_flow_share: float = 0.90
    zipf_exponent: float = 0.9
    seed: int = 2015

    def __post_init__(self) -> None:
        if self.total_flows <= 0:
            raise ConfigurationError("total_flows must be positive")
        if self.duration_hours <= 0:
            raise ConfigurationError("duration_hours must be positive")
        for name in ("intra_tenant_fraction", "active_pair_fraction", "hot_pair_fraction", "hot_pair_flow_share"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ConfigurationError(f"{name} must be in [0, 1]")
        if self.zipf_exponent <= 0:
            raise ConfigurationError("zipf_exponent must be positive")


#: A flow's payload per packet, its duration per packet and its longest duration.
BYTES_PER_PACKET = 1400
SECONDS_PER_PACKET = 0.05
MAX_FLOW_SECONDS = 60.0

#: Packets per flow are 1 + an exponential draw of this rate (mean 12).
PACKET_RATE = 1.0 / 12.0


def _duration_of(packet_count: int) -> float:
    """A flow's duration: 50 ms a packet, capped at a minute."""
    return min(MAX_FLOW_SECONDS, packet_count * SECONDS_PER_PACKET)


def diurnal_spans(duration_hours: float) -> List[Tuple[float, float, float]]:
    """The weighted hourly segments of a (possibly fractional) diurnal day.

    A fractional final hour keeps its hour's diurnal weight scaled by the
    fraction and its timestamps stay inside the fraction, so no flow lands
    past ``duration_hours``.
    """
    full_hours = int(duration_hours)
    final_fraction = duration_hours - full_hours
    spans = [
        (hour * 3600.0, (hour + 1) * 3600.0, DIURNAL_PROFILE[hour % 24])
        for hour in range(full_hours)
    ]
    if final_fraction > 0.0:
        spans.append(
            (
                full_hours * 3600.0,
                duration_hours * 3600.0,
                DIURNAL_PROFILE[full_hours % 24] * final_fraction,
            )
        )
    return spans


class RealisticTraceGenerator:
    """Builds a day-long trace with the paper's real-trace statistics."""

    def __init__(self, network: DataCenterNetwork, profile: RealisticTraceProfile | None = None) -> None:
        if network.host_count() < 4:
            raise TrafficError("the topology needs at least 4 hosts to generate traffic")
        self._network = network
        self._profile = profile or RealisticTraceProfile()

    @property
    def profile(self) -> RealisticTraceProfile:
        """The generation parameters in force."""
        return self._profile

    def stream(self, *, name: str = "real-like") -> GeneratedStream:
        """The trace as a lazily generated chunk stream."""
        profile = self._profile
        setup_rng = make_rng(profile.seed, "realistic-trace", name, "setup")
        active_pairs = self._select_active_pairs(setup_rng)
        if not active_pairs:
            raise TrafficError("no active host pairs could be selected")

        # Split active pairs into a hot set (few pairs, most flows) and a cold
        # set, reproducing the "90 % of flows from ~10 % of pairs" skew.
        hot_count = max(1, int(len(active_pairs) * profile.hot_pair_fraction))
        hot_pairs = active_pairs[:hot_count]
        cold_pairs = active_pairs[hot_count:] or active_pairs

        hot_share = profile.hot_pair_flow_share
        zipf_exponent = profile.zipf_exponent

        hot_population = len(hot_pairs)
        cold_population = len(cold_pairs)
        cold_bits = cold_population.bit_length()
        packet_rate = PACKET_RATE

        def emit(rng, window: ChunkWindow) -> Tuple[List, ...]:
            # The hot loop of trace generation.  Bound methods are hoisted and
            # the per-flow calls inlined as the RNG computes them: the hot
            # pair's Zipf index int(n * u ** exponent) and its clamp,
            # randrange(n) as its getrandbits(n.bit_length()) rejection loop,
            # expovariate(rate) as -log(1 - random()) / rate.  The RNG call
            # sequence — and so every draw — is unchanged.
            times: List[float] = []
            sources: List[int] = []
            destinations: List[int] = []
            packets: List[int] = []
            add_time, add_source = times.append, sources.append
            add_destination, add_packets = destinations.append, packets.append
            random, getrandbits = rng.random, rng.getrandbits
            start, span = window.start, window.span
            for _ in range(window.counts[0]):
                if random() < hot_share:
                    index = int(hot_population * (random() ** zipf_exponent))
                    if index >= hot_population:
                        index = hot_population - 1
                    src, dst = hot_pairs[index]
                else:
                    index = getrandbits(cold_bits)
                    while index >= cold_population:
                        index = getrandbits(cold_bits)
                    src, dst = cold_pairs[index]
                if random() < 0.5:
                    src, dst = dst, src
                # int() of a non-negative draw, plus one: never below one packet.
                add_packets(int(-log(1.0 - random()) / packet_rate) + 1)
                add_time(start + random() * span)
                add_source(src)
                add_destination(dst)
            byte_counts = [packet_count * BYTES_PER_PACKET for packet_count in packets]
            durations = per_distinct(_duration_of, packets)
            return times, sources, destinations, packets, byte_counts, durations

        def array_emitter():
            # The same draws parsed in numpy (kernel=vectorized); emit above
            # stays the reference they are held to.
            from repro.kernel import require_numpy

            require_numpy()
            from repro.kernel.realistic import RealisticArrayEmitter

            return RealisticArrayEmitter(
                hot_pairs,
                cold_pairs,
                hot_share=hot_share,
                zipf_exponent=zipf_exponent,
                packet_rate=packet_rate,
            )

        return GeneratedStream(
            name,
            self._network,
            plan_windows(diurnal_spans(profile.duration_hours), profile.total_flows),
            emit,
            seed=profile.seed,
            rng_label=("realistic-trace", name),
            duration=profile.duration_hours * 3600.0,
            array_emitter=array_emitter,
        )

    def generate(self, *, name: str = "real-like") -> Trace:
        """Generate the trace, materialized (the streamed flows, collected)."""
        return Trace.from_stream(self.stream(name=name))

    # -- internals ---------------------------------------------------------

    def _select_active_pairs(self, rng) -> List[tuple[int, int]]:
        """Choose the set of host pairs that exchange traffic at all.

        Most active pairs are intra-tenant (drawn within a random tenant);
        the remainder are inter-tenant, which is the traffic the controller
        can never be shielded from entirely.
        """
        profile = self._profile
        network = self._network
        host_count = network.host_count()
        total_possible = host_count * (host_count - 1) // 2
        target_pairs = max(8, int(total_possible * profile.active_pair_fraction))
        # Keep the pair set tractable even for very large topologies.
        target_pairs = min(target_pairs, 40 * host_count)

        tenants = network.tenants.tenants()
        pairs: set[tuple[int, int]] = set()
        attempts = 0
        max_attempts = target_pairs * 50
        while len(pairs) < target_pairs and attempts < max_attempts:
            attempts += 1
            if tenants and rng.random() < profile.intra_tenant_fraction:
                tenant = tenants[rng.randrange(len(tenants))]
                if tenant.size < 2:
                    continue
                a, b = rng.sample(tenant.host_ids, 2)
            else:
                a = rng.randrange(host_count)
                b = rng.randrange(host_count)
                if a == b:
                    continue
            pair = (a, b) if a < b else (b, a)
            pairs.add(pair)
        ordered = sorted(pairs)
        rng.shuffle(ordered)
        return ordered


@register_traffic_model(
    "realistic",
    params=RealisticTraceProfile,
    label="Realistic day-long",
    description="Diurnal enterprise substitute: skewed pairs, tenant locality (paper §V-A)",
)
def _stream_realistic(network, params, *, name="real-like"):
    return RealisticTraceGenerator(network, params).stream(name=name)
