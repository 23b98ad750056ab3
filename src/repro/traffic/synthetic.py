"""Synthetic trace generator following the paper's p/q construction (§V-B).

The paper derives three synthetic traces (Syn-A/B/C) from the real one:

    "p % of the flows are generated by selecting from a given set of host
     pairs (q % of all host pairs) uniformly at random in the synthetic
     topology, and assigning each selected host pair a payload randomly
     chosen from the real trace. [...] The rest of the flows are generated by
     selecting host pairs uniformly at random from all host pairs."

Lower ``p`` / higher ``q`` spreads traffic over more pairs and therefore
lowers the average centrality, which is exactly the knob Table II varies:
Syn-A (90/10) ≈ 0.85, Syn-B (70/20) ≈ 0.72, Syn-C (70/30) ≈ 0.61.

To make the locality knob actually bite (as it does in the paper, where the
"given set" inherits the real trace's tenant locality), the concentrated set
of host pairs is drawn intra-tenant, while the remaining ``1 - p`` fraction
is drawn uniformly over *all* host pairs — crossing tenants and switches.

Generation is natively streamed (:meth:`SyntheticTraceGenerator.stream`):
the concentrated pair set comes from a setup RNG stream, the flows of each
chunk from a per-chunk RNG, and :meth:`SyntheticTraceGenerator.generate`
is the materialized wrapper.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.common.errors import ConfigurationError, TrafficError
from repro.common.rng import make_rng
from repro.topology.network import DataCenterNetwork
from repro.traffic.flow import FlowRecord
from repro.traffic.registry import register_traffic_model
from repro.traffic.stream import (
    ChunkWindow,
    GeneratedStream,
    plan_windows,
    uniform_spans,
)
from repro.traffic.trace import Trace


@dataclass(frozen=True, slots=True)
class SyntheticTraceSpec:
    """Specification of one synthetic trace.

    ``concentrated_flow_fraction`` is the paper's ``p`` (as a fraction) and
    ``concentrated_pair_fraction`` is the paper's ``q``; the defaults are
    Syn-A's 90/10 split so the spec is usable with no required fields (which
    is what lets the ``"synthetic"`` traffic model run straight from the
    registry).
    """

    name: str = "synthetic"
    concentrated_flow_fraction: float = 0.90
    concentrated_pair_fraction: float = 0.10
    total_flows: int = 200_000
    duration_hours: float = 24.0
    seed: int = 2015

    def __post_init__(self) -> None:
        if not 0.0 <= self.concentrated_flow_fraction <= 1.0:
            raise ConfigurationError("concentrated_flow_fraction (p) must be in [0, 1]")
        if not 0.0 < self.concentrated_pair_fraction <= 1.0:
            raise ConfigurationError("concentrated_pair_fraction (q) must be in (0, 1]")
        if self.total_flows <= 0:
            raise ConfigurationError("total_flows must be positive")
        if self.duration_hours <= 0:
            raise ConfigurationError("duration_hours must be positive")


#: The three synthetic traces of Table II.  Flow counts in the paper are in
#: the billions; the ratios between them (1.0 : 1.4 : 1.86 relative to Syn-A)
#: are preserved while the absolute count is set by ``total_flows``.
PAPER_SYNTHETIC_SPECS: tuple[SyntheticTraceSpec, ...] = (
    SyntheticTraceSpec(name="Syn-A", concentrated_flow_fraction=0.90, concentrated_pair_fraction=0.10),
    SyntheticTraceSpec(name="Syn-B", concentrated_flow_fraction=0.70, concentrated_pair_fraction=0.20),
    SyntheticTraceSpec(name="Syn-C", concentrated_flow_fraction=0.70, concentrated_pair_fraction=0.30),
)


def paper_synthetic_specs(*, total_flows: int = 200_000, seed: int = 2015) -> List[SyntheticTraceSpec]:
    """The Table II specs with flow counts scaled to ``total_flows`` for Syn-A.

    Syn-B and Syn-C keep the paper's relative sizes (3806/2720 and 5071/2720
    times the Syn-A count respectively).
    """
    ratios = {"Syn-A": 1.0, "Syn-B": 3806 / 2720, "Syn-C": 5071 / 2720}
    result = []
    for spec in PAPER_SYNTHETIC_SPECS:
        result.append(
            SyntheticTraceSpec(
                name=spec.name,
                concentrated_flow_fraction=spec.concentrated_flow_fraction,
                concentrated_pair_fraction=spec.concentrated_pair_fraction,
                total_flows=max(1, round(total_flows * ratios[spec.name])),
                duration_hours=spec.duration_hours,
                seed=seed,
            )
        )
    return result


class SyntheticTraceGenerator:
    """Generates p/q synthetic traces over a given topology."""

    def __init__(self, network: DataCenterNetwork, *, payload_trace: Optional[Trace] = None) -> None:
        if network.host_count() < 4:
            raise TrafficError("the topology needs at least 4 hosts to generate traffic")
        self._network = network
        self._payloads: Optional[Sequence[FlowRecord]] = payload_trace.flows if payload_trace is not None else None

    def stream(self, spec: SyntheticTraceSpec) -> GeneratedStream:
        """One synthetic trace according to ``spec``, as a lazy chunk stream."""
        setup_rng = make_rng(spec.seed, "synthetic-trace", spec.name, "setup")
        network = self._network
        host_count = network.host_count()

        concentrated_pairs = self._concentrated_pairs(setup_rng, spec)
        concentrated_fraction = spec.concentrated_flow_fraction
        payloads = self._payloads

        def emit(rng, window: ChunkWindow) -> Tuple[List, ...]:
            columns = times, sources, destinations, packets, byte_counts, durations = (
                [], [], [], [], [], []
            )
            start, span = window.start, window.span
            for _ in range(window.counts[0]):
                times.append(start + rng.random() * span)
                if concentrated_pairs and rng.random() < concentrated_fraction:
                    src, dst = concentrated_pairs[rng.randrange(len(concentrated_pairs))]
                else:
                    src = rng.randrange(host_count)
                    dst = rng.randrange(host_count)
                    while dst == src:
                        dst = rng.randrange(host_count)
                if rng.random() < 0.5:
                    src, dst = dst, src
                if payloads:
                    sample = payloads[rng.randrange(len(payloads))]
                    packet_count, byte_count, duration = (
                        sample.packet_count,
                        sample.byte_count,
                        sample.duration,
                    )
                else:
                    packet_count = max(1, int(rng.expovariate(1.0 / 12.0)) + 1)
                    byte_count, duration = packet_count * 1400, min(60.0, packet_count * 0.05)
                sources.append(src)
                destinations.append(dst)
                packets.append(packet_count)
                byte_counts.append(byte_count)
                durations.append(duration)
            return columns

        return GeneratedStream(
            spec.name,
            network,
            plan_windows(uniform_spans(spec.duration_hours * 3600.0), spec.total_flows),
            emit,
            seed=spec.seed,
            rng_label=("synthetic-trace", spec.name),
            duration=spec.duration_hours * 3600.0,
        )

    def generate(self, spec: SyntheticTraceSpec) -> Trace:
        """Generate one synthetic trace, materialized (the streamed flows, collected)."""
        return Trace.from_stream(self.stream(spec))

    def generate_paper_suite(self, *, total_flows: int = 60_000, seed: int = 2015) -> List[Trace]:
        """Generate all three Table II traces (Syn-A, Syn-B, Syn-C)."""
        return [self.generate(spec) for spec in paper_synthetic_specs(total_flows=total_flows, seed=seed)]

    # -- internals -----------------------------------------------------------

    def _concentrated_pairs(self, rng, spec: SyntheticTraceSpec) -> List[tuple[int, int]]:
        """Draw the concentrated ("given") set of host pairs, intra-tenant biased.

        The size of the set is ``q`` percent of all host pairs, capped so the
        set stays materializable for very large topologies (the cap preserves
        the locality property that matters, not the absolute count).
        """
        network = self._network
        host_count = network.host_count()
        total_possible = host_count * (host_count - 1) // 2
        target = max(4, int(total_possible * spec.concentrated_pair_fraction))
        # Cap the materialized set for very large topologies.  The cap must
        # stay well above the intra-tenant pair pool so that a larger ``q``
        # genuinely dilutes the set with random (non-local) pairs — that
        # dilution is what makes Syn-B/Syn-C less centralized than Syn-A.
        target = min(target, 300 * host_count, 400_000)

        tenants = [tenant for tenant in network.tenants.tenants() if tenant.size >= 2]
        pairs: set[tuple[int, int]] = set()
        attempts = 0
        max_attempts = target * 60
        while len(pairs) < target and attempts < max_attempts:
            attempts += 1
            if tenants and rng.random() < 0.9:
                tenant = tenants[rng.randrange(len(tenants))]
                a, b = rng.sample(tenant.host_ids, 2)
            else:
                a = rng.randrange(host_count)
                b = rng.randrange(host_count)
                if a == b:
                    continue
            pairs.add((a, b) if a < b else (b, a))
        ordered = sorted(pairs)
        rng.shuffle(ordered)
        return ordered


@register_traffic_model(
    "synthetic",
    params=SyntheticTraceSpec,
    label="Synthetic p/q",
    description="The paper's p/q construction varying locality (Table II, §V-B)",
)
def _stream_synthetic(network, params, *, name="synthetic"):
    return SyntheticTraceGenerator(network).stream(params)
