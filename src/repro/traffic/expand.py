"""Trace expansion: the paper's "+30 % extra flows" stress scenario (§V-D).

To test whether LazyCtrl keeps the controller lazy when the traffic pattern
drifts, the paper expands the real trace "by introducing 30 % extra flows
among the hosts that did not communicate with each other in the real trace
during the time interval from 8 to 24".  These extra flows deliberately break
the locality that the initial grouping exploited, which is what makes the
incremental-update machinery earn its keep (Fig. 7 and Fig. 8, "expanded"
curves).

The expansion is a stream over a stream: one pass over the base's endpoint
columns finds the silent pairs, the extra flows are drawn and held as one
resident chunk (a fraction of the base, 48 bytes a flow), and the result is
the k-way merge of the two — the base is regenerated chunk by chunk on every
drain and never materialized.
"""

from __future__ import annotations

from typing import List, Optional

from repro.common.errors import TrafficError
from repro.common.rng import make_rng
from repro.traffic.chunk import FlowChunk, FlowDraw
from repro.traffic.stream import FlowStream, MergedStream, windowed_chunks
from repro.traffic.trace import Trace


def expand_trace(
    base: FlowStream,
    *,
    extra_fraction: float = 0.30,
    window_start_hour: float = 8.0,
    window_end_hour: float = 24.0,
    seed: int = 2015,
    name: Optional[str] = None,
) -> MergedStream:
    """``base`` merged with extra flows among its previously silent host pairs.

    ``extra_fraction`` extra flows (relative to the base's flow count) are
    added, uniformly spread over ``[window_start_hour, window_end_hour)``,
    between host pairs that never communicated in ``base`` — a materialized
    :class:`~repro.traffic.trace.Trace` or any other stream.  Flow ids are
    minted in merge order.
    """
    if not 0.0 <= extra_fraction <= 5.0:
        raise TrafficError("extra_fraction must be in [0, 5]")
    if window_end_hour <= window_start_hour:
        raise TrafficError("the expansion window must have positive length")
    network = base.network
    host_count = network.host_count()
    if host_count < 4:
        raise TrafficError("the topology is too small to expand the trace")

    rng = make_rng(seed, "expand-trace", base.name)
    # One pass over the base's endpoint columns: its flow count and every
    # unordered host pair that exchanged at least one flow.
    base_flows = 0
    existing_pairs = set()
    for chunk in windowed_chunks(base):
        src, dst = chunk.src_host_ids, chunk.dst_host_ids
        base_flows += len(src)
        existing_pairs.update(zip(map(min, src, dst), map(max, src, dst)))
    extra_count = int(round(base_flows * extra_fraction))

    window_start = window_start_hour * 3600.0
    window_span = (window_end_hour - window_start_hour) * 3600.0

    extras: List[FlowDraw] = []
    attempts = 0
    max_attempts = extra_count * 80 + 1000
    while len(extras) < extra_count and attempts < max_attempts:
        attempts += 1
        a = rng.randrange(host_count)
        b = rng.randrange(host_count)
        if a == b:
            continue
        pair = (a, b) if a < b else (b, a)
        if pair in existing_pairs:
            continue
        timestamp = window_start + rng.random() * window_span
        packet_count = max(1, int(rng.expovariate(1.0 / 10.0)) + 1)
        extras.append(
            (timestamp, a, b, packet_count, packet_count * 1400, min(60.0, packet_count * 0.05))
        )
    # Small topologies can run out of silent pairs; in that case reuse
    # arbitrary cross-pairs rather than failing the experiment, but keep the
    # count faithful.
    while len(extras) < extra_count:
        a = rng.randrange(host_count)
        b = rng.randrange(host_count)
        if a == b:
            continue
        extras.append((window_start + rng.random() * window_span, a, b, 10, 15_000, 1.0))

    extras.sort()
    name = name or f"{base.name}-expanded"
    unclipped = float("inf")
    return MergedStream(
        name,
        network,
        [
            (base, 0.0, unclipped),
            (Trace(f"{name}:extra", network, FlowChunk.from_draws(extras)), 0.0, unclipped),
        ],
        duration=max(base.duration, window_start + window_span),
    )
