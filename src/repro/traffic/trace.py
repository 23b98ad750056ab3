"""Trace container and trace-level statistics.

A :class:`Trace` couples a time-sorted collection of flows with the
:class:`~repro.topology.network.DataCenterNetwork` the hosts live in.  Since
the streaming refactor it is the *materialized convenience wrapper* over the
chunked pipeline: every built-in generator natively emits a
:class:`~repro.traffic.stream.FlowStream`, and :meth:`Trace.from_stream`
(or passing the stream straight to the constructor) keeps its flows for
callers that want random access.

However it was built, a trace holds one
:class:`~repro.traffic.chunk.FlowChunk` — the one resident form of its flows.
A stream's chunks are gathered onto six growing ``array`` columns
(:meth:`FlowChunk.gathered <repro.traffic.chunk.FlowChunk.gathered>`) and no
:class:`FlowRecord` is built; a record iterable (a third-party trace factory's
``Trace(name, network, records)``) is sorted and transposed once, and keeps
its records, their ids and rate profiles.  Every consumer inside the library
reads the chunk — the warm-up intensity fold, the statistics pass, the
replayer, the vectorized kernel — through :meth:`Trace.chunks` or
:meth:`Trace.columns`.  A caller that asks for records (``.flows``, iteration,
``window``, ``subtrace``) has the record list minted once *beside* the columns
and shared by every later call.

The derived views the rest of the library needs —

* the switch-level intensity matrix over an arbitrary time window (input to
  the grouping algorithms and the replayer),
* pair-activity statistics (distinct communicating host pairs, share of
  flows contributed by the busiest pairs — the paper's motivation numbers),
* per-hour flow-arrival counts (the diurnal shape used by Fig. 7)

— are all computed by one accumulating
:class:`~repro.traffic.stream.TraceStatistics` pass rather than a re-scan
per view: the topology-independent views (pair activity, hourly counts,
communicating pairs) share a single cached pass, while the intensity matrix
is re-accumulated per call because it reflects host placement *now* (VM
churn moves hosts between switches mid-replay).
"""

from __future__ import annotations

from bisect import bisect_left
from copy import copy
from dataclasses import dataclass
from typing import Iterable, Iterator, List, Optional, Sequence

from repro.common.errors import TrafficError
from repro.datastructures.intensity import IntensityMatrix
from repro.topology.network import DataCenterNetwork
from repro.traffic.chunk import FlowChunk
from repro.traffic.flow import FlowRecord
from repro.traffic.stream import FlowStream, TraceStatistics, accumulate_intensity, trim_chunks


@dataclass(frozen=True, slots=True)
class PairActivity:
    """Summary of how concentrated the traffic is across host pairs."""

    total_flows: int
    distinct_pairs: int
    top_decile_share: float


class Trace:
    """A named, time-sorted collection of flow records bound to a topology."""

    def __init__(
        self, name: str, network: DataCenterNetwork, flows: Iterable[FlowRecord] | FlowStream
    ) -> None:
        self.name = name
        self.network = network
        self._pair_stats: Optional[TraceStatistics] = None
        # A record iterable enters as a one-chunk stream: not a column-backed
        # run, so ``gathered`` sorts and adapts it.
        chunks = flows.chunks() if hasattr(flows, "chunks") else (flows,)
        self._columns = FlowChunk.gathered(chunks)
        # The cache of minted records, once somebody asked.
        self._flows: Optional[List[FlowRecord]] = None
        self._columns.check_hosts(network.has_host)

    @classmethod
    def from_stream(cls, stream: FlowStream, *, name: Optional[str] = None) -> "Trace":
        """Materialize a chunked flow stream into a trace."""
        return cls(name or stream.name, stream.network, stream)

    def bound_to(self, network: DataCenterNetwork) -> "Trace":
        """The same flows over another copy of the topology, resident once.

        What a replay under churn needs — churn mutates the network, so every
        system starts from its own pristine copy.  The new trace shares this
        one's columns (and minted records) instead of holding its own;
        ``network`` must hold every endpoint, checked as at construction.
        """
        twin = copy(self)
        twin.network = network
        twin._pair_stats = None
        twin._columns.check_hosts(network.has_host)
        return twin

    # -- basic accessors ----------------------------------------------------

    def __len__(self) -> int:
        return len(self._columns)

    def __iter__(self) -> Iterator[FlowRecord]:
        return iter(self.flows)

    @property
    def flows(self) -> Sequence[FlowRecord]:
        """The time-sorted flow records (minted on first access, then shared)."""
        if self._flows is None:
            self._flows = self._columns.records()
        return self._flows

    def columns(self) -> FlowChunk:
        """The whole trace as the one :class:`FlowChunk` it holds: no copy, no record."""
        return self._columns

    @property
    def total_flows(self) -> int:
        """Number of flow arrivals (the stream-protocol spelling)."""
        return len(self._columns)

    @property
    def duration(self) -> float:
        """Time of the last flow arrival (0 for an empty trace)."""
        return self._columns.start_times[-1] if len(self._columns) else 0.0

    def flow_count(self) -> int:
        """Number of flow arrivals in the trace."""
        return len(self._columns)

    def chunks(self) -> Iterator[FlowChunk]:
        """The resident chunk, as the stream protocol's one chunk.

        A materialized trace is resident, so presenting it whole costs
        nothing and lets every stream consumer treat traces and streams
        uniformly.
        """
        if len(self._columns):
            yield self._columns

    def window(self, start: float, end: float) -> List[FlowRecord]:
        """Flows whose arrival time falls in ``[start, end)``."""
        if end < start:
            raise TrafficError(f"invalid window [{start}, {end})")
        times = self._columns.start_times
        lo = bisect_left(times, start)
        return self.flows[lo : bisect_left(times, end, lo)]

    # -- derived statistics ---------------------------------------------------

    def _cached_pair_statistics(self) -> TraceStatistics:
        """The single shared pass behind every topology-independent view."""
        if self._pair_stats is None:
            stats = TraceStatistics(self.network, track_pairs=True, track_intensity=False)
            self._pair_stats = stats.observe_all(self.chunks())
        return self._pair_stats

    def statistics(self, *, track_pairs: bool = True) -> TraceStatistics:
        """Accumulate every derived view (intensity included) in one fresh pass."""
        stats = TraceStatistics(self.network, track_pairs=track_pairs)
        return stats.observe_all(self.chunks())

    def pair_activity(self) -> PairActivity:
        """Distinct communicating pairs and the share of the busiest 10 % of pairs."""
        return self._cached_pair_statistics().pair_activity()

    def switch_intensity(self, *, start: float = 0.0, end: Optional[float] = None) -> IntensityMatrix:
        """Build the switch-level intensity matrix for a time window.

        Every flow contributes one unit of intensity between the switches of
        its two endpoints; same-switch flows only register the switch.  The
        matrix is what SGI partitions and what Fig. 6 is computed from.

        ``end=None`` means the window is inclusive of the trace's last
        arrival: a flow arriving exactly at ``duration`` is counted once.
        An explicit ``end`` keeps the usual half-open ``[start, end)``
        semantics.  The matrix reflects host placement at call time, so it
        is accumulated fresh per call rather than cached.
        """
        window_end = float("inf") if end is None else end
        if window_end < start:
            raise TrafficError(f"invalid window [{start}, {window_end})")
        matrix = IntensityMatrix(self.network.switch_ids())
        for chunk in trim_chunks(self.chunks(), start, window_end):
            accumulate_intensity(self.network, chunk, matrix)
        return matrix

    def hourly_flow_counts(self, *, hours: int = 24) -> List[int]:
        """Flow arrivals per hour over the first ``hours`` hours."""
        return self._cached_pair_statistics().hourly_flow_counts(hours=hours)

    def communicating_pairs(self) -> set[tuple[int, int]]:
        """The set of unordered host pairs that exchanged at least one flow."""
        return self._cached_pair_statistics().communicating_pairs()

    def subtrace(self, *, start: float, end: float, name: Optional[str] = None) -> "Trace":
        """A new trace restricted to flows arriving in ``[start, end)``."""
        return Trace(name or f"{self.name}[{start:.0f},{end:.0f})", self.network, self.window(start, end))

    def merged_with(self, other: "Trace", *, name: Optional[str] = None) -> "Trace":
        """Merge two traces defined over the same topology.

        The topologies may be distinct objects as long as they are
        structurally equal (same switches, host placement and tenancy) —
        rebuilding a network from the same spec yields an equal topology,
        and traces over it merge fine.  Genuinely different topologies are
        still rejected.
        """
        if other.network is not self.network and not self.network.structurally_equal(other.network):
            raise TrafficError("cannot merge traces defined over different topologies")
        return Trace(name or f"{self.name}+{other.name}", self.network, list(self.flows) + list(other.flows))
