"""Trace container and trace-level statistics.

A :class:`Trace` couples a time-sorted collection of flows with the
:class:`~repro.topology.network.DataCenterNetwork` the hosts live in.  Since
the streaming refactor it is the *materialized convenience wrapper* over the
chunked pipeline: every built-in generator natively emits a
:class:`~repro.traffic.stream.FlowStream`, and :meth:`Trace.from_stream`
(or passing the stream straight to the constructor) keeps its flows for
callers that want random access.

A trace built from a generated stream is *column-born*: the constructor
appends each arriving chunk's six buffers onto six growing ``array`` columns
and ends holding one :class:`~repro.traffic.chunk.FlowChunk` — the one
resident form of its flows from then on, and no
:class:`FlowRecord` at all.  Column consumers read it as it is: the warm-up
intensity fold, the vectorized kernel and the scalar replay of a sink that
takes columns, all through :meth:`Trace.columns`.  A caller that asks for
records (``.flows``, iteration, ``chunks()``, ``window`` — the analysis views,
``expand``, ``subtrace``) has the record list minted once *beside* the
columns and shared by every later call; the columns stay.  A trace built from
a record iterable holds that sorted list, and transposes it for a column
consumer on request.

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

from array import array
from bisect import bisect_left
from copy import copy
from dataclasses import dataclass
from itertools import chain, islice
from operator import le
from typing import Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.common.errors import TrafficError
from repro.datastructures.intensity import IntensityMatrix
from repro.topology.network import DataCenterNetwork
from repro.traffic.chunk import COLUMN_TYPECODES, FlowChunk, start_time_of
from repro.traffic.flow import FlowRecord
from repro.traffic.stream import FlowStream, TraceStatistics, accumulate_intensity, trim_chunks


@dataclass(frozen=True, slots=True)
class PairActivity:
    """Summary of how concentrated the traffic is across host pairs."""

    total_flows: int
    distinct_pairs: int
    top_decile_share: float


def _continues_run(chunk: Sequence[FlowRecord], next_id: Optional[int], last_time: float) -> bool:
    """Whether ``chunk`` is a minting chunk continuing a run in trace order.

    Trace order is ``(start_time, flow_id)``.  A run whose ids ascend by one
    and whose start times never decrease is already in it — sorting would be
    the identity — which is the canonical order every built-in stream emits.
    """
    if not (isinstance(chunk, FlowChunk) and chunk.mints_records):
        return False
    if next_id is not None and chunk.first_id != next_id:
        return False
    times = chunk.start_times
    return times[0] >= last_time and all(map(le, times, islice(times, 1, None)))


def _gather_run(
    chunks: Iterable[Sequence[FlowRecord]],
) -> Tuple[FlowChunk, Optional[Iterator[FlowRecord]]]:
    """Append a stream's chunks onto six growing columns while they form one run.

    Returns the run as one chunk, and ``None`` when that is the whole stream;
    otherwise the flows of the chunk that broke the run (a third-party
    stream's record list, an unsorted chunk, an id gap) and of every chunk
    after it.
    """
    columns = tuple(array(typecode) for typecode in COLUMN_TYPECODES)
    first_id, next_id = 0, None
    last_time = float("-inf")
    rest = None
    chunks = iter(chunks)
    for chunk in chunks:
        if not len(chunk):
            continue
        if not _continues_run(chunk, next_id, last_time):
            rest = chain(chunk, chain.from_iterable(chunks))
            break
        if next_id is None:
            first_id = chunk.first_id
        next_id = chunk.first_id + len(chunk)
        last_time = chunk.start_times[-1]
        for column, part in zip(columns, chunk.columns()):
            column.frombytes(part.cast("B"))
        # Let go before the stream generates the next chunk, so no flow is
        # resident twice while that chunk's draws are.
        del chunk, part
    run = FlowChunk(tuple(memoryview(column).toreadonly() for column in columns), first_id)
    return run, rest


class Trace:
    """A named, time-sorted collection of flow records bound to a topology."""

    def __init__(
        self, name: str, network: DataCenterNetwork, flows: Iterable[FlowRecord] | FlowStream
    ) -> None:
        self.name = name
        self.network = network
        self._pair_stats: Optional[TraceStatistics] = None
        # Column-born: the columns, and the record list once somebody asked.
        # Record-born: the sorted record list alone.
        self._columns: Optional[FlowChunk] = None
        self._flows: Optional[List[FlowRecord]] = None
        if hasattr(flows, "chunks"):
            run, flows = _gather_run(flows.chunks())
            if flows is None:
                self._columns = run
                self._count = len(run)
                self._duration = run.start_times[-1] if run else 0.0
                self._check_hosts()
                return
            flows = chain(run, flows)
        self._flows = sorted(flows)
        self._count = len(self._flows)
        self._duration = self._flows[-1].start_time if self._flows else 0.0
        self._check_hosts()

    def _check_hosts(self) -> None:
        """Fail fast on flows referencing hosts outside the topology."""
        if self._columns is not None:
            self._columns.check_hosts(self.network)
            return
        for flow in self._flows:
            self.network.host(flow.src_host_id)
            self.network.host(flow.dst_host_id)

    @classmethod
    def from_stream(cls, stream: FlowStream, *, name: Optional[str] = None) -> "Trace":
        """Materialize a chunked flow stream into a trace."""
        return cls(name or stream.name, stream.network, stream)

    def bound_to(self, network: DataCenterNetwork) -> "Trace":
        """The same flows over another copy of the topology, resident once.

        What a replay under churn needs — churn mutates the network, so every
        system starts from its own pristine copy.  The new trace shares this
        one's columns (or record list) instead of sorting and holding its own;
        ``network`` must hold every endpoint, checked as at construction.
        """
        twin = copy(self)
        twin.network = network
        twin._pair_stats = None
        twin._check_hosts()
        return twin

    # -- basic accessors ----------------------------------------------------

    def __len__(self) -> int:
        return self._count

    def __iter__(self) -> Iterator[FlowRecord]:
        return iter(self.flows)

    @property
    def flows(self) -> Sequence[FlowRecord]:
        """The time-sorted flow records (minted on first access, then shared)."""
        if self._flows is None:
            self._flows = self._columns.records()
        return self._flows

    def columns(self) -> FlowChunk:
        """The whole trace as one :class:`FlowChunk`, for column consumers.

        A column-born trace hands out the chunk it holds, copying nothing and
        building no record; a record-born one transposes its records.  One
        chunk, not several, so a replay batches a materialized trace the same
        way whichever representation it reads.
        """
        if self._columns is None:
            return FlowChunk.from_records(self._flows)
        return self._columns

    @property
    def total_flows(self) -> int:
        """Number of flow arrivals (the stream-protocol spelling)."""
        return self._count

    @property
    def duration(self) -> float:
        """Time of the last flow arrival (0 for an empty trace)."""
        return self._duration

    def flow_count(self) -> int:
        """Number of flow arrivals in the trace."""
        return self._count

    def chunks(self) -> Iterator[Sequence[FlowRecord]]:
        """The whole trace as a single chunk of records (the stream protocol).

        A materialized trace is resident, so presenting it as one chunk
        costs nothing and lets every stream consumer treat traces and
        streams uniformly.  The chunk is the shared record list; a consumer
        that reads columns asks for :meth:`columns` instead
        (:func:`~repro.traffic.stream.windowed_chunks` does, when told to).
        """
        if self._count:
            yield self.flows

    def window(self, start: float, end: float) -> List[FlowRecord]:
        """Flows whose arrival time falls in ``[start, end)``."""
        if end < start:
            raise TrafficError(f"invalid window [{start}, {end})")
        flows = self.flows
        lo = bisect_left(flows, start, key=start_time_of)
        hi = bisect_left(flows, end, lo, key=start_time_of)
        return flows[lo:hi]

    # -- derived statistics ---------------------------------------------------

    def _cached_pair_statistics(self) -> TraceStatistics:
        """The single shared pass behind every topology-independent view."""
        if self._pair_stats is None:
            stats = TraceStatistics(self.network, track_pairs=True, track_intensity=False)
            self._pair_stats = stats.observe_all(self.flows)
        return self._pair_stats

    def statistics(self, *, track_pairs: bool = True) -> TraceStatistics:
        """Accumulate every derived view (intensity included) in one fresh pass."""
        stats = TraceStatistics(self.network, track_pairs=track_pairs)
        return stats.observe_all(self.flows)

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
        is accumulated fresh per call rather than cached.  A column-born trace
        folds its endpoint columns and builds no record for it.
        """
        window_end = float("inf") if end is None else end
        if window_end < start:
            raise TrafficError(f"invalid window [{start}, {window_end})")
        whole = self._columns if self._columns is not None else self._flows
        matrix = IntensityMatrix(self.network.switch_ids())
        for chunk in trim_chunks((whole,), start, window_end):
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
