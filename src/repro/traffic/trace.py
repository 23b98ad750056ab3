"""Trace container.

A :class:`Trace` couples a time-sorted collection of flows with the
:class:`~repro.topology.network.DataCenterNetwork` the hosts live in.  Since
the streaming refactor it is the *materialized convenience wrapper* over the
chunked pipeline: every built-in generator natively emits a
:class:`~repro.traffic.stream.FlowStream`, and :meth:`Trace.from_stream`
(or passing the stream straight to the constructor) keeps its flows for
callers that want random access.

However it was built, a trace holds one
:class:`~repro.traffic.chunk.FlowChunk` — the one resident form of its flows.
A generated stream lands each window in its slice of six columns sized for
the whole trace (:meth:`GeneratedStream.gathered
<repro.traffic.stream.GeneratedStream.gathered>`; drawn as arrays, it is
written there in place); any other stream's chunks are gathered onto six
growing ``array`` columns (:meth:`FlowChunk.gathered
<repro.traffic.chunk.FlowChunk.gathered>`).  Either way no
:class:`FlowRecord` is built.  A record iterable (a third-party trace
factory's ``Trace(name, network, records)``) is sorted and transposed once,
and keeps its records and their ids.  Every consumer inside the library
reads the chunk — the warm-up intensity fold, the replayer, the vectorized
kernel — through :meth:`Trace.chunks`.  A caller that asks for records (``.flows``, iteration)
has the record list minted once *beside* the columns and shared by every
later call.

A trace is a :class:`~repro.traffic.stream.FlowStreamBase` whose one chunk
is resident, so it folds its switch-level intensity matrix over a time
window (input to the grouping algorithms and to Fig. 6) exactly as every
stream does.  The matrix is re-accumulated per call rather than cached,
because it reflects host placement *now*: VM churn moves hosts between
switches mid-replay.
"""

from __future__ import annotations

from copy import copy
from typing import Iterable, Iterator, List, Optional, Sequence

from repro.topology.network import DataCenterNetwork
from repro.traffic.chunk import FlowChunk
from repro.traffic.flow import FlowRecord
from repro.traffic.stream import FlowStream, FlowStreamBase, GeneratedStream


class Trace(FlowStreamBase):
    """A named, time-sorted collection of flow records bound to a topology."""

    def __init__(
        self, name: str, network: DataCenterNetwork, flows: Iterable[FlowRecord] | FlowStream
    ) -> None:
        self.name = name
        self.network = network
        generated = isinstance(flows, GeneratedStream)
        if generated:
            self._columns = flows.gathered()
        else:
            # A record iterable enters as a one-chunk stream: not a
            # column-backed run, so ``gathered`` sorts and adapts it.
            chunks = flows.chunks() if hasattr(flows, "chunks") else (flows,)
            self._columns = FlowChunk.gathered(chunks)
        # The cache of minted records, once somebody asked.
        self._flows: Optional[List[FlowRecord]] = None
        # A generated stream has checked every chunk against its network's hosts.
        if not (generated and flows.network is network):
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

    def chunks(self) -> Iterator[FlowChunk]:
        """The resident chunk, as the stream protocol's one chunk.

        A materialized trace is resident, so presenting it whole costs
        nothing and lets every stream consumer treat traces and streams
        uniformly.
        """
        if len(self._columns):
            yield self._columns
