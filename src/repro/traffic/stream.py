"""Bounded-memory flow streams: the chunked trace pipeline.

A :class:`FlowStream` is the lazy counterpart of a materialized
:class:`~repro.traffic.trace.Trace`: a re-iterable sequence of time-ordered
*chunks* of flows, bound to a topology and carrying its nominal
``total_flows`` and ``duration`` up front.  The traffic generators emit
streams natively, the replayer drains them chunk by chunk, and ``Trace`` is
just the convenience consumer that keeps every chunk — so a multi-million-flow
replay never holds more than one chunk (plus the control plane under test) in
memory.

A chunk is a :class:`~repro.traffic.chunk.FlowChunk`: six columns, which
build a :class:`~repro.traffic.flow.FlowRecord` only for the flows a consumer
indexes or iterates.  A :class:`GeneratedStream`'s emitter hands each chunk
over as six lists in draw order (a :data:`ChunkEmitter`), and the stream
gathers them into replay order through one permutation — no flow is ever a
tuple on the way.  Every built-in stream yields them, and every consumer
is handed them: :func:`windowed_chunks` is the one boundary, where a
third-party stream's record-list chunk enters through
:meth:`FlowChunk.from_records <repro.traffic.chunk.FlowChunk.from_records>`,
its records' ids intact.

The contract every stream upholds:

* **chunks are time-ordered** — flows within a chunk are sorted by
  ``(start_time, src, dst, payload)`` and every flow in chunk ``n+1`` starts
  at or after every flow in chunk ``n``;
* **flow ids are assigned in emission order** — chunk concatenation yields
  ids ``0..n-1`` ascending, which is exactly the canonical order the
  materialized path produces;
* **re-iterable** — :meth:`FlowStream.chunks` can be called repeatedly and
  regenerates the identical sequence (generation is a pure function of the
  stream's parameters), which is what lets the runner compute a warm-up
  intensity matrix and then replay from the top without buffering;
* **deterministic per-chunk seeding** — each chunk of a generated stream
  draws from ``make_rng(seed, label, "chunk", index)``, so chunk ``k`` can
  be produced without generating chunks ``0..k-1``'s flows, and the chunk
  grid is a pure function of the generation params (never a runtime knob —
  otherwise two runs with different chunk sizes would diverge).
"""

from __future__ import annotations

import copy
import heapq
from array import array
from bisect import bisect_left
from dataclasses import dataclass
from itertools import islice
from operator import eq, itemgetter
from typing import (
    TYPE_CHECKING,
    Callable,
    Iterable,
    Iterator,
    List,
    Optional,
    Protocol,
    Sequence,
    Tuple,
    runtime_checkable,
)

from repro.common.errors import TrafficError
from repro.common.rng import make_rng
from repro.datastructures.intensity import IntensityMatrix
from repro.topology.network import DataCenterNetwork
from repro.traffic.chunk import COLUMN_TYPECODES, FlowChunk, FlowDraw
from repro.traffic.flow import FlowRecord

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (trace imports stream)
    from repro.traffic.trace import Trace

#: Target flows per generated chunk.  A model constant, deliberately not a
#: runtime knob: the chunk grid feeds the per-chunk RNG derivation, so making
#: it configurable would let two "identical" runs produce different traces.
CHUNK_TARGET_FLOWS = 50_000


@runtime_checkable
class FlowStream(Protocol):
    """Anything that can produce a trace as time-ordered chunks."""

    name: str
    network: DataCenterNetwork

    @property
    def total_flows(self) -> int:
        """Nominal number of flows the stream will emit."""
        ...

    @property
    def duration(self) -> float:
        """Nominal timeline length in seconds."""
        ...

    def chunks(self) -> Iterator[Sequence[FlowRecord]]:
        """Yield the flows as time-ordered chunks (re-iterable).

        Flow chunks; a third-party stream may yield plain record lists, which
        :func:`windowed_chunks` adapts.
        """
        ...


# -- the switch-level intensity fold ---------------------------------------------


def accumulate_intensity(
    network: DataCenterNetwork,
    chunk: FlowChunk,
    matrix: Optional[IntensityMatrix] = None,
) -> IntensityMatrix:
    """Fold a chunk's endpoint columns into a switch-level intensity matrix.

    What the warm-up grouping and the Fig. 6 analysis read of a trace: every
    flow is one unit of intensity between its endpoints' switches.
    """
    if matrix is None:
        matrix = IntensityMatrix(network.switch_ids())
    pair_of = network.switch_pair_of_hosts
    record = matrix.record
    for src_host_id, dst_host_id in zip(chunk.src_host_ids, chunk.dst_host_ids):
        src_switch, dst_switch = pair_of(src_host_id, dst_host_id)
        record(src_switch, dst_switch, 1.0)
    return matrix


# -- chunk planning ------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class ChunkWindow:
    """One planned chunk: a half-open time window plus per-category counts.

    Most models draw one category of flows; models that layer several flow
    populations with different time supports (incast's hotspot burst over its
    background) carry one count per category.
    """

    index: int
    start: float
    end: float
    counts: Tuple[int, ...]

    @property
    def flow_count(self) -> int:
        """Total flows planned for this chunk across all categories."""
        return sum(self.counts)

    @property
    def span(self) -> float:
        """Window length in seconds."""
        return self.end - self.start


def allocate_counts(total: int, weights: Sequence[float]) -> List[int]:
    """Split ``total`` across ``weights`` exactly, by largest remainder.

    Floors every proportional share and hands the leftover units to the
    largest fractional parts (ties broken by position), so the result is a
    pure function of ``(total, weights)`` and always sums to ``total``.

    ``repro.traffic.mix._component_flow_counts`` is the same algorithm with
    a different determinism contract (fsum-normalized shares, fingerprint
    tie-break) because mixes must additionally be invariant under component
    reordering; here position *is* the identity (windows never reorder), and
    the result feeds the per-chunk RNG grid, so the arithmetic must never
    change.  Keep the two in sync deliberately, not accidentally.
    """
    weight_sum = sum(weights)
    if weight_sum <= 0 or total <= 0:
        return [0] * len(weights)
    shares = [total * weight / weight_sum for weight in weights]
    counts = [int(share) for share in shares]
    leftover = total - sum(counts)
    by_remainder = sorted(range(len(shares)), key=lambda i: (counts[i] - shares[i], i))
    for index in by_remainder[:leftover]:
        counts[index] += 1
    return counts


def subdivide_span(
    start: float,
    end: float,
    flow_count: int,
    *,
    target_flows: int = CHUNK_TARGET_FLOWS,
) -> List[Tuple[float, float]]:
    """Split ``[start, end)`` into equal sub-windows sized for ``flow_count``.

    Produces ``ceil(flow_count / target_flows)`` consecutive windows (at
    least one), with the final window's end pinned to ``end`` exactly so
    float step accumulation never leaks past the span.  This is the one
    chunk-grid subdivision every generator shares — the grid feeds the
    per-chunk RNG derivation, so there must be exactly one implementation.
    """
    parts = max(1, -(-flow_count // max(1, target_flows)))  # ceil division
    step = (end - start) / parts
    return [
        (start + part * step, end if part == parts - 1 else start + (part + 1) * step)
        for part in range(parts)
    ]


def plan_windows(
    spans: Sequence[Tuple[float, float, float]],
    total_flows: int,
    *,
    target_flows: int = CHUNK_TARGET_FLOWS,
) -> List[ChunkWindow]:
    """Plan the chunk grid over weighted time spans.

    ``spans`` lists ``(start, end, weight)`` segments of the timeline (hours
    of a diurnal day, phases of a shuffle, or just the whole duration).
    Every span receives flows in proportion to its weight; spans whose
    allocation exceeds ``target_flows`` are subdivided into equal sub-windows
    so no chunk is expected to hold more than roughly ``target_flows`` flows.
    """
    span_counts = allocate_counts(total_flows, [weight for _, _, weight in spans])
    windows: List[ChunkWindow] = []
    index = 0
    for (start, end, _), count in zip(spans, span_counts):
        bounds = subdivide_span(start, end, count, target_flows=target_flows)
        part_counts = allocate_counts(count, [1.0] * len(bounds))
        for (part_start, part_end), part_count in zip(bounds, part_counts):
            windows.append(
                ChunkWindow(index=index, start=part_start, end=part_end, counts=(part_count,))
            )
            index += 1
    return windows


def uniform_spans(duration_seconds: float) -> List[Tuple[float, float, float]]:
    """The degenerate span list for a uniform-rate model: one flat segment."""
    return [(0.0, duration_seconds, 1.0)]


# -- stream implementations ----------------------------------------------------


class FlowStreamBase:
    """What every stream shares, the resident :class:`Trace` too: iteration, warm-up fold, materialization."""

    name: str
    network: DataCenterNetwork

    def chunks(self) -> Iterator[Sequence[FlowRecord]]:
        raise NotImplementedError

    @property
    def total_flows(self) -> int:
        raise NotImplementedError

    @property
    def duration(self) -> float:
        raise NotImplementedError

    def __iter__(self) -> Iterator[FlowRecord]:
        for chunk in self.chunks():
            yield from chunk

    def switch_intensity(self, *, start: float = 0.0, end: Optional[float] = None) -> IntensityMatrix:
        """The switch-level intensity matrix over ``[start, end)``, in one pass.

        Every flow contributes one unit of intensity between the switches of
        its two endpoints; same-switch flows only register the switch.
        ``end=None`` includes the last arrival.  This is the warm-up fold of
        a control plane's ``prepare``, from a materialized trace and a lazy
        stream alike.  Generation stops at the first chunk past ``end``, so a
        warm-up window only ever generates its own chunks.
        """
        if end is not None and end < start:
            raise TrafficError(f"invalid window [{start}, {end})")
        matrix = IntensityMatrix(self.network.switch_ids())
        for chunk in windowed_chunks(self, start=start, end=end):
            accumulate_intensity(self.network, chunk, matrix)
        return matrix

    def materialize(self, *, name: Optional[str] = None) -> "Trace":
        """Collect the whole stream into a materialized :class:`Trace`."""
        from repro.traffic.trace import Trace

        return Trace(name or self.name, self.network, self)


#: Produces one chunk's flows: ``(rng, window) -> six lists`` in draw order —
#: start times, sources, destinations, packets, bytes, durations.
ChunkEmitter = Callable[..., Sequence[List]]

class ArrayEmitter(Protocol):
    """Draws one chunk's flows in numpy, byte-identical to the model's :data:`ChunkEmitter`.

    It may draw past the chunk's flows from ``rng``: each chunk's ``rng`` is
    its own.
    """

    def draw(self, rng, window: ChunkWindow) -> Sequence:
        """The window's flows in draw order, as columns of one length."""
        ...

    def place(self, drawn: Sequence, first_id: int, out: Optional[Sequence] = None) -> FlowChunk:
        """``drawn`` as a replay-ordered, validated chunk, written into ``out`` if given.

        ``out`` is six writable buffers of the drawn length; without it the
        chunk's columns are fresh.
        """
        ...


def in_replay_order(columns: Sequence[Sequence]) -> Sequence[Sequence]:
    """One chunk's columns, gathered into replay order through one permutation.

    The permutation sorts the row indices by start time.  Only when two
    start times tie does it fall back to the whole ``(time, src, dst,
    packets, bytes, duration)`` row as the key, so the order is exactly that
    of sorting the rows as tuples: distinct times decide alone, and the sort
    is stable, so rows equal in every column keep their draw order either
    way.
    """
    times = columns[0]
    if len(times) < 2:
        # Already in order (and itemgetter of one index returns the item, not a tuple).
        return columns
    pick = itemgetter(*sorted(range(len(times)), key=times.__getitem__))
    ordered_times = pick(times)
    if any(map(eq, ordered_times, islice(ordered_times, 1, None))):
        rows = list(zip(*columns))
        pick = itemgetter(*sorted(range(len(rows)), key=rows.__getitem__))
        return [pick(column) for column in columns]
    return [ordered_times, *(pick(column) for column in columns[1:])]


def per_distinct(function: Callable, column: Sequence) -> List:
    """``[function(value) for value in column]``, calling ``function`` once per distinct value.

    For an emitter's derived columns (a duration from a packet count): a few
    hundred distinct values cover a chunk of tens of thousands of flows.
    """
    return list(map({value: function(value) for value in set(column)}.__getitem__, column))


class GeneratedStream(FlowStreamBase):
    """A stream produced chunk-by-chunk from a planned window grid.

    ``emit(rng, window)`` returns the chunk's six columns in draw order (see
    :data:`ChunkEmitter`); the stream checks the emitter drew what the grid
    planned and gathers the columns into replay order through one
    permutation (:func:`in_replay_order`), into a
    :class:`~repro.traffic.chunk.FlowChunk` whose position implies the
    ascending flow ids.  ``FlowRecord``'s own checks and the hosts-exist
    check run on the chunk's columns, so a faulty emitter fails here exactly
    as it did when every draw became a record — and no record is built
    until a consumer asks for one.

    A model may also offer ``array_emitter``, a zero-argument factory of an
    :class:`ArrayEmitter` that draws the same chunks in numpy;
    :meth:`drawn_as_arrays` is the stream that uses it (``kernel=vectorized``).
    """

    def __init__(
        self,
        name: str,
        network: DataCenterNetwork,
        windows: Sequence[ChunkWindow],
        emit: ChunkEmitter,
        *,
        seed: int,
        rng_label: str | Tuple[str, ...],
        duration: float,
        array_emitter: Optional[Callable[[], ArrayEmitter]] = None,
    ) -> None:
        self.name = name
        self.network = network
        self._windows = list(windows)
        self._emit = emit
        self._array_emitter = array_emitter
        self._arrays: Optional[ArrayEmitter] = None
        self._seed = seed
        self._rng_labels = (rng_label,) if isinstance(rng_label, str) else tuple(rng_label)
        self._duration = duration
        self._total_flows = sum(window.flow_count for window in self._windows)
        # Chunks are checked against the hosts the stream was generated over,
        # not the live network: churn may remove hosts mid-replay, and their
        # flows are the replay's to skip and count, as on a materialized trace.
        self._host_ids = frozenset(host.host_id for host in network.hosts())

    @property
    def total_flows(self) -> int:
        return self._total_flows

    @property
    def duration(self) -> float:
        return self._duration

    def chunks(self) -> Iterator[FlowChunk]:
        return self.chunks_from(0.0)

    def drawn_as_arrays(self) -> "GeneratedStream":
        """This stream with its chunks drawn by the model's array emitter, if it has one.

        The chunks are byte-identical either way; only what draws them
        changes.  Without an array emitter the stream itself is returned.
        """
        if self._array_emitter is None:
            return self
        stream = copy.copy(self)
        stream._arrays = self._array_emitter()
        return stream

    def chunks_from(self, start: float, end: Optional[float] = None) -> Iterator[FlowChunk]:
        """Chunks that may contain flows in ``[start, end)``, ids intact.

        Windows ending strictly before ``start`` are *skipped without
        generating*: their planned ``flow_count`` is added to the flow-id
        cursor instead, which is valid because every emitter draws exactly
        its window's planned counts — checked on every window that *is*
        generated, so a model that over- or under-draws fails loudly instead
        of shifting every later flow id under time-window sharding.  This
        makes a time-window shard's replay cost proportional to its own
        window rather than to the whole timeline before it.  The boundary
        window (``end == start``) is still generated — an emitter may draw
        an arrival exactly on its window's end edge, and ownership of that
        instant belongs to the consumer's trimming, not to the generator.

        Generation stops at the first window starting at or past ``end``
        (``None``: never), which is valid because no emitter draws an arrival
        before its window's start — checked, likewise, on every window that
        is generated — so a consumer of ``[start, end)`` never pays for a
        chunk it would trim away whole.
        """
        return self._generated(start, end)

    def gathered(self) -> FlowChunk:
        """Every flow of the stream as one resident chunk, ids from 0.

        Each window lands in its slice of six columns sized for
        :attr:`total_flows` up front (every window draws its planned count,
        checked before it lands): an array emitter writes it there in place,
        a Python emitter's chunk is copied there, and no column ever grows.
        Should a window start before the one before it ends (an emitter that
        drew past its window's end), the chunks are gathered as any stream's
        out-of-order chunks are (:meth:`FlowChunk.gathered`).
        """
        resident = tuple(array(typecode, [0]) * self._total_flows for typecode in COLUMN_TYPECODES)
        last_time = float("-inf")
        for chunk in self._generated(0.0, None, tuple(map(memoryview, resident))):
            if chunk.start_times[0] < last_time:
                return FlowChunk.gathered(self.chunks())
            last_time = chunk.start_times[-1]
        return FlowChunk.from_buffers(resident)

    def _generated(
        self, start: float, end: Optional[float], resident: Optional[Sequence[memoryview]] = None
    ) -> Iterator[FlowChunk]:
        """:meth:`chunks_from`, each chunk also landing in its slice of ``resident`` if given."""
        flow_id = 0
        for window in self._windows:
            if window.flow_count <= 0:
                continue
            if window.end < start:
                flow_id += window.flow_count
                continue
            if end is not None and window.start >= end:
                return
            rng = make_rng(self._seed, *self._rng_labels, "chunk", str(window.index))
            out = None
            if resident is not None:
                out = [column[flow_id : flow_id + window.flow_count] for column in resident]
            if self._arrays is None:
                columns = self._emit(rng, window)
                self._check_drawn(window, len(columns[0]))
                if len(columns) != len(COLUMN_TYPECODES) or any(
                    len(column) != len(columns[0]) for column in columns
                ):
                    raise TrafficError(
                        f"traffic model {self._rng_labels[0]!r} (stream {self.name!r}) returned "
                        f"columns of lengths {[len(column) for column in columns]} for window "
                        f"{window.index}; an emitter returns six columns of one length"
                    )
                columns = in_replay_order(columns)
                self._check_first_arrival(window, columns[0][0])
                chunk = FlowChunk.from_columns(columns, flow_id)
                for place, column in zip(out or (), chunk.columns()):
                    place[:] = column
            else:
                drawn = self._arrays.draw(rng, window)
                self._check_drawn(window, len(drawn[0]))
                chunk = self._arrays.place(drawn, flow_id, out)
                # The draw-order scratch goes before the consumer takes the chunk.
                del drawn
                self._check_first_arrival(window, chunk.start_times[0])
            chunk.check_hosts(self._host_ids.__contains__)
            flow_id += window.flow_count
            yield chunk

    def _check_drawn(self, window: ChunkWindow, drawn: int) -> None:
        if drawn != window.flow_count:
            raise TrafficError(
                f"traffic model {self._rng_labels[0]!r} (stream {self.name!r}) drew "
                f"{drawn} flows for window {window.index} "
                f"[{window.start}, {window.end}), which planned {window.flow_count}"
            )

    def _check_first_arrival(self, window: ChunkWindow, first: float) -> None:
        if first < window.start:
            raise TrafficError(
                f"traffic model {self._rng_labels[0]!r} (stream {self.name!r}) drew an "
                f"arrival at {first} for window {window.index} "
                f"[{window.start}, {window.end}), before the window starts"
            )


class MergedStream(FlowStreamBase):
    """A k-way merge of component streams onto one renumbered timeline.

    Each part is ``(stream, offset_seconds, span_seconds)``: the component's
    local timeline is clipped to ``[0, span)`` and shifted by ``offset``
    (its window start).  The merge keeps every component's *current* chunk
    resident plus one output chunk — O(components × chunk) memory, still
    independent of trace length.
    """

    def __init__(
        self,
        name: str,
        network: DataCenterNetwork,
        parts: Sequence[Tuple[FlowStream, float, float]],
        *,
        duration: float,
        chunk_flows: int = CHUNK_TARGET_FLOWS,
    ) -> None:
        self.name = name
        self.network = network
        self._parts = list(parts)
        self._duration = duration
        self._chunk_flows = chunk_flows

    @property
    def total_flows(self) -> int:
        return sum(stream.total_flows for stream, _, _ in self._parts)

    @property
    def duration(self) -> float:
        return self._duration

    @staticmethod
    def _shifted(stream: FlowStream, offset: float, span: float) -> Iterator[FlowDraw]:
        # Models that ignore duration_hours could emit past the component's
        # window; chunks are time-ordered, so the first flow at or past the
        # span ends the component without generating everything after it.
        for chunk in windowed_chunks(stream, end=span):
            draws = zip(*chunk.columns())
            if offset:
                draws = ((draw[0] + offset, *draw[1:]) for draw in draws)
            yield from draws

    def chunks(self) -> Iterator[FlowChunk]:
        # Draws sort canonically — (time, endpoints, payload), the order the
        # materialized mix sorts by — which is what makes the merged stream
        # independent of component order.
        merged = heapq.merge(
            *(self._shifted(stream, offset, span) for stream, offset, span in self._parts)
        )
        flow_id = 0
        while True:
            chunk = FlowChunk.from_draws(islice(merged, self._chunk_flows), flow_id)
            if not chunk:
                break
            flow_id += len(chunk)
            yield chunk
        if flow_id == 0:
            # Every flow was clipped away (or no part had any): fail rather
            # than silently replay nothing.
            raise TrafficError(f"merged stream {self.name!r} produced no flows")


# -- windowed consumption ------------------------------------------------------


def trim_chunks(
    chunks: Iterable[FlowChunk], start: float, end: Optional[float]
) -> Iterator[FlowChunk]:
    """Trim time-ordered chunks to ``[start, end)``, stopping at the first one past it.

    Chunks entirely before ``start`` are skipped, iteration is abandoned at
    the first chunk starting at or past ``end`` (so a lazy source never
    generates beyond the window), and boundary chunks are bisect-trimmed over
    their start-time column into zero-copy views.
    """
    for chunk in chunks:
        if not len(chunk):
            continue
        times = chunk.start_times
        first, last = times[0], times[-1]
        if last < start:
            continue
        if end is not None and first >= end:
            break
        lo = 0
        hi = len(chunk)
        if first < start:
            lo = bisect_left(times, start)
        if end is not None and last >= end:
            hi = bisect_left(times, end, lo)
        if lo == 0 and hi == len(chunk):
            yield chunk
        elif lo < hi:
            yield chunk[lo:hi]


def windowed_chunks(
    source: FlowStream, *, start: float = 0.0, end: Optional[float] = None
) -> Iterator[FlowChunk]:
    """Drain a stream's chunks trimmed to the replay window ``[start, end)``.

    The one place chunks cross from producers to consumers, so also where a
    third-party stream's record-list chunk becomes a :class:`FlowChunk`
    (:meth:`~repro.traffic.chunk.FlowChunk.from_records`: transposed once,
    its records and their ids kept).

    Consuming a sub-window never reads past the first chunk beyond it (see
    :func:`trim_chunks`), and sources that can seek
    (:meth:`GeneratedStream.chunks_from`) generate neither the chunks *before*
    the window nor that one chunk *past* it, which is what makes a
    time-window shard's cost proportional to its own span.
    """
    if hasattr(source, "chunks_from"):
        source_chunks = source.chunks_from(start, end)
    else:
        source_chunks = source.chunks()
    return trim_chunks(map(FlowChunk.from_records, source_chunks), start, end)
