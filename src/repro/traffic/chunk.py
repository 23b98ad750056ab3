"""Columnar flow chunks: a run of flows held as six parallel columns.

A generated trace is born as *columns* — six lists (start times, sources,
destinations, packets, bytes, durations) that an emitter appends to flow by
flow — and most of its flows are only ever read column by column: the
replayer bisects the start times, the warm-up grouping folds the endpoint
columns into an intensity matrix, and the vectorized kernel classifies whole
(src, dst) pairs in numpy.  :class:`FlowChunk` keeps the columns as six
stdlib ``array`` buffers and builds a :class:`~repro.traffic.flow.FlowRecord`
only when somebody indexes or iterates it, so the flows a consumer never
looks at one by one never cost an object each.

The data flow is therefore *columns → arrays → (records on demand)*:

* :meth:`FlowChunk.from_columns` is the one validating constructor: it runs
  ``FlowRecord``'s own checks on the replay-ordered lists (same exceptions,
  nothing skipped) before they become arrays.  :meth:`FlowChunk.from_draws`
  is the same for ``(start_time, src, dst, packets, bytes, duration)``
  tuples — transposed, then handed to it — which is what a k-way merge of
  streams produces.  :meth:`FlowChunk.from_buffers` views six buffers
  already checked (an unpickled chunk's bytes, the realistic model's numpy
  columns under ``kernel=vectorized``) without a copy;
* slicing yields a *view* over the same buffers, :attr:`start_times` is
  directly bisectable, and :meth:`columns` hands out the raw buffers — the
  kernel wraps them with ``numpy.frombuffer`` without a copy.  This module
  never imports numpy, so the scalar path stays numpy-free;
* :meth:`FlowChunk.from_records` is where records enter: a third-party
  trace's record list or stream's list chunk is transposed once, and indexing
  returns the original records, ids and all.  Every flow sends its bytes at
  the constant rate its byte count and duration imply, so the six columns
  are all a consumer needs.

A stream's chunks are O(chunk) and short-lived.  A materialized
:class:`~repro.traffic.trace.Trace` is one chunk (:meth:`FlowChunk.gathered`
appends each arriving chunk's buffers onto six growing columns and lets the
chunk go), so a resident flow is held once, as 48 bytes of columns, and
:meth:`FlowChunk.records` mints the record list beside them only for a
caller that asks.
"""

from __future__ import annotations

from array import array
from collections.abc import Sequence as SequenceABC
from itertools import chain, islice
from operator import attrgetter, eq, le
from typing import Callable, Iterable, Iterator, List, Optional, Sequence, Tuple, overload

from repro.common.errors import UnknownHostError
from repro.traffic.flow import FlowRecord

#: A flow before it has an identity: (start_time, src, dst, packets, bytes,
#: duration).  One row of the six columns, and what a k-way merge of streams
#: orders by.
FlowDraw = Tuple[float, int, int, int, int, float]

#: ``array`` typecodes of the six columns, in :data:`FlowDraw` order
#: (float64 / int64 — what ``numpy.frombuffer`` is told to expect).
COLUMN_TYPECODES = ("d", "q", "q", "q", "q", "d")

#: The draw a record was minted from: everything but its flow id.  One
#: record's worth of the six columns, and — being the canonical (time,
#: endpoints, payload) order — the k-way merge key of a traffic mix.
draw_of = attrgetter(
    "start_time", "src_host_id", "dst_host_id", "packet_count", "byte_count", "duration"
)


def _transpose(draws: Iterable[FlowDraw]) -> Tuple[Sequence, ...]:
    """The six columns of an iterable of draws."""
    return tuple(zip(*draws)) or ((),) * len(COLUMN_TYPECODES)


def _frozen(columns: Iterable[Iterable]) -> Tuple[memoryview, ...]:
    """Six read-only array buffers holding six columns."""
    return tuple(
        memoryview(array(typecode, column)).toreadonly()
        for typecode, column in zip(COLUMN_TYPECODES, columns)
    )


def _shared(column: memoryview) -> Iterator:
    """Iterate ``column`` handing out one object per distinct value.

    Reading a buffer builds a fresh int or float per item, so a record list
    minted naively carries private copies of values that repeat all over a
    trace: the two endpoints (which records built straight from the emitters'
    pair tables shared) and the payload sizes and durations derived from a
    small range of packet counts.  That is on the order of 100 bytes per
    flow; sharing them is what keeps a materialized record list no larger
    than it was before chunks (and costs ~0.4 µs a flow, which is why plain
    iteration does not).  Start times and flow ids are unique per flow and
    packet counts are mostly CPython's cached small ints — those columns are
    read as they are.
    """
    return map({value: value for value in set(column)}.__getitem__, column)


def _continues_run(chunk: Iterable[FlowRecord], next_id: Optional[int], last_time: float) -> bool:
    """Whether ``chunk`` is column-backed and carries on a run in trace order."""
    if not (isinstance(chunk, FlowChunk) and chunk.mints_records):
        return False
    if not len(chunk):
        return True
    if next_id is not None and chunk.first_id != next_id:
        return False
    times = chunk.start_times
    return times[0] >= last_time and all(map(le, times, islice(times, 1, None)))


class FlowChunk(SequenceABC):
    """An immutable, time-ordered run of flows backed by six parallel columns.

    Behaves as a ``Sequence[FlowRecord]``: ``len``, indexing and iteration
    work as on the record list it replaces, and a slice is a zero-copy view.
    A chunk built by :meth:`from_columns` holds consecutive flow ids starting
    at :attr:`first_id` and *mints* a validated record per access; a chunk
    built by :meth:`from_records` hands back the records it was given.
    """

    __slots__ = ("_columns", "_first_id", "_records")

    def __init__(
        self,
        columns: Tuple[memoryview, ...],
        first_id: int,
        records: Optional[Sequence[FlowRecord]] = None,
    ) -> None:
        self._columns = columns
        self._first_id = first_id
        self._records = records

    # -- constructors ----------------------------------------------------------

    @classmethod
    def from_columns(cls, columns: Sequence[Sequence], first_id: int = 0) -> "FlowChunk":
        """Six replay-ordered columns as a chunk, validated before they become arrays.

        ``columns`` are (times, src, dst, packets, bytes, durations), in
        replay order (sorted by time, then endpoints and payload); flow ids
        ``first_id, first_id + 1, …`` are implied by position.  Raises
        exactly what building the records one by one would: the
        ``ValueError`` of the first offending flow's first failed
        ``FlowRecord`` check.
        """
        times, src, dst, packets, byte_counts, durations = columns
        if any(len(column) != len(times) for column in columns):
            raise ValueError("the six columns of a flow chunk must have equal lengths")
        if len(times) and (
            min(times) < 0
            or any(map(eq, src, dst))
            or min(packets) <= 0
            or min(byte_counts) <= 0
            or min(durations) <= 0
        ):
            # Something is off somewhere in the chunk: let FlowRecord itself
            # name the first offending flow, as the per-record path did.
            ids = range(first_id, first_id + len(times))
            for _ in map(FlowRecord, times, ids, src, dst, packets, byte_counts, durations):
                pass
        return cls(_frozen(columns), first_id)

    @classmethod
    def from_buffers(cls, buffers: Sequence, first_id: int = 0) -> "FlowChunk":
        """A chunk viewing six C-contiguous buffers of raw column bytes, unvalidated.

        Each buffer is read in place as its column's typecode, so ``bytes``,
        an ``array`` or a numpy array all do, and the chunk keeps it alive.
        For columns already checked as :meth:`from_columns` checks them: a
        chunk unpickling, or an array emitter's replay-ordered draws.
        """
        return cls(
            tuple(
                memoryview(buffer).cast("B").cast(typecode).toreadonly()
                for typecode, buffer in zip(COLUMN_TYPECODES, buffers)
            ),
            first_id,
        )

    @classmethod
    def from_draws(cls, draws: Iterable[FlowDraw], first_id: int = 0) -> "FlowChunk":
        """Replay-ordered draws as a chunk: transposed, then :meth:`from_columns`."""
        return cls.from_columns(_transpose(draws), first_id)

    @classmethod
    def from_records(cls, records: Sequence[FlowRecord]) -> "FlowChunk":
        """Adapt a time-ordered record sequence for a column consumer.

        Returns ``records`` itself when it already is a chunk.  Otherwise the
        columns are transposed from the records (once — not per batch) and
        the records stay the chunk's items, so ids need not be consecutive.
        """
        if isinstance(records, FlowChunk):
            return records
        first_id = records[0].flow_id if len(records) else 0
        return cls(_frozen(_transpose(map(draw_of, records))), first_id, records)

    @classmethod
    def gathered(cls, chunks: Iterable[Iterable[FlowRecord]]) -> "FlowChunk":
        """Every flow of ``chunks`` as one chunk in trace order, ``(start_time, flow_id)``.

        Column-backed chunks whose ids ascend by one and whose start times
        never decrease are already in it — the order every built-in stream
        emits — and have their buffers appended onto six growing columns.
        The first chunk that is anything else (a record list, a chunk holding
        records, an unsorted chunk, an id gap) sends what was collected, that
        chunk and every later one through ``sorted`` as records, adapted once
        by :meth:`from_records` with their ids intact.
        """
        columns = tuple(array(typecode) for typecode in COLUMN_TYPECODES)
        first_id, next_id = 0, None
        last_time = float("-inf")

        def collected() -> "FlowChunk":
            return cls(tuple(memoryview(column).toreadonly() for column in columns), first_id)

        chunks = iter(chunks)
        for chunk in chunks:
            if not _continues_run(chunk, next_id, last_time):
                return cls.from_records(sorted(chain(collected(), chunk, *chunks)))
            if not len(chunk):
                continue
            if next_id is None:
                first_id = chunk._first_id
            next_id = chunk._first_id + len(chunk)
            last_time = chunk.start_times[-1]
            for column, part in zip(columns, chunk._columns):
                column.frombytes(part.cast("B"))
            # Let go before the source generates the next chunk, so no flow
            # is resident twice while that chunk's columns are being drawn.
            del chunk, part
        return collected()

    def __reduce__(self):
        # Buffer views do not pickle, their bytes do: a trace holding columns
        # stays as picklable and deep-copyable as one holding records.
        if self._records is not None:
            return (FlowChunk.from_records, (self._records,))
        return (FlowChunk.from_buffers, ([column.tobytes() for column in self._columns], self._first_id))

    # -- columns ---------------------------------------------------------------

    def columns(self) -> Tuple[memoryview, ...]:
        """The six column buffers (times, src, dst, packets, bytes, durations).

        Read-only ``float64``/``int64`` buffers in :data:`FlowDraw` order;
        ``numpy.frombuffer(column, dtype=...)`` wraps one without copying.
        """
        return self._columns

    @property
    def start_times(self) -> memoryview:
        """The ascending start-time column (directly usable with ``bisect``)."""
        return self._columns[0]

    @property
    def src_host_ids(self) -> memoryview:
        """The source-host column."""
        return self._columns[1]

    @property
    def dst_host_ids(self) -> memoryview:
        """The destination-host column."""
        return self._columns[2]

    @property
    def first_id(self) -> int:
        """Flow id of the first flow (ids are consecutive in a minting chunk)."""
        return self._first_id

    @property
    def mints_records(self) -> bool:
        """Whether access builds new records (column-backed) or returns existing ones."""
        return self._records is None

    def check_hosts(self, has_host: Callable[[int], bool]) -> None:
        """Fail fast on flows referencing a host id ``has_host`` does not know.

        Probes each distinct endpoint once; on a miss, walks the flows in
        order so the error names the same host the per-flow check would.
        """
        src, dst = self.src_host_ids, self.dst_host_ids
        endpoints = set(src)
        endpoints.update(dst)
        if not all(map(has_host, endpoints)):
            for host_id in chain.from_iterable(zip(src, dst)):
                if not has_host(host_id):
                    raise UnknownHostError(f"unknown host {host_id}")

    # -- the sequence protocol -------------------------------------------------

    def __len__(self) -> int:
        return len(self._columns[0])

    def __iter__(self) -> Iterator[FlowRecord]:
        if self._records is not None:
            return iter(self._records)
        times, src, dst, packets, byte_counts, durations = self._columns
        ids = range(self._first_id, self._first_id + len(times))
        return map(FlowRecord, times, ids, src, dst, packets, byte_counts, durations)

    def records(self) -> List[FlowRecord]:
        """Every flow as a record, in a list that is meant to be kept.

        Equal to ``list(chunk)``; what differs is object identity inside the
        records (see :func:`_shared`), which a pass that drops each record
        after use has no reason to pay for and a resident list does.
        """
        if self._records is not None:
            return list(self._records)
        times, src, dst, packets, byte_counts, durations = self._columns
        ids = range(self._first_id, self._first_id + len(times))
        return list(
            map(
                FlowRecord,
                times,
                ids,
                _shared(src),
                _shared(dst),
                packets,
                _shared(byte_counts),
                _shared(durations),
            )
        )

    @overload
    def __getitem__(self, index: int) -> FlowRecord: ...

    @overload
    def __getitem__(self, index: slice) -> "FlowChunk": ...

    def __getitem__(self, index):
        if isinstance(index, slice):
            lo, hi, step = index.indices(len(self))
            if step != 1:
                raise ValueError("a flow chunk only slices to contiguous views (step 1)")
            hi = max(lo, hi)
            return FlowChunk(
                tuple(column[lo:hi] for column in self._columns),
                self._first_id + lo,
                None if self._records is None else self._records[lo:hi],
            )
        if self._records is not None:
            return self._records[index]
        times, src, dst, packets, byte_counts, durations = self._columns
        position = index + len(times) if index < 0 else index
        if not 0 <= position < len(times):
            raise IndexError("flow chunk index out of range")
        return FlowRecord(
            times[position],
            self._first_id + position,
            src[position],
            dst[position],
            packets[position],
            byte_counts[position],
            durations[position],
        )

    def __repr__(self) -> str:
        backing = "columns" if self._records is None else "records"
        return f"FlowChunk({len(self)} flows from id {self._first_id}, {backing})"
