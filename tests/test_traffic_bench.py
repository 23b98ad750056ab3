"""Micro-benchmarks for chunk generation: columns → ordered chunk → records on demand.

``pytest-benchmark`` times the four steps one 50 000-flow chunk of the
realistic model can go through — the emit loop (six columns in draw order),
the stream's own ordering and gathering (:func:`~repro.traffic.stream.in_replay_order`)
plus the validating :meth:`~repro.traffic.chunk.FlowChunk.from_columns`,
minting every record (what a scalar replay pays), and handing the columns to
numpy (what the vectorized kernel pays instead).  Like ``test_kernel_bench.py``
these are for profiling regressions locally (``pytest
tests/test_traffic_bench.py --benchmark-only``); in a plain test run each step
executes once as a smoke test.
"""

import pytest

from repro.common.rng import make_rng
from repro.core.presets import get_preset
from repro.traffic.chunk import FlowChunk
from repro.traffic.flow import FlowRecord
from repro.traffic.realistic import RealisticTraceGenerator, RealisticTraceProfile
from repro.traffic.stream import CHUNK_TARGET_FLOWS, ChunkWindow, in_replay_order

CHUNK_FLOWS = CHUNK_TARGET_FLOWS
SEED = 7


@pytest.fixture(scope="module")
def emitter():
    """The realistic model's emit closure over the paper-fig7 topology, one window."""
    network = next(iter(get_preset("paper-fig7").specs())).build_network()
    stream = RealisticTraceGenerator(
        network, RealisticTraceProfile(total_flows=CHUNK_FLOWS, seed=SEED)
    ).stream()
    window = ChunkWindow(index=0, start=0.0, end=3600.0, counts=(CHUNK_FLOWS,))
    return stream._emit, window


def _columns(emitter):
    emit, window = emitter
    return emit(make_rng(SEED, "bench", "chunk", "0"), window)


@pytest.fixture(scope="module")
def chunk(emitter):
    return FlowChunk.from_columns(in_replay_order(_columns(emitter)))


def test_emit_one_chunk(emitter, benchmark):
    columns = benchmark(_columns, emitter)
    assert [len(column) for column in columns] == [CHUNK_FLOWS] * 6


def test_order_and_gather_one_chunk(emitter, benchmark):
    """One permutation + gather + column-wise validation: draw-order columns in, FlowChunk out."""
    columns = _columns(emitter)

    def build():
        return FlowChunk.from_columns(in_replay_order(columns), first_id=1000)

    built = benchmark(build)
    assert len(built) == CHUNK_FLOWS and built.first_id == 1000
    assert built.start_times.tolist() == sorted(columns[0])
    assert list(built) == [
        FlowRecord(draw[0], 1000 + offset, *draw[1:])
        for offset, draw in enumerate(sorted(zip(*columns)))
    ]


def test_mint_all_records(chunk, benchmark):
    """What a trace pays once to become a record list (values shared, list kept)."""
    records = benchmark(chunk.records)
    assert len(records) == CHUNK_FLOWS
    assert isinstance(records[0], FlowRecord) and records[-1].flow_id == CHUNK_FLOWS - 1
    assert records == list(chunk)


def test_columns_as_numpy_views(chunk, benchmark):
    np = pytest.importorskip("numpy")

    def wrap():
        times, src, dst, packets, _, _ = chunk.columns()
        return (
            np.frombuffer(times, dtype=np.float64),
            np.frombuffer(src, dtype=np.int64),
            np.frombuffer(dst, dtype=np.int64),
            np.frombuffer(packets, dtype=np.int64),
        )

    views = benchmark(wrap)
    assert all(len(view) == CHUNK_FLOWS for view in views)
    # Zero-copy and read-only: the arrays alias the chunk's buffers.
    assert not any(view.flags.owndata or view.flags.writeable for view in views)
    assert views[0][0] == chunk.start_times[0] and views[3][-1] == chunk[-1].packet_count
