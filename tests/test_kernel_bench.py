"""Micro-benchmarks for the columnar kernel's primitives, plus the float
contract they lean on.

``pytest-benchmark`` times the two array-heavy stages in isolation —
``_classify`` (pair grouping over a chunk's columns, one ``classify_run`` per
pair, the hazard guards) and ``_accumulate`` (one ``apply_run``/``settle_run``
per decided pair, then the latency/intensity/timeline folds) — on a real
lazyctrl-dynamic plane warmed with the paper-fig7 trace, and the ordered
``_walk`` at its worst: a cold-table batch in which every pair punts
(``EdgePlane.first_packet`` per flow: switch, controller, rule install, then
the repeats' table hits), on the baseline and on LazyCtrl.  These numbers are
for profiling regressions locally (``pytest tests/test_kernel_bench.py
--benchmark-only``); in a plain test run each stage executes once as a
smoke test, so CI cost stays negligible.

The hypothesis test at the bottom pins the arithmetic identity the
timeline fold depends on: ``np.floor_divide`` over float64 must agree with
CPython's ``//`` for every (timestamp, bucket) pair the replay can produce.
If that ever breaks on a numpy release, bit-identity breaks with it — and
this is the test that says why.
"""

import math

import pytest

np = pytest.importorskip("numpy")

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.presets import get_preset
from repro.core.registry import get_control_plane
from repro.kernel.columnar import build_kernel
from repro.traffic.chunk import FlowChunk

BATCH_FLOWS = 4096


@pytest.fixture(scope="module")
def fig7():
    """The paper-fig7 spec with its network and trace."""
    spec = next(iter(get_preset("paper-fig7").specs()))
    network = spec.build_network()
    return spec, network, spec.build_trace(network)


@pytest.fixture(scope="module")
def kernel_and_batch(fig7):
    """A lazyctrl-dynamic plane warmed on paper-fig7, plus one real batch."""
    spec, network, trace = fig7
    plane = get_control_plane("lazyctrl-dynamic").build(
        network,
        config=spec.config,
        workload_bucket_seconds=spec.schedule.bucket_seconds,
        latency_bucket_seconds=spec.schedule.bucket_seconds,
    )
    plane.prepare(trace, warmup_end=spec.schedule.warmup_seconds)
    kernel = build_kernel(plane)
    assert kernel is not None
    # The batch the replayer would hand over: a view into the trace's columns.
    return kernel, trace.columns()[:BATCH_FLOWS]


def test_classify_primitive(kernel_and_batch, benchmark):
    """Wrap the columns + classify one batch.  Re-running is safe: _classify only
    reads plane state and warms the pair-static memo."""
    kernel, batch = kernel_and_batch
    state = benchmark(kernel._classify, batch, len(batch))
    assert state is not None
    assert state["n"] == len(batch)


def test_accumulate_primitive(kernel_and_batch, benchmark):
    """Apply one classified batch's decided pairs and fold it into
    latency/intensity/timeline.  Repeats inflate the plane's counters, which
    is fine — this plane is never used for result assertions."""
    kernel, batch = kernel_and_batch
    state = kernel._classify(batch, len(batch))
    assert state is not None
    benchmark(kernel._accumulate, state)


@pytest.mark.parametrize("system", ("openflow", "lazyctrl-dynamic"))
def test_fallback_walk_primitive(system, fig7, benchmark):
    """Walk one batch whose every pair punts: the trace's first flows that fall
    back on a cold plane, so each pair's first flow is a packet-in and its
    repeats hit (or outlive) the rule that installed.  A walk warms the tables
    it walks over, so every round gets a cold plane and a fresh
    classification (set-up, untimed)."""
    spec, network, trace = fig7

    def cold_kernel():
        plane = get_control_plane(system).build(network, config=spec.config)
        plane.prepare(trace, warmup_end=spec.schedule.warmup_seconds)
        return build_kernel(plane)

    columns = trace.columns()
    cold = cold_kernel()._classify(columns, len(columns))
    assert cold["fallback_causes"]["rule_may_expire"] == 0  # cold: every fallback is a punt
    punting = cold["fallback_flow_idx"][:BATCH_FLOWS].tolist()
    assert len(punting) >= 256
    batch = FlowChunk.from_columns([list(map(column.__getitem__, punting)) for column in columns.columns()])

    def setup():
        kernel = cold_kernel()
        state = kernel._classify(batch, len(batch))
        assert state["fallback_causes"]["punt"] == len(batch)
        return (kernel, state), {}

    def walk(kernel, state):
        kernel._walk(batch, state)
        return kernel, state

    kernel, state = benchmark.pedantic(walk, setup=setup, rounds=5)
    counters = kernel._plane.counters
    assert counters.flows_handled == len(batch)
    assert counters.controller_requests >= len(state["cls"])  # a packet-in per pair, at least
    assert (state["first_flow"] > 0.0).all()


@given(
    t=st.floats(min_value=0.0, max_value=1e9, allow_nan=False, allow_infinity=False),
    bucket=st.sampled_from((60.0, 120.0, 1800.0, 3600.0, 7200.0)),
)
@settings(max_examples=300, deadline=None)
def test_floor_divide_matches_python_floordiv(t, bucket):
    ours = float(np.floor_divide(np.float64(t), np.float64(bucket)))
    theirs = t // bucket
    assert ours == theirs and not math.isnan(ours)
