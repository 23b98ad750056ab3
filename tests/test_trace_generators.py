"""Unit tests for the realistic and synthetic trace generators and trace expansion."""

import dataclasses
import inspect
import random
from collections import Counter

import pytest

from repro.common.errors import ConfigurationError, TrafficError
from repro.common.rng import derive_seed, make_rng
from repro.core.presets import PRESETS
from repro.core.scenario import TraceSpec
from repro.replay.spec import ExecutionSpec
from repro.topology.builder import TopologyProfile, build_multi_tenant_datacenter
from repro.traffic.expand import expand_trace
from repro.traffic.flow import FlowRecord
from repro.traffic.models import (
    AllToAllShuffleParams,
    ElephantMiceParams,
    IncastHotspotParams,
    UniformBackgroundParams,
    stream_all_to_all_shuffle,
    stream_elephant_mice,
    stream_incast_hotspot,
    stream_uniform_background,
)
from repro.traffic.realistic import DIURNAL_PROFILE, RealisticTraceGenerator, RealisticTraceProfile
from repro.traffic.synthetic import (
    PAPER_SYNTHETIC_SPECS,
    SyntheticTraceGenerator,
    SyntheticTraceSpec,
    paper_synthetic_specs,
)
from repro.traffic.trace import Trace


def pair_of(flow):
    """The unordered host pair of a flow."""
    return min(flow.src_host_id, flow.dst_host_id), max(flow.src_host_id, flow.dst_host_id)


def flows_per_pair(trace) -> Counter:
    return Counter(map(pair_of, trace))


@pytest.fixture(scope="module")
def network():
    return build_multi_tenant_datacenter(
        TopologyProfile(switch_count=20, host_count=300, seed=5, home_switches_per_tenant=2)
    )


@pytest.fixture(scope="module")
def real_like_trace(network):
    generator = RealisticTraceGenerator(network, RealisticTraceProfile(total_flows=8000, seed=5))
    return generator.generate(name="real-like-test")


# -- reference loops ---------------------------------------------------------
#
# Every built-in model's emit loop as first written: readable, slow, one
# ``(time, src, dst, packets, bytes, duration)`` draw per flow.  The models
# now hand their chunks over as six columns, and the two hot loops (realistic,
# incast-hotspot) inline their RNG calls, on the promise that every draw
# stays bit-identical; these are the loops that promise is held against.  A
# model's setup state (pair tables, hotspots, participants) is read off its
# emitter, so what is pinned is the per-flow loop.


def sample_zipf_index(rng, population, exponent=1.2):
    """Sample an index in ``[0, population)`` from a Zipf-like distribution.

    The heavy-tailed pick of the realistic model's hot pairs and the incast
    model's hotspots, as a helper: an inverse power transform of one uniform
    draw, clamped into range.
    """
    if population <= 0:
        raise ValueError("population must be positive")
    if exponent <= 0:
        raise ValueError("exponent must be positive")
    u = rng.random()
    index = int(population * (u ** exponent))
    return min(index, population - 1)


def _random_pair(rng, host_count):
    src = rng.randrange(host_count)
    dst = rng.randrange(host_count)
    while dst == src:
        dst = rng.randrange(host_count)
    return src, dst


def _mice_payload(rng):
    packet_count = max(1, int(rng.expovariate(1.0 / 8.0)) + 1)
    return packet_count, packet_count * 1400, min(30.0, packet_count * 0.05)


def _setup_of(stream):
    """The setup state an emitter closes over (pair tables, hotspots, ...), by name."""
    return inspect.getclosurevars(stream._emit).nonlocals


def _reference_realistic_emit(generator):
    """The realistic model's emit loop as first written."""
    profile = generator.profile
    setup_rng = make_rng(profile.seed, "realistic-trace", "real-like", "setup")
    active_pairs = generator._select_active_pairs(setup_rng)
    hot_count = max(1, int(len(active_pairs) * profile.hot_pair_fraction))
    hot_pairs = active_pairs[:hot_count]
    cold_pairs = active_pairs[hot_count:] or active_pairs

    def emit(rng, window):
        draws = []
        start, span = window.start, window.span
        for _ in range(window.counts[0]):
            if rng.random() < profile.hot_pair_flow_share:
                index = sample_zipf_index(rng, len(hot_pairs), profile.zipf_exponent)
                src, dst = hot_pairs[index]
            else:
                src, dst = cold_pairs[rng.randrange(len(cold_pairs))]
            if rng.random() < 0.5:
                src, dst = dst, src
            packet_count = max(1, int(rng.expovariate(1.0 / 12.0)) + 1)
            draws.append(
                (
                    start + rng.random() * span,
                    src,
                    dst,
                    packet_count,
                    packet_count * 1400,
                    min(60.0, packet_count * 0.05),
                )
            )
        return draws

    return emit


def _reference_synthetic_emit(stream):
    setup = _setup_of(stream)
    concentrated_pairs = setup["concentrated_pairs"]
    concentrated_fraction = setup["concentrated_fraction"]
    payloads = setup["payloads"]
    host_count = setup["host_count"]

    def emit(rng, window):
        draws = []
        start, span = window.start, window.span
        for _ in range(window.counts[0]):
            timestamp = start + rng.random() * span
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
            draws.append((timestamp, src, dst, packet_count, byte_count, duration))
        return draws

    return emit


def _reference_elephant_mice_emit(stream):
    setup = _setup_of(stream)
    elephants = setup["elephants"]
    host_count = setup["host_count"]

    def emit(rng, window):
        draws = []
        start, span = window.start, window.span
        for _ in range(window.counts[0]):
            timestamp = start + rng.random() * span
            if rng.random() < setup["elephant_fraction"]:
                src, dst = elephants[rng.randrange(len(elephants))]
                if rng.random() < 0.5:
                    src, dst = dst, src
                packet_count = max(1, int(rng.expovariate(1.0 / setup["packet_mean"])) + 1)
                byte_count = packet_count * 1400
                duration = min(600.0, packet_count * 0.05)
            else:
                src, dst = _random_pair(rng, host_count)
                packet_count, byte_count, duration = _mice_payload(rng)
            draws.append((timestamp, src, dst, packet_count, byte_count, duration))
        return draws

    return emit


def _reference_incast_hotspot_emit(stream, tally):
    """Counts each ``src == dst`` redraw of a hot flow in ``tally``."""
    setup = _setup_of(stream)
    hotspots = setup["hotspots"]
    host_count = setup["host_count"]
    burst_start, burst_end = setup["burst_start"], setup["burst_end"]

    def emit(rng, window):
        draws = []
        hot_count, background_count = window.counts
        overlap_start = max(window.start, burst_start)
        overlap_span = min(window.end, burst_end) - overlap_start
        for _ in range(hot_count):
            dst = hotspots[sample_zipf_index(rng, len(hotspots), setup["zipf_exponent"])]
            src = rng.randrange(host_count)
            while src == dst:
                tally["src == dst redraw"] += 1
                src = rng.randrange(host_count)
            timestamp = overlap_start + rng.random() * overlap_span
            packet_count, byte_count, duration = _mice_payload(rng)
            draws.append((timestamp, src, dst, packet_count, byte_count, duration))
        start, span = window.start, window.span
        for _ in range(background_count):
            src, dst = _random_pair(rng, host_count)
            timestamp = start + rng.random() * span
            packet_count, byte_count, duration = _mice_payload(rng)
            draws.append((timestamp, src, dst, packet_count, byte_count, duration))
        return draws

    return emit


def _reference_all_to_all_shuffle_emit(stream):
    setup = _setup_of(stream)
    participants_by_phase = setup["participants_by_phase"]
    phase_of_window = setup["phase_of_window"]

    def emit(rng, window):
        participants = participants_by_phase[phase_of_window[window.index]]
        draws = []
        start, span = window.start, window.span
        for _ in range(window.counts[0]):
            src = participants[rng.randrange(len(participants))]
            dst = participants[rng.randrange(len(participants))]
            while dst == src:
                dst = participants[rng.randrange(len(participants))]
            timestamp = start + rng.random() * span
            packet_count, byte_count, duration = _mice_payload(rng)
            draws.append((timestamp, src, dst, packet_count, byte_count, duration))
        return draws

    return emit


def _reference_uniform_background_emit(stream):
    host_count = _setup_of(stream)["host_count"]

    def emit(rng, window):
        draws = []
        start, span = window.start, window.span
        for _ in range(window.counts[0]):
            src, dst = _random_pair(rng, host_count)
            packet_count, byte_count, duration = _mice_payload(rng)
            draws.append((start + rng.random() * span, src, dst, packet_count, byte_count, duration))
        return draws

    return emit


class _BitCountingRandom(random.Random):
    """A ``random.Random`` that keeps every ``getrandbits`` draw (``randrange`` draws through it)."""

    def __init__(self, seed):
        self.bit_draws = []
        super().__init__(seed)

    def getrandbits(self, k):
        value = super().getrandbits(k)
        self.bit_draws.append((k, value))
        return value


def _emits_as_the_reference(stream, reference_emit, *, rng_type=random.Random):
    """Assert every window's columns are the reference loop's draws, transposed.

    Returns the rngs the stream's emitter drew from, one per window.
    """
    windows = [window for window in stream._windows if window.flow_count]
    assert windows
    rngs = []
    for window in windows:
        seed = derive_seed(stream._seed, *stream._rng_labels, "chunk", str(window.index))
        rngs.append(rng_type(seed))
        columns = stream._emit(rngs[-1], window)
        assert list(zip(*columns)) == reference_emit(random.Random(seed), window)
    return rngs


def _chunk_bytes(stream):
    """Every chunk of ``stream`` as (first id, six (format, bytes) buffers)."""
    return [
        (chunk.first_id, [(column.format, column.tobytes()) for column in chunk.columns()])
        for chunk in stream.chunks()
    ]


_NETWORKS = {}


def _network_of(host_count):
    if host_count not in _NETWORKS:
        _NETWORKS[host_count] = build_multi_tenant_datacenter(
            TopologyProfile(
                switch_count=max(2, host_count // 10),
                host_count=host_count,
                min_tenant_size=1,
                max_tenant_size=max(3, host_count // 4),
                seed=host_count,
            )
        )
    return _NETWORKS[host_count]


def _realistic_case(draw, st):
    """A network and realistic profile; some pin the cold population at 2**k - 1, 2**k or 2**k + 1."""
    host_count = draw(st.sampled_from([6, 24, 80]))
    params = dict(
        total_flows=draw(st.one_of(st.integers(1, 30), st.integers(1, 3000))),
        duration_hours=draw(st.sampled_from([0.5, 1.0, 2.5, 24.0])),
        hot_pair_flow_share=draw(st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0))),
        zipf_exponent=draw(st.floats(0.05, 4.0)),
        hot_pair_fraction=draw(st.floats(0.0, 1.0)),
        seed=draw(st.integers(0, 2**32)),
    )
    cold_population = None
    if host_count > 6 and draw(st.booleans()):
        # One hot pair and `cold_population` cold ones: pairs drawn uniformly
        # (no tenant bias) until the target, one more than the cold population.
        k = draw(st.integers(3, 6))
        cold_population = 2**k + draw(st.sampled_from([-1, 0, 1]))
        total_pairs = host_count * (host_count - 1) // 2
        params.update(
            hot_pair_fraction=0.0,
            intra_tenant_fraction=0.0,
            active_pair_fraction=(cold_population + 1.5) / total_pairs,
        )
    return _network_of(host_count), RealisticTraceProfile(**params), cold_population


def _pinned(host_count, **params):
    """A pinned :func:`_realistic_case`."""
    return _network_of(host_count), RealisticTraceProfile(**params), None


def test_array_emitter_builds_the_python_emitters_chunks():
    """Under kernel=vectorized the realistic chunks are parsed from MT words in numpy, byte for byte.

    Covers both hot shares' extremes, cold populations at a power of two
    (every other try redrawn) and beside it, one-flow windows, blocks whose
    word budget runs out (squeezed) and the math recheck of every floor.
    """
    pytest.importorskip("numpy")
    pytest.importorskip("hypothesis")
    from unittest import mock

    from hypothesis import HealthCheck, example, given, settings, strategies as st

    import repro.kernel.realistic as array_emitter

    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @example(case=_pinned(6, total_flows=1, duration_hours=1.0), squeeze=False, recheck=False)
    @example(case=_pinned(24, total_flows=24, hot_pair_flow_share=0.0), squeeze=True, recheck=True)
    @example(case=_pinned(24, total_flows=900, hot_pair_flow_share=1.0), squeeze=True, recheck=False)
    @given(
        case=st.composite(lambda draw: _realistic_case(draw, st))(),
        squeeze=st.booleans(),
        recheck=st.booleans(),
    )
    def emits_alike(case, squeeze, recheck):
        network, profile, cold_population = case
        stream = RealisticTraceGenerator(network, profile).stream()
        if cold_population is not None:
            assert len(_setup_of(stream)["cold_pairs"]) == cold_population
        expected = _chunk_bytes(stream)
        with mock.patch.multiple(
            array_emitter,
            WORD_BUDGET_FACTOR=0.1 if squeeze else array_emitter.WORD_BUDGET_FACTOR,
            WORD_BUDGET_SLACK=1 if squeeze else array_emitter.WORD_BUDGET_SLACK,
            NEAR_INTEGER=1.0 if recheck else array_emitter.NEAR_INTEGER,
        ), mock.patch.object(
            array_emitter.RealisticArrayEmitter,
            "_chase",
            autospec=True,
            side_effect=array_emitter.RealisticArrayEmitter._chase,
        ) as chase:
            assert _chunk_bytes(stream.drawn_as_arrays()) == expected
        if squeeze and profile.total_flows > 1:
            # Blocks ran out of words and left flows to the next.
            assert chase.call_count > len(expected)

    emits_alike()


def _resident(trace):
    """A resident trace as its first id, length and six (format, bytes) buffers."""
    chunk = trace.columns()
    return chunk.first_id, len(trace), [(column.format, column.tobytes()) for column in chunk.columns()]


def _with_traffic(traffic, kernel, name="paper-fig7"):
    """A preset's scenario spec with ``traffic`` in place, run under ``kernel``."""
    spec = PRESETS.get(name).factory()[0]
    return dataclasses.replace(spec, traffic=traffic, execution=ExecutionSpec(kernel=kernel))


def test_a_resident_trace_is_drawn_alike_under_either_kernel():
    """Under kernel=vectorized each window is written straight into the trace's columns, byte for byte."""
    pytest.importorskip("numpy")
    pytest.importorskip("hypothesis")
    from hypothesis import HealthCheck, example, given, settings, strategies as st

    @settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    # One flow in a day: every window but one is planned with zero flows.
    @example(case=_pinned(6, total_flows=1, duration_hours=24.0))
    @example(case=_pinned(24, total_flows=900, hot_pair_flow_share=0.0))
    @example(case=_pinned(80, total_flows=2000, hot_pair_flow_share=1.0))
    @given(case=st.composite(lambda draw: _realistic_case(draw, st))())
    def resident_alike(case):
        network, profile, _ = case
        traffic = TraceSpec.realistic(**dataclasses.asdict(profile))
        scalar, vectorized = (
            _with_traffic(traffic, kernel).build_trace(network) for kernel in ("scalar", "vectorized")
        )
        assert _resident(vectorized) == _resident(scalar)

    resident_alike()


def test_an_expanded_resident_trace_is_drawn_alike_under_either_kernel():
    """The §V-D expansion merges the base's streamed chunks: it is gathered, not written in place."""
    pytest.importorskip("numpy")
    spec = PRESETS.get("paper-fig7-expanded").factory()[0]
    traffic = spec.traffic.with_params(total_flows=3000)
    assert traffic.expand_fraction > 0
    network = spec.build_network()
    scalar, vectorized = (
        _with_traffic(traffic, kernel, "paper-fig7-expanded").build_trace(network)
        for kernel in ("scalar", "vectorized")
    )
    assert len(scalar) > 3000
    assert _resident(vectorized) == _resident(scalar)


def test_an_over_drawing_array_emitter_fails_a_resident_trace(network):
    """Each window's draw count is checked before it is written into the trace's columns."""
    pytest.importorskip("numpy")
    from unittest import mock

    from repro.kernel.realistic import RealisticArrayEmitter

    draw = RealisticArrayEmitter.draw

    def over_draw(self, rng, window):
        return draw(self, rng, dataclasses.replace(window, counts=(window.counts[0] + 1,)))

    traffic = TraceSpec.realistic(total_flows=500, seed=3)
    with mock.patch.object(RealisticArrayEmitter, "draw", over_draw):
        with pytest.raises(TrafficError, match=r"'realistic-trace'.*drew \d+ flows for window 0 .*planned"):
            traffic.build(network, kernel="vectorized")


@pytest.mark.parametrize("above", [False, True], ids=["equal", "one-above"])
def test_array_emitter_breaks_a_hot_test_tie_on_the_low_digit(network, above):
    """The first flow's hot draw equals the share's top 27 bits: its low 26 bits decide."""
    pytest.importorskip("numpy")
    stream = RealisticTraceGenerator(network, RealisticTraceProfile(total_flows=500, seed=3)).stream()
    window = next(window for window in stream._windows if window.flow_count)
    rng = random.Random(derive_seed(stream._seed, *stream._rng_labels, "chunk", str(window.index)))
    first, second = rng.getrandbits(32), rng.getrandbits(32)
    draw = (first >> 5) * 2**26 + (second >> 6)
    assert (second >> 6) < 2**26 - 1  # draw + 1 keeps the top digit
    share = (draw + above) / 2**53
    profile = RealisticTraceProfile(total_flows=500, seed=3, hot_pair_flow_share=share)
    stream = RealisticTraceGenerator(network, profile).stream()
    assert _chunk_bytes(stream.drawn_as_arrays()) == _chunk_bytes(stream)


def test_array_emitter_orders_tied_start_times_by_the_whole_row():
    np = pytest.importorskip("numpy")
    from repro.kernel.realistic import _ordered_chunk
    from repro.traffic.chunk import FlowChunk
    from repro.traffic.realistic import BYTES_PER_PACKET, _duration_of
    from repro.traffic.stream import in_replay_order

    times, src, dst, packets = [5.0, 1.0, 5.0, 5.0, 1.0, 5.0], [3, 2, 1, 3, 2, 3], [4, 5, 6, 4, 5, 4], [2, 1, 7, 1, 1, 2]
    columns = [times, src, dst, packets, [n * BYTES_PER_PACKET for n in packets], [_duration_of(n) for n in packets]]
    expected = FlowChunk.from_columns(in_replay_order(columns), 10)
    chunk = _ordered_chunk(*map(np.array, (times, src, dst, packets)), 10)
    assert [column.tobytes() for column in chunk.columns()] == [column.tobytes() for column in expected.columns()]


class TestRealisticGenerator:
    @pytest.mark.parametrize("seed", [7, 2015])
    def test_tightened_emit_loop_draws_what_the_original_drew(self, network, seed):
        generator = RealisticTraceGenerator(
            network, RealisticTraceProfile(total_flows=6000, duration_hours=24.0, seed=seed)
        )
        stream = generator.stream()
        rngs = _emits_as_the_reference(
            stream, _reference_realistic_emit(generator), rng_type=_BitCountingRandom
        )
        assert len(rngs) == 24
        # The inlined randrange over the cold pairs met (and redrew) a
        # getrandbits value past the population, as randrange does.
        cold_population = len(_setup_of(stream)["cold_pairs"])
        assert any(value >= cold_population for rng in rngs for _, value in rng.bit_draws)

    def test_flow_count_close_to_requested(self, real_like_trace):
        assert abs(len(real_like_trace) - 8000) < 200

    def test_trace_spans_a_day(self, real_like_trace):
        assert 20 * 3600 < real_like_trace.duration <= 24 * 3600

    def test_diurnal_shape(self, real_like_trace):
        hours = Counter(int(flow.start_time // 3600) for flow in real_like_trace)
        counts = [hours[hour] for hour in range(24)]
        # Business hours are busier than the small hours, as in the profile.
        assert max(counts[8:18]) > 2 * max(1, min(counts[0:5]))

    def test_diurnal_profile_has_24_entries(self):
        assert len(DIURNAL_PROFILE) == 24

    def test_traffic_is_skewed_across_pairs(self, real_like_trace):
        ranked = sorted(flows_per_pair(real_like_trace).values(), reverse=True)
        # The busiest 10 % of communicating pairs carry well over half the flows
        # (the paper reports ~90 % for the real trace).
        assert sum(ranked[: max(1, len(ranked) // 10)]) / sum(ranked) > 0.5

    def test_only_a_small_fraction_of_pairs_communicate(self, network, real_like_trace):
        total_pairs = network.host_count() * (network.host_count() - 1) // 2
        assert len(flows_per_pair(real_like_trace)) < 0.2 * total_pairs

    def test_deterministic(self, network):
        profile = RealisticTraceProfile(total_flows=500, seed=11)
        a = RealisticTraceGenerator(network, profile).generate()
        b = RealisticTraceGenerator(network, profile).generate()
        assert [(f.src_host_id, f.dst_host_id) for f in a] == [(f.src_host_id, f.dst_host_id) for f in b]

    def test_profile_validation(self):
        with pytest.raises(ConfigurationError):
            RealisticTraceProfile(total_flows=0)
        with pytest.raises(ConfigurationError):
            RealisticTraceProfile(intra_tenant_fraction=1.5)
        with pytest.raises(ConfigurationError):
            RealisticTraceProfile(zipf_exponent=0.0)

    def test_requires_enough_hosts(self):
        tiny = build_multi_tenant_datacenter(TopologyProfile(switch_count=1, host_count=2, min_tenant_size=1, max_tenant_size=2, seed=1))
        with pytest.raises(TrafficError):
            RealisticTraceGenerator(tiny)


class TestSyntheticGenerator:
    def test_paper_specs_parameters(self):
        by_name = {spec.name: spec for spec in PAPER_SYNTHETIC_SPECS}
        assert by_name["Syn-A"].concentrated_flow_fraction == pytest.approx(0.90)
        assert by_name["Syn-A"].concentrated_pair_fraction == pytest.approx(0.10)
        assert by_name["Syn-B"].concentrated_pair_fraction == pytest.approx(0.20)
        assert by_name["Syn-C"].concentrated_pair_fraction == pytest.approx(0.30)

    def test_paper_spec_flow_ratios(self):
        specs = {spec.name: spec for spec in paper_synthetic_specs(total_flows=10_000)}
        assert specs["Syn-A"].total_flows == 10_000
        assert specs["Syn-B"].total_flows == pytest.approx(10_000 * 3806 / 2720, abs=1)
        assert specs["Syn-C"].total_flows == pytest.approx(10_000 * 5071 / 2720, abs=1)

    def test_generated_size(self, network):
        generator = SyntheticTraceGenerator(network)
        spec = SyntheticTraceSpec(name="tiny", concentrated_flow_fraction=0.9, concentrated_pair_fraction=0.1, total_flows=2000)
        trace = generator.generate(spec)
        assert len(trace) == 2000

    def test_higher_p_means_more_concentration(self, network):
        generator = SyntheticTraceGenerator(network)
        concentrated = generator.generate(
            SyntheticTraceSpec(name="hi-p", concentrated_flow_fraction=0.95, concentrated_pair_fraction=0.05, total_flows=4000)
        )
        spread = generator.generate(
            SyntheticTraceSpec(name="lo-p", concentrated_flow_fraction=0.30, concentrated_pair_fraction=0.30, total_flows=4000)
        )
        assert len(flows_per_pair(concentrated)) < len(flows_per_pair(spread))

    def test_payloads_from_reference_trace(self, network, real_like_trace):
        generator = SyntheticTraceGenerator(network, payload_trace=real_like_trace)
        spec = SyntheticTraceSpec(name="payloads", concentrated_flow_fraction=0.9, concentrated_pair_fraction=0.1, total_flows=500)
        trace = generator.generate(spec)
        reference_packets = {f.packet_count for f in real_like_trace}
        assert all(f.packet_count in reference_packets for f in trace)

    def test_spec_validation(self):
        with pytest.raises(ConfigurationError):
            SyntheticTraceSpec(name="bad", concentrated_flow_fraction=1.5, concentrated_pair_fraction=0.1)
        with pytest.raises(ConfigurationError):
            SyntheticTraceSpec(name="bad", concentrated_flow_fraction=0.5, concentrated_pair_fraction=0.0)
        with pytest.raises(ConfigurationError):
            SyntheticTraceSpec(name="bad", concentrated_flow_fraction=0.5, concentrated_pair_fraction=0.1, total_flows=0)

    def test_generate_paper_suite(self, network):
        traces = SyntheticTraceGenerator(network).generate_paper_suite(total_flows=1000)
        assert [t.name for t in traces] == ["Syn-A", "Syn-B", "Syn-C"]
        assert len(traces[2]) > len(traces[0])


class TestExpandTrace:
    @staticmethod
    def extras(expanded, base):
        """The flows between pairs the base never used (ids are minted in merge order)."""
        silent = flows_per_pair(base)
        return [flow for flow in expanded if pair_of(flow) not in silent]

    def test_expansion_adds_thirty_percent(self, real_like_trace):
        expanded = expand_trace(real_like_trace, extra_fraction=0.30, seed=5)
        assert expanded.total_flows == round(len(real_like_trace) * 1.30)
        flows = list(expanded)
        assert len(flows) == expanded.total_flows
        assert [flow.flow_id for flow in flows] == list(range(len(flows)))
        assert flows == sorted(flows)

    def test_extra_flows_confined_to_window(self, real_like_trace):
        expanded = expand_trace(real_like_trace, extra_fraction=0.2, window_start_hour=8.0, window_end_hour=24.0, seed=5)
        extra = self.extras(expanded, real_like_trace)
        assert extra and all(8 * 3600 <= f.start_time < 24 * 3600 for f in extra)

    def test_extra_flows_use_previously_silent_pairs(self, real_like_trace):
        expanded = expand_trace(real_like_trace, extra_fraction=0.1, seed=5)
        extra = self.extras(expanded, real_like_trace)
        assert len(extra) / (expanded.total_flows - len(real_like_trace)) > 0.95
        # ... and the base flows are all still there, in their order.
        base_pairs = flows_per_pair(real_like_trace)
        kept = [flow for flow in expanded if pair_of(flow) in base_pairs]
        assert [dataclasses.replace(flow, flow_id=0) for flow in kept[:500]] == [
            dataclasses.replace(flow, flow_id=0) for flow in real_like_trace.flows[:500]
        ]

    def test_a_topology_of_three_hosts_cannot_be_expanded(self):
        tiny = build_multi_tenant_datacenter(
            TopologyProfile(switch_count=1, host_count=3, min_tenant_size=1, max_tenant_size=3, seed=1)
        )
        with pytest.raises(TrafficError, match="too small"):
            expand_trace(Trace("tiny", tiny, [FlowRecord(0.0, 0, 0, 1)]))
        with pytest.raises(TrafficError, match="at least 4 hosts"):
            SyntheticTraceGenerator(tiny)

    def test_a_topology_out_of_silent_pairs_falls_back_to_default_payload_flows(self):
        tiny = build_multi_tenant_datacenter(TopologyProfile(switch_count=2, host_count=4, seed=1))
        pairs = [(a, b) for a in range(4) for b in range(4) if a < b]
        base = Trace("full", tiny, [FlowRecord(float(i), i, a, b) for i, (a, b) in enumerate(pairs)])
        expanded = list(expand_trace(base, extra_fraction=1.0, window_start_hour=1.0, window_end_hour=2.0))
        extra = expanded[len(pairs):]
        assert len(extra) == len(pairs) and all(3600.0 <= flow.start_time < 7200.0 for flow in extra)
        assert {(f.packet_count, f.byte_count, f.duration) for f in extra} == {(10, 15_000, 1.0)}

    def test_expansion_lowers_locality(self, real_like_trace):
        from repro.analysis.centrality import centrality_of_groups, partition_intensity

        # Fix the grouping computed on the original trace, then measure both
        # traces against it: the uniformly random extra flows must raise the
        # inter-group share and depress the traffic-weighted centrality.
        original_matrix = real_like_trace.switch_intensity()
        groups = partition_intensity(original_matrix, 4, seed=5)
        expanded_trace_obj = expand_trace(real_like_trace, extra_fraction=0.5, seed=5)
        original = centrality_of_groups(original_matrix, groups)
        expanded = centrality_of_groups(expanded_trace_obj.switch_intensity(), groups)
        assert expanded.inter_group_fraction > original.inter_group_fraction
        assert expanded.weighted_average < original.weighted_average

    def test_rejects_bad_parameters(self, real_like_trace):
        with pytest.raises(TrafficError):
            expand_trace(real_like_trace, extra_fraction=-0.1)
        with pytest.raises(TrafficError):
            expand_trace(real_like_trace, window_start_hour=10.0, window_end_hour=5.0)

    def test_expanded_name(self, real_like_trace):
        assert expand_trace(real_like_trace).name.endswith("-expanded")


@pytest.fixture(scope="module")
def six_host_network():
    """Few enough hosts that random endpoints often collide and are redrawn."""
    return build_multi_tenant_datacenter(
        TopologyProfile(switch_count=2, host_count=6, min_tenant_size=1, max_tenant_size=3, seed=3)
    )


class TestEveryEmitterDrawsWhatItsReferenceLoopDrew:
    """Each model's columns are its reference loop's draws, window by window, on two seeds."""

    @pytest.mark.parametrize("seed", [7, 2015])
    @pytest.mark.parametrize("with_payloads", [False, True])
    def test_synthetic(self, network, real_like_trace, seed, with_payloads):
        generator = SyntheticTraceGenerator(
            network, payload_trace=real_like_trace if with_payloads else None
        )
        stream = generator.stream(
            SyntheticTraceSpec(name="syn", concentrated_flow_fraction=0.7, total_flows=3000, seed=seed)
        )
        _emits_as_the_reference(stream, _reference_synthetic_emit(stream))

    @pytest.mark.parametrize("seed", [7, 2015])
    def test_elephant_mice(self, network, seed):
        stream = stream_elephant_mice(
            network, ElephantMiceParams(total_flows=3000, elephant_flow_fraction=0.4, seed=seed)
        )
        _emits_as_the_reference(stream, _reference_elephant_mice_emit(stream))

    @pytest.mark.parametrize("seed", [7, 2015])
    @pytest.mark.parametrize("burst_window_hours", [None, (3.0, 3.5)])
    def test_incast_hotspot(self, network, seed, burst_window_hours):
        stream = stream_incast_hotspot(
            network,
            IncastHotspotParams(total_flows=4000, burst_window_hours=burst_window_hours, seed=seed),
        )
        _emits_as_the_reference(stream, _reference_incast_hotspot_emit(stream, Counter()))

    @pytest.mark.parametrize("seed", [7, 2015])
    def test_incast_hotspot_redraws_a_source_that_is_its_hotspot(self, six_host_network, seed):
        stream = stream_incast_hotspot(
            six_host_network, IncastHotspotParams(total_flows=600, hotspot_count=3, seed=seed)
        )
        tally = Counter()
        rngs = _emits_as_the_reference(
            stream, _reference_incast_hotspot_emit(stream, tally), rng_type=_BitCountingRandom
        )
        assert tally["src == dst redraw"] > 0
        # ... and six hosts take three bits, so the inlined randrange met and
        # redrew out-of-range values too.
        assert any(value >= 6 for rng in rngs for _, value in rng.bit_draws)

    @pytest.mark.parametrize("seed", [7, 2015])
    def test_all_to_all_shuffle(self, network, seed):
        stream = stream_all_to_all_shuffle(
            network, AllToAllShuffleParams(total_flows=3000, participant_fraction=0.1, seed=seed)
        )
        _emits_as_the_reference(stream, _reference_all_to_all_shuffle_emit(stream))

    @pytest.mark.parametrize("seed", [7, 2015])
    def test_uniform_background(self, six_host_network, seed):
        stream = stream_uniform_background(
            six_host_network, UniformBackgroundParams(total_flows=3000, seed=seed)
        )
        _emits_as_the_reference(stream, _reference_uniform_background_emit(stream))


class TestZipfSampling:
    """The reference loops' Zipf helper samples what the hot loops inline."""

    def test_in_range(self):
        rng = random.Random(2)
        for _ in range(100):
            assert 0 <= sample_zipf_index(rng, 50) < 50

    def test_skewed_toward_low_indices(self):
        rng = random.Random(3)
        samples = [sample_zipf_index(rng, 100, 1.5) for _ in range(5000)]
        low = sum(1 for s in samples if s < 20)
        # A uniform sampler would put ~20 % of the mass below index 20; the
        # skewed sampler concentrates noticeably more there (~34 % analytically).
        assert low > len(samples) * 0.3

    def test_rejects_empty_population(self):
        with pytest.raises(ValueError):
            sample_zipf_index(random.Random(0), 0)

    def test_rejects_bad_exponent(self):
        with pytest.raises(ValueError):
            sample_zipf_index(random.Random(0), 10, 0.0)
