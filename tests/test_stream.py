"""Unit tests for the chunked flow-stream pipeline (repro.traffic.stream)."""

import pytest

from repro.common.errors import TrafficError, UnknownHostError
from repro.topology.builder import TopologyProfile, build_multi_tenant_datacenter
from repro.traffic.chunk import FlowChunk
from repro.traffic.flow import FlowRecord
from repro.traffic.models import (
    IncastHotspotParams,
    UniformBackgroundParams,
    stream_incast_hotspot,
    stream_uniform_background,
)
from repro.traffic.replay import TraceReplayer
from repro.traffic.stream import (
    ChunkWindow,
    GeneratedStream,
    MergedStream,
    allocate_counts,
    plan_windows,
    uniform_spans,
    windowed_chunks,
)
from repro.traffic.trace import Trace


@pytest.fixture(scope="module")
def network():
    return build_multi_tenant_datacenter(
        TopologyProfile(switch_count=6, host_count=60, seed=9, home_switches_per_tenant=2)
    )


def flow(t: float, src: int = 0, dst: int = 1, flow_id: int = 0) -> FlowRecord:
    return FlowRecord(start_time=t, flow_id=flow_id, src_host_id=src, dst_host_id=dst)


class TestAllocateCounts:
    def test_sums_exactly(self):
        assert sum(allocate_counts(1000, [0.3, 0.3, 0.4])) == 1000

    def test_proportional(self):
        assert allocate_counts(100, [1.0, 3.0]) == [25, 75]

    def test_largest_remainder(self):
        # Shares 3.33.. each: two units of leftover go to the largest remainders.
        counts = allocate_counts(10, [1.0, 1.0, 1.0])
        assert sorted(counts) == [3, 3, 4]
        assert sum(counts) == 10

    def test_zero_total(self):
        assert allocate_counts(0, [1.0, 2.0]) == [0, 0]

    def test_zero_weights(self):
        assert allocate_counts(10, [0.0, 0.0]) == [0, 0]

    def test_deterministic(self):
        weights = [0.7, 1.3, 2.1, 0.9]
        assert allocate_counts(987, weights) == allocate_counts(987, weights)


class TestPlanWindows:
    def test_single_span_subdivided_by_target(self):
        windows = plan_windows(uniform_spans(3600.0), 1000, target_flows=300)
        assert sum(window.flow_count for window in windows) == 1000
        assert windows[0].start == 0.0
        assert windows[-1].end == 3600.0
        assert len(windows) == 4  # ceil(1000 / 300)

    def test_windows_are_consecutive(self):
        windows = plan_windows([(0.0, 100.0, 1.0), (100.0, 300.0, 3.0)], 4000, target_flows=500)
        for earlier, later in zip(windows, windows[1:]):
            assert earlier.end == later.start
        assert [window.index for window in windows] == list(range(len(windows)))

    def test_weighted_spans(self):
        windows = plan_windows([(0.0, 1.0, 1.0), (1.0, 2.0, 3.0)], 400, target_flows=1000)
        assert [window.flow_count for window in windows] == [100, 300]


class TestGeneratedStream:
    def _stream(self, network, total=500):
        params = UniformBackgroundParams(total_flows=total, duration_hours=2.0, seed=4)
        return stream_uniform_background(network, params)

    def test_total_flows_exact(self, network):
        stream = self._stream(network)
        assert stream.total_flows == 500
        assert sum(len(chunk) for chunk in stream.chunks()) == 500

    def test_flow_ids_ascend_across_chunks(self, network):
        flows = list(self._stream(network))
        assert [record.flow_id for record in flows] == list(range(500))

    def test_chunks_time_ordered(self, network):
        previous_end = None
        for chunk in self._stream(network).chunks():
            times = [record.start_time for record in chunk]
            assert times == sorted(times)
            if previous_end is not None:
                assert times[0] >= previous_end
            previous_end = times[-1]

    def test_reiterable_and_deterministic(self, network):
        stream = self._stream(network)
        assert list(stream) == list(stream)
        assert list(stream) == list(self._stream(network))

    def test_materialize_equals_iteration(self, network):
        stream = self._stream(network)
        trace = stream.materialize()
        assert list(trace) == list(stream)
        assert trace.name == stream.name

    def test_duration_is_nominal(self, network):
        assert self._stream(network).duration == 2.0 * 3600.0

    def test_narrow_burst_keeps_chunks_near_target(self, network):
        """A burst window concentrating most flows into a sliver of the day
        must not blow individual chunks past the O(chunk) target."""
        from repro.traffic.stream import CHUNK_TARGET_FLOWS

        params = IncastHotspotParams(
            total_flows=200_000,
            duration_hours=24.0,
            hotspot_flow_fraction=0.7,
            burst_window_hours=(8.0, 9.0),
            seed=6,
        )
        stream = stream_incast_hotspot(network, params)
        sizes = [len(chunk) for chunk in stream.chunks()]
        assert sum(sizes) == 200_000
        assert max(sizes) <= CHUNK_TARGET_FLOWS * 1.2


class TestMergedStream:
    def test_merges_in_time_order_and_renumbers(self, network):
        a = Trace("a", network, [flow(1.0), flow(5.0, flow_id=1)])
        b = Trace("b", network, [flow(2.0, src=2, dst=3), flow(4.0, src=2, dst=3, flow_id=1)])
        merged = MergedStream("mix", network, [(a, 0.0, 10.0), (b, 0.0, 10.0)], duration=10.0)
        flows = list(merged)
        assert [record.start_time for record in flows] == [1.0, 2.0, 4.0, 5.0]
        assert [record.flow_id for record in flows] == [0, 1, 2, 3]
        assert merged.total_flows == 4

    def test_offset_shifts_component_timeline(self, network):
        a = Trace("a", network, [flow(1.0)])
        merged = MergedStream("mix", network, [(a, 100.0, 10.0)], duration=110.0)
        assert [record.start_time for record in merged] == [101.0]
        assert merged.duration == 110.0

    def test_clips_flows_past_component_span(self, network):
        a = Trace("a", network, [flow(1.0), flow(50.0, flow_id=1)])
        merged = MergedStream("mix", network, [(a, 0.0, 10.0)], duration=10.0)
        assert [record.start_time for record in merged] == [1.0]

    def test_chunking_by_count(self, network):
        a = Trace("a", network, [flow(float(i), flow_id=i) for i in range(7)])
        merged = MergedStream("mix", network, [(a, 0.0, 100.0)], duration=100.0, chunk_flows=3)
        assert [len(chunk) for chunk in merged.chunks()] == [3, 3, 1]

    def test_empty_merge_raises(self, network):
        """A mix whose every flow is clipped must fail, not silently replay nothing."""
        a = Trace("a", network, [flow(50.0)])
        merged = MergedStream("mix", network, [(a, 0.0, 10.0)], duration=10.0)
        with pytest.raises(TrafficError, match="'mix' produced no flows"):
            list(merged.chunks())

    def test_a_third_party_part_yielding_record_lists_merges_the_same(self, network, record_list_stream):
        records = [flow(float(i), src=i % 3, dst=3, flow_id=i) for i in range(9)]
        listed = record_list_stream("a", network, records, chunk_flows=2)
        merged = [
            list(MergedStream("mix", network, [(part, 5.0, 7.5)], duration=20.0))
            for part in (listed, Trace("a", network, records))
        ]
        assert merged[0] == merged[1] and len(merged[0]) == 8


class TestStreamIntensity:
    def test_stream_switch_intensity_matches_trace(self, network):
        params = UniformBackgroundParams(total_flows=600, duration_hours=2.0, seed=8)
        stream = stream_uniform_background(network, params)
        trace = Trace.from_stream(stream)
        for start, end in ((0.0, None), (0.0, 1800.0), (900.0, 5400.0)):
            stream_matrix = stream.switch_intensity(start=start, end=end)
            trace_matrix = trace.switch_intensity(start=start, end=end)
            assert sorted(stream_matrix.pairs()) == sorted(trace_matrix.pairs())


class TestWindowedChunks:
    def test_trims_boundaries(self, network, record_list_stream):
        flows = [flow(float(i), flow_id=i) for i in range(10)]
        for source in (record_list_stream("m", network, flows, chunk_flows=4), Trace("m", network, flows)):
            windowed = [record.flow_id for chunk in windowed_chunks(source, start=3.0, end=7.0) for record in chunk]
            assert windowed == [3, 4, 5, 6]

    def test_record_list_chunks_become_flow_chunks_holding_the_same_records(self, network, record_list_stream):
        flows = [FlowRecord(float(i), 100 + 7 * i, 0, 1) for i in range(10)]
        chunks = list(windowed_chunks(record_list_stream("m", network, flows, chunk_flows=4), start=1.0))
        assert all(isinstance(chunk, FlowChunk) for chunk in chunks)
        assert [len(chunk) for chunk in chunks] == [3, 4, 2]
        handed_over = [record for chunk in chunks for record in chunk]
        assert all(got is want for got, want in zip(handed_over, flows[1:], strict=True))

    def test_stops_generating_past_end(self, network, record_list_stream):
        seen = []

        class Probe(record_list_stream):
            def chunks(self):
                for chunk in super().chunks():
                    seen.append(chunk[0].flow_id)
                    yield chunk

        flows = [flow(float(i), flow_id=i) for i in range(100)]
        stream = Probe("m", network, flows, chunk_flows=10)
        list(windowed_chunks(stream, start=0.0, end=15.0))
        # Chunks are abandoned at the first one starting at/past the end:
        # chunk 0 (flows 0-9), chunk 1 (10-19, trimmed), chunk 2 (peeked, dropped).
        assert seen == [0, 10, 20]


class _RecordingSink:
    def __init__(self):
        self.seen = []

    def handle_flow_arrival(self, flow, now):
        self.seen.append((flow.flow_id, now))


class TestReplayerOnStreams:
    def test_stream_replay_equals_trace_replay(self, network):
        params = UniformBackgroundParams(total_flows=400, duration_hours=1.0, seed=3)
        stream = stream_uniform_background(network, params)
        trace = Trace.from_stream(stream)

        def run(source):
            sink = _RecordingSink()
            ticks = []
            progress = TraceReplayer(
                source, sink, periodic_interval=120.0, periodic_callbacks=[ticks.append]
            ).replay(start=0.0, end=3600.0)
            return sink.seen, ticks, progress.flows_replayed, progress.periodic_invocations

        assert run(stream) == run(trace)

    def test_stream_replay_default_window_stops_at_last_arrival(self, network, record_list_stream):
        flows = [flow(10.0, flow_id=0), flow(250.0, flow_id=1)]
        stream = record_list_stream("m", network, flows, chunk_flows=1, duration=3600.0)
        ticks = []
        progress = TraceReplayer(
            stream, _RecordingSink(), periodic_interval=100.0, periodic_callbacks=[ticks.append]
        ).replay()
        assert progress.end_time == 250.0
        assert ticks == [100.0, 200.0]

    def test_chunks_drained_counted(self, network, record_list_stream):
        flows = [flow(float(i), flow_id=i) for i in range(10)]
        stream = record_list_stream("m", network, flows, chunk_flows=4)
        progress = TraceReplayer(stream, _RecordingSink(), periodic_interval=1000.0).replay()
        assert progress.chunks_drained == 3
        trace = Trace("t", network, flows)
        assert TraceReplayer(trace, _RecordingSink(), periodic_interval=1000.0).replay().chunks_drained == 1

    def test_ticks_fire_in_chunk_gaps(self, network, record_list_stream):
        # A tick scheduled between two chunks fires before the later chunk's flows.
        flows = [flow(10.0, flow_id=0), flow(350.0, flow_id=1)]
        stream = record_list_stream("m", network, flows, chunk_flows=1)
        events = []
        sink = _RecordingSink()
        sink.handle_flow_arrival = lambda f, now: events.append(("flow", now))
        TraceReplayer(
            stream, sink, periodic_interval=100.0,
            periodic_callbacks=[lambda now: events.append(("tick", now))],
        ).replay(start=0.0, end=400.0)
        assert events == [
            ("flow", 10.0),
            ("tick", 100.0), ("tick", 200.0), ("tick", 300.0),
            ("flow", 350.0),
            ("tick", 400.0),
        ]

    def test_control_events_fire_in_chunk_gaps(self, network, record_list_stream):
        # An event between two chunks fires after the earlier chunk is drained
        # and, like a tick, before the later chunk's flows.
        from repro.obs.events import ChunkDrainedEvent
        from repro.obs.tracer import EventTracer

        flows = [flow(10.0, flow_id=0), flow(350.0, flow_id=1)]
        stream = record_list_stream("m", network, flows, chunk_flows=1)
        order = []

        class ChunkListener:
            def on_event(self, event):
                if isinstance(event, ChunkDrainedEvent):
                    order.append(("chunk", event.time))

        sink = _RecordingSink()
        sink.handle_flow_arrival = lambda f, now: order.append(("flow", now))
        TraceReplayer(
            stream, sink, periodic_interval=200.0,
            periodic_callbacks=[lambda now: order.append(("tick", now))],
            events=[(when, lambda now: order.append(("event", now))) for when in (10.0, 200.0, 350.0)],
            tracer=EventTracer(listeners=[ChunkListener()]),
        ).replay(start=0.0, end=400.0)
        assert order == [
            ("event", 10.0), ("flow", 10.0), ("chunk", 10.0),
            ("event", 200.0), ("tick", 200.0),
            ("event", 350.0), ("flow", 350.0), ("chunk", 350.0),
            ("tick", 400.0),
        ]


class TestGeneratedStreamInternals:
    def test_emit_draws_are_sorted_canonically(self, network):
        # Two flows at the same timestamp sort by endpoints, then payload.
        windows = [ChunkWindow(index=0, start=0.0, end=10.0, counts=(2,))]
        draws = [(5.0, 3, 4, 1, 1400, 0.05), (5.0, 1, 2, 1, 1400, 0.05)]

        stream = GeneratedStream(
            "s", network, windows, lambda rng, window: list(draws),
            seed=1, rng_label="test", duration=10.0,
        )
        flows = list(stream)
        assert [(record.src_host_id, record.flow_id) for record in flows] == [(1, 0), (3, 1)]

    def test_emitter_must_draw_its_planned_count(self, network):
        """Seeking skips a window by adding its *planned* count to the id
        cursor, so a model that over- or under-draws must fail where it is
        generated — naming the model and the window — not shift later ids."""
        windows = [
            ChunkWindow(index=0, start=0.0, end=10.0, counts=(1,)),
            ChunkWindow(index=1, start=10.0, end=20.0, counts=(2,)),
        ]

        def emit(rng, window):
            # Window 0 honours its plan; window 1 under-draws by one.
            return [(window.start + 1.0, 1, 2, 1, 1400, 0.05)]

        stream = GeneratedStream(
            "short", network, windows, emit, seed=1, rng_label="sloppy-model", duration=20.0
        )
        chunks = stream.chunks()
        assert len(next(chunks)) == 1
        with pytest.raises(TrafficError, match=r"'sloppy-model'.*drew 1 flows for window 1 .*planned 2"):
            next(chunks)
        # A seek past window 0 trusts its plan and trips on window 1 just the same.
        with pytest.raises(TrafficError, match="window 1"):
            list(stream.chunks_from(15.0))

    @staticmethod
    def _ten_second_windows(network, emit, count=5):
        windows = [
            ChunkWindow(index=index, start=10.0 * index, end=10.0 * (index + 1), counts=(1,))
            for index in range(count)
        ]
        return GeneratedStream(
            "grid", network, windows, emit, seed=1, rng_label="grid-model", duration=10.0 * count
        )

    def test_no_window_at_or_past_the_end_is_ever_generated(self, network):
        emitted = []

        def emit(rng, window):
            emitted.append(window.index)
            return [(window.start + 1.0, 1, 2, 1, 1400, 0.05)]

        stream = self._ten_second_windows(network, emit)
        for start, end, generated, replayed in (
            (0.0, 20.0, [0, 1], [0, 1]),  # start == 0.0 seeks (and stops) too
            (15.0, 30.0, [1, 2], [2]),  # window 1 straddles the start; its flow is before it
            (15.0, 35.0, [1, 2, 3], [2, 3]),  # ... and window 3 straddles the end
            # The boundary window (its end == the start) is still generated:
            # an arrival may sit exactly on that edge.
            (20.0, 40.0, [1, 2, 3], [2, 3]),
            (20.0, 20.0, [1], []),
            (30.0, None, [2, 3, 4], [3, 4]),
        ):
            del emitted[:]
            chunks = list(windowed_chunks(stream, start=start, end=end))
            assert emitted == generated, (start, end)
            # Ids are the serial stream's whatever was skipped or never reached.
            assert [record.flow_id for chunk in chunks for record in chunk] == replayed
        del emitted[:]
        stream.switch_intensity(start=0.0, end=10.0)
        assert emitted == [0]

    def test_emitter_must_not_draw_before_its_window(self, network):
        """Stopping at the first window that starts past the end trusts that
        no later window reaches back before it — checked where generated."""

        def emit(rng, window):
            early = 0.5 if window.index == 2 else -1.0
            return [(window.start - early, 1, 2, 1, 1400, 0.05)]

        stream = self._ten_second_windows(network, emit)
        chunks = stream.chunks()
        assert [len(next(chunks)), len(next(chunks))] == [1, 1]
        with pytest.raises(
            TrafficError, match=r"'grid-model'.*arrival at 19.5 for window 2 .*before the window starts"
        ):
            next(chunks)

    def test_faulty_emitter_fails_like_the_record_path(self, network):
        windows = [ChunkWindow(index=0, start=0.0, end=10.0, counts=(1,))]

        def stream_of(draw):
            return GeneratedStream(
                "bad", network, windows, lambda rng, window: [draw],
                seed=1, rng_label="test", duration=10.0,
            )

        with pytest.raises(ValueError, match="two distinct hosts"):
            list(stream_of((1.0, 4, 4, 1, 1400, 0.05)).chunks())
        with pytest.raises(Exception, match="unknown host 9999"):
            list(stream_of((1.0, 4, 9999, 1, 1400, 0.05)).chunks())

    def test_hosts_are_checked_against_the_network_it_was_built_over(self):
        """A host that departs after the stream was built (tenant churn) still
        passes the check — its flows are the replay's to skip and count —
        while a host the network never had fails as before."""
        network = build_multi_tenant_datacenter(TopologyProfile(switch_count=3, host_count=12, seed=2))
        windows = [ChunkWindow(index=0, start=0.0, end=10.0, counts=(2,))]
        draws = [(1.0, 4, 5, 1, 1400, 0.05), (2.0, 6, 4, 1, 1400, 0.05)]
        stream = GeneratedStream(
            "departed", network, windows, lambda rng, window: list(draws),
            seed=1, rng_label="test", duration=10.0,
        )
        network.remove_host(4)
        assert not network.has_host(4)
        flows = list(stream)
        assert [(record.src_host_id, record.dst_host_id) for record in flows] == [(4, 5), (6, 4)]
        stranger = GeneratedStream(
            "stranger", network, windows,
            lambda rng, window: [(1.0, 5, 6, 1, 1400, 0.05), (3.0, 6, 99, 1, 1400, 0.05)],
            seed=1, rng_label="test", duration=10.0,
        )
        with pytest.raises(UnknownHostError, match="unknown host 99"):
            list(stranger.chunks())


class TestFlowChunk:
    DRAWS = [(1.0, 0, 1, 10, 15_000, 1.0), (2.0, 2, 3, 4, 5_600, 0.2), (2.0, 4, 5, 1, 1_400, 0.05)]

    def _chunk(self):
        from repro.traffic.chunk import FlowChunk

        return FlowChunk.from_draws(self.DRAWS, first_id=40)

    def test_is_a_sequence_of_minted_records(self):
        chunk = self._chunk()
        assert len(chunk) == 3 and chunk.mints_records and chunk.first_id == 40
        assert chunk[1] == FlowRecord(2.0, 41, 2, 3, 4, 5_600, 0.2)
        assert chunk[-1] == chunk[2] == list(chunk)[2]
        assert chunk[1] in chunk and chunk.index(chunk[2]) == 2
        for index in (3, -4):
            with pytest.raises(IndexError):
                chunk[index]

    def test_records_equals_iteration_but_shares_repeated_values(self):
        from repro.traffic.chunk import FlowChunk

        draws = [(float(t), 300 + t % 2, 500, 20, 28_000, 1.0) for t in range(6)]
        chunk = FlowChunk.from_draws(draws)
        kept = chunk.records()
        assert kept == list(chunk)
        # One object per distinct endpoint / size / duration across the list.
        assert len({id(record.dst_host_id) for record in kept}) == 1
        assert len({id(record.src_host_id) for record in kept}) == 2
        assert len({id(record.byte_count) for record in kept}) == 1
        assert len({id(record.duration) for record in kept}) == 1
        # A chunk adapted from records hands back those very records.
        assert all(a is b for a, b in zip(FlowChunk.from_records(kept).records(), kept))

    def test_slices_are_contiguous_views(self):
        chunk = self._chunk()
        view = chunk[1:]
        assert [record.flow_id for record in view] == [41, 42] and view.first_id == 41
        assert view.start_times.obj is chunk.start_times.obj  # same buffer, no copy
        assert len(chunk[2:1]) == 0 and len(chunk[5:]) == 0
        with pytest.raises(ValueError):
            chunk[::2]

    def test_columns_are_read_only(self):
        with pytest.raises(TypeError):
            self._chunk().start_times[0] = 5.0

    def test_empty_chunk(self):
        from repro.traffic.chunk import FlowChunk

        empty = FlowChunk.from_draws([])
        assert len(empty) == 0 and list(empty) == [] and not empty
        assert [len(column) for column in empty.columns()] == [0] * 6

    def test_columnar_trace_pickles_and_deep_copies(self, network):
        import copy
        import pickle

        params = UniformBackgroundParams(total_flows=300, duration_hours=1.0, seed=2)
        trace = Trace.from_stream(stream_uniform_background(network, params))
        clone = pickle.loads(pickle.dumps(trace))
        assert list(clone) == list(copy.deepcopy(trace)) == list(trace)
