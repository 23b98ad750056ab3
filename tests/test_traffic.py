"""Unit tests for flow records, traces and the trace replayer."""

import pytest

from repro.common.errors import TrafficError
from repro.topology.builder import TopologyProfile, build_multi_tenant_datacenter
from repro.traffic.flow import FlowRecord
from repro.traffic.replay import TraceReplayer
from repro.traffic.trace import Trace


@pytest.fixture(scope="module")
def tiny_network():
    return build_multi_tenant_datacenter(TopologyProfile(switch_count=4, host_count=40, seed=1))


def flow(t: float, src: int, dst: int, flow_id: int = 0, packets: int = 5) -> FlowRecord:
    return FlowRecord(start_time=t, flow_id=flow_id, src_host_id=src, dst_host_id=dst, packet_count=packets)


def weight(matrix, a: int, b: int) -> float:
    """The intensity between two switches, 0.0 for a pair with none."""
    return {(x, y): value for x, y, value in matrix.pairs()}.get((min(a, b), max(a, b)), 0.0)


class TestFlowRecord:
    def test_valid_record(self):
        record = flow(1.0, 0, 1)
        assert (record.src_host_id, record.dst_host_id, record.packet_count) == (0, 1, 5)
        assert (record.byte_count, record.duration) == (15_000, 1.0)

    def test_rejects_self_flow(self):
        with pytest.raises(ValueError):
            flow(0.0, 3, 3)

    def test_rejects_negative_time(self):
        with pytest.raises(ValueError):
            flow(-1.0, 0, 1)

    def test_rejects_zero_packets(self):
        with pytest.raises(ValueError):
            FlowRecord(start_time=0.0, flow_id=0, src_host_id=0, dst_host_id=1, packet_count=0)

    def test_ordering_by_time(self):
        records = sorted([flow(5.0, 0, 1, 1), flow(1.0, 0, 1, 2)])
        assert records[0].start_time == 1.0


class TestTrace:
    def test_sorted_and_sized(self, tiny_network):
        trace = Trace("t", tiny_network, [flow(5.0, 0, 1, 1), flow(1.0, 2, 3, 2)])
        assert [f.flow_id for f in trace] == [2, 1]
        assert len(trace) == 2
        assert trace.duration == 5.0

    def test_rejects_unknown_hosts(self, tiny_network):
        with pytest.raises(Exception):
            Trace("t", tiny_network, [flow(0.0, 0, 10_000)])

    def test_intensity_window_rejects_inverted_bounds(self, tiny_network):
        trace = Trace("t", tiny_network, [])
        with pytest.raises(TrafficError):
            trace.switch_intensity(start=5.0, end=1.0)

    def test_switch_intensity_counts_flows(self, tiny_network):
        host_a = tiny_network.hosts()[0]
        host_b = next(h for h in tiny_network.hosts() if h.switch_id != host_a.switch_id)
        trace = Trace("t", tiny_network, [flow(0.0, host_a.host_id, host_b.host_id, 1)])
        matrix = trace.switch_intensity()
        assert weight(matrix, host_a.switch_id, host_b.switch_id) == 1.0

    def test_switch_intensity_includes_flow_at_exact_duration(self, tiny_network):
        """A flow arriving exactly at ``duration`` is counted once by the default window."""
        host_a = tiny_network.hosts()[0]
        host_b = next(h for h in tiny_network.hosts() if h.switch_id != host_a.switch_id)
        trace = Trace(
            "t",
            tiny_network,
            [
                flow(0.0, host_a.host_id, host_b.host_id, 1),
                flow(100.0, host_a.host_id, host_b.host_id, 2),
            ],
        )
        assert trace.duration == 100.0
        # Default window: inclusive of the last arrival, counted exactly once.
        assert weight(trace.switch_intensity(), host_a.switch_id, host_b.switch_id) == 2.0
        # An explicit end keeps half-open semantics: the boundary flow is out.
        assert weight(trace.switch_intensity(end=100.0), host_a.switch_id, host_b.switch_id) == 1.0
        # ...and an explicit end just past it includes it exactly once.
        assert weight(trace.switch_intensity(end=100.0 + 1e-9), host_a.switch_id, host_b.switch_id) == 2.0


class _RecordingSink:
    def __init__(self):
        self.seen = []

    def handle_flow_arrival(self, flow, now):
        self.seen.append((flow.flow_id, now))


class TestReplayer:
    def test_flows_replayed_in_order(self, tiny_network):
        trace = Trace("t", tiny_network, [flow(float(i), 0, 1, i) for i in range(5)])
        sink = _RecordingSink()
        progress = TraceReplayer(trace, sink, periodic_interval=100.0).replay()
        assert [fid for fid, _ in sink.seen] == [0, 1, 2, 3, 4]
        assert progress.flows_replayed == 5

    def test_periodic_callbacks_interleaved(self, tiny_network):
        trace = Trace("t", tiny_network, [flow(250.0, 0, 1, 1)])
        sink = _RecordingSink()
        ticks = []
        replayer = TraceReplayer(trace, sink, periodic_interval=100.0, periodic_callbacks=[ticks.append])
        replayer.replay(start=0.0, end=500.0)
        # Ticks at 100 and 200 fire before the flow at 250; 300..500 after.
        assert ticks == [100.0, 200.0, 300.0, 400.0, 500.0]
        assert sink.seen[0][1] == 250.0

    def test_window_replay(self, tiny_network):
        trace = Trace("t", tiny_network, [flow(float(i), 0, 1, i) for i in range(10)])
        sink = _RecordingSink()
        TraceReplayer(trace, sink, periodic_interval=100.0).replay(start=3.0, end=6.0)
        assert [fid for fid, _ in sink.seen] == [3, 4, 5]

    def test_rejects_bad_interval(self, tiny_network):
        with pytest.raises(ValueError):
            TraceReplayer(Trace("t", tiny_network, []), _RecordingSink(), periodic_interval=0.0)

    def test_progress_duration(self, tiny_network):
        trace = Trace("t", tiny_network, [])
        progress = TraceReplayer(trace, _RecordingSink(), periodic_interval=10.0).replay(start=0.0, end=30.0)
        assert progress.end_time - progress.start_time == 30.0
        assert progress.periodic_invocations == 3

    def test_default_window_clamped_to_trace_duration(self, tiny_network):
        """end=None must not inflate the window or fire a tick past the trace."""
        trace = Trace("t", tiny_network, [flow(0.0, 0, 1, 0), flow(250.0, 0, 1, 1)])
        sink = _RecordingSink()
        ticks = []
        replayer = TraceReplayer(trace, sink, periodic_interval=100.0, periodic_callbacks=[ticks.append])
        progress = replayer.replay()
        assert progress.end_time == 250.0
        assert progress.end_time - progress.start_time == 250.0
        # The flow arriving exactly at the trace's last timestamp is replayed,
        # and no tick fires past 250 s (300 s used to fire spuriously).
        assert [fid for fid, _ in sink.seen] == [0, 1]
        assert ticks == [100.0, 200.0]

    def test_tick_landing_exactly_on_flow_start_fires_first(self, tiny_network):
        trace = Trace("t", tiny_network, [flow(100.0, 0, 1, 1)])
        events = []
        sink = _RecordingSink()
        sink.handle_flow_arrival = lambda f, now: events.append(("flow", now))
        replayer = TraceReplayer(
            trace, sink, periodic_interval=100.0, periodic_callbacks=[lambda now: events.append(("tick", now))]
        )
        replayer.replay(start=0.0, end=200.0)
        assert events == [("tick", 100.0), ("flow", 100.0), ("tick", 200.0)]

    def test_empty_window_replays_nothing(self, tiny_network):
        trace = Trace("t", tiny_network, [flow(float(i), 0, 1, i) for i in range(5)])
        sink = _RecordingSink()
        ticks = []
        replayer = TraceReplayer(trace, sink, periodic_interval=10.0, periodic_callbacks=[ticks.append])
        progress = replayer.replay(start=100.0, end=100.0)
        assert progress.flows_replayed == 0
        assert progress.periodic_invocations == 0
        assert progress.end_time - progress.start_time == 0.0
        assert ticks == []

    def test_periodic_invocations_counts_ticks_not_callbacks(self, tiny_network):
        trace = Trace("t", tiny_network, [])
        first, second = [], []
        replayer = TraceReplayer(
            trace, _RecordingSink(), periodic_interval=50.0, periodic_callbacks=[first.append, second.append]
        )
        progress = replayer.replay(start=0.0, end=150.0)
        # Three tick times, two callbacks each: 3 invocations, not 6 (and not 2).
        assert progress.periodic_invocations == 3
        assert first == second == [50.0, 100.0, 150.0]

    # -- regression: end_time accounting on degenerate traces ----------------

    def test_empty_trace_default_window_end_never_precedes_start(self, tiny_network):
        """end=None on an empty trace used to report end_time=0 < start."""
        trace = Trace("t", tiny_network, [])
        ticks = []
        replayer = TraceReplayer(trace, _RecordingSink(), periodic_interval=60.0, periodic_callbacks=[ticks.append])
        progress = replayer.replay(start=500.0)
        assert progress.start_time == 500.0
        assert progress.end_time == 500.0
        assert progress.end_time - progress.start_time == 0.0
        assert progress.flows_replayed == 0
        assert ticks == []

    def test_empty_trace_default_window_from_zero(self, tiny_network):
        progress = TraceReplayer(Trace("t", tiny_network, []), _RecordingSink(), periodic_interval=60.0).replay()
        assert progress.start_time == 0.0
        assert progress.end_time == 0.0
        assert progress.periodic_invocations == 0

    def test_all_flows_share_one_timestamp(self, tiny_network):
        """A trace whose flows all arrive at one instant replays them all once."""
        trace = Trace("t", tiny_network, [flow(120.0, 0, 1, i) for i in range(4)])
        sink = _RecordingSink()
        ticks = []
        replayer = TraceReplayer(trace, sink, periodic_interval=60.0, periodic_callbacks=[ticks.append])
        progress = replayer.replay()
        assert progress.flows_replayed == 4
        assert sorted(fid for fid, _ in sink.seen) == [0, 1, 2, 3]
        assert progress.end_time == 120.0
        assert progress.end_time - progress.start_time == 120.0
        # Ticks at 60 and 120 fire (120 before the flows arriving at 120),
        # and nothing fires past the single shared timestamp.
        assert ticks == [60.0, 120.0]

    def test_all_flows_at_time_zero(self, tiny_network):
        trace = Trace("t", tiny_network, [flow(0.0, 0, 1, i) for i in range(3)])
        sink = _RecordingSink()
        progress = TraceReplayer(trace, sink, periodic_interval=60.0).replay()
        assert progress.flows_replayed == 3
        assert progress.end_time == 0.0
        assert progress.end_time - progress.start_time == 0.0
        assert progress.periodic_invocations == 0

    def test_start_past_last_arrival_with_default_window(self, tiny_network):
        trace = Trace("t", tiny_network, [flow(10.0, 0, 1, 0)])
        sink = _RecordingSink()
        progress = TraceReplayer(trace, sink, periodic_interval=60.0).replay(start=50.0)
        assert progress.flows_replayed == 0
        assert progress.end_time == 50.0
        assert progress.end_time - progress.start_time == 0.0
