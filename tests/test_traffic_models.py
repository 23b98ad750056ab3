"""Tests for the built-in traffic models and the float duration_hours fix."""

import pytest

from repro.common.errors import ConfigurationError
from repro.topology.builder import TopologyProfile, build_multi_tenant_datacenter
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
from repro.traffic.realistic import RealisticTraceGenerator, RealisticTraceProfile
from repro.traffic.synthetic import SyntheticTraceGenerator, SyntheticTraceSpec
from repro.traffic.trace import Trace


@pytest.fixture(scope="module")
def network():
    return build_multi_tenant_datacenter(
        TopologyProfile(switch_count=8, host_count=80, seed=13, home_switches_per_tenant=2)
    )


class TestElephantMice:
    def test_elephants_carry_heavy_payloads(self, network):
        params = ElephantMiceParams(
            total_flows=3000, duration_hours=2.0, elephant_pair_count=4,
            elephant_flow_fraction=0.3, seed=5,
        )
        trace = Trace.from_stream(stream_elephant_mice(network, params))
        assert len(trace) == 3000
        from collections import Counter

        pair_flows = Counter(flow.unordered_pair for flow in trace)
        top_pairs = [pair for pair, _ in pair_flows.most_common(4)]
        heavy = [f for f in trace if f.unordered_pair in top_pairs]
        light = [f for f in trace if f.unordered_pair not in top_pairs]
        mean = lambda flows: sum(f.packet_count for f in flows) / len(flows)  # noqa: E731
        # The busiest pairs are the elephants, and they are far heavier.
        assert mean(heavy) > 10 * mean(light)

    def test_flows_within_duration(self, network):
        params = ElephantMiceParams(total_flows=500, duration_hours=1.0, seed=5)
        trace = Trace.from_stream(stream_elephant_mice(network, params))
        assert all(flow.start_time < 3600.0 for flow in trace)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            ElephantMiceParams(elephant_flow_fraction=1.5)
        with pytest.raises(ConfigurationError):
            ElephantMiceParams(elephant_pair_count=0)


class TestIncastHotspot:
    def test_hotspots_concentrate_destinations(self, network):
        params = IncastHotspotParams(
            total_flows=4000, duration_hours=2.0, hotspot_count=2,
            hotspot_flow_fraction=0.8, seed=5,
        )
        trace = Trace.from_stream(stream_incast_hotspot(network, params))
        from collections import Counter

        dst_counts = Counter(flow.dst_host_id for flow in trace)
        top_two = sum(count for _, count in dst_counts.most_common(2))
        assert top_two / len(trace) > 0.6  # the two hotspots dominate fan-in

    def test_burst_window_confines_hotspot_flows(self, network):
        params = IncastHotspotParams(
            total_flows=2000, duration_hours=4.0, hotspot_count=1,
            hotspot_flow_fraction=1.0, burst_window_hours=(1.0, 2.0), seed=5,
        )
        trace = Trace.from_stream(stream_incast_hotspot(network, params))
        assert all(3600.0 <= flow.start_time < 7200.0 for flow in trace)

    def test_burst_window_validation(self):
        with pytest.raises(ConfigurationError):
            IncastHotspotParams(duration_hours=2.0, burst_window_hours=(1.0, 3.0))
        with pytest.raises(ConfigurationError):
            IncastHotspotParams(burst_window_hours=(3.0, 1.0))


class TestAllToAllShuffle:
    def test_flows_land_in_phase_windows(self, network):
        params = AllToAllShuffleParams(
            total_flows=1200, duration_hours=4.0, phase_count=4,
            phase_duration_hours=0.5, seed=5,
        )
        trace = Trace.from_stream(stream_all_to_all_shuffle(network, params))
        assert len(trace) == 1200
        slot = 3600.0  # 4 h / 4 phases
        for flow in trace:
            offset = flow.start_time % slot
            assert offset < 0.5 * 3600.0  # inside the phase's active window

    def test_participant_fraction_limits_hosts(self, network):
        params = AllToAllShuffleParams(
            total_flows=2000, duration_hours=1.0, phase_count=1,
            phase_duration_hours=1.0, participant_fraction=0.1, seed=5,
        )
        trace = Trace.from_stream(stream_all_to_all_shuffle(network, params))
        hosts = {flow.src_host_id for flow in trace} | {flow.dst_host_id for flow in trace}
        assert len(hosts) <= max(2, round(network.host_count() * 0.1))

    def test_phases_must_fit_duration(self):
        with pytest.raises(ConfigurationError):
            AllToAllShuffleParams(duration_hours=1.0, phase_count=4, phase_duration_hours=0.5)


class TestUniformBackground:
    def test_counts_and_duration(self, network):
        params = UniformBackgroundParams(total_flows=800, duration_hours=2.0, seed=5)
        trace = Trace.from_stream(stream_uniform_background(network, params))
        assert len(trace) == 800
        assert all(flow.start_time < 7200.0 for flow in trace)

    def test_no_pair_concentration(self, network):
        params = UniformBackgroundParams(total_flows=4000, duration_hours=2.0, seed=5)
        activity = Trace.from_stream(stream_uniform_background(network, params)).pair_activity()
        # Uniform traffic has no heavy decile: far below the realistic 90%.
        assert activity.top_decile_share < 0.35


class TestFractionalDurationHours:
    """Regression tests: duration_hours accepts floats (was int-typed)."""

    def test_realistic_profile_accepts_float_duration(self, network):
        profile = RealisticTraceProfile(total_flows=2000, duration_hours=1.5, seed=5)
        trace = RealisticTraceGenerator(network, profile).generate(name="frac")
        assert all(flow.start_time < 1.5 * 3600.0 for flow in trace)
        # The partial half hour still receives flows.
        assert any(flow.start_time >= 3600.0 for flow in trace)

    def test_realistic_integer_float_duration_identical_to_int(self, network):
        int_profile = RealisticTraceProfile(total_flows=1000, duration_hours=2, seed=5)
        float_profile = RealisticTraceProfile(total_flows=1000, duration_hours=2.0, seed=5)
        int_trace = RealisticTraceGenerator(network, int_profile).generate(name="t")
        float_trace = RealisticTraceGenerator(network, float_profile).generate(name="t")
        assert list(int_trace) == list(float_trace)

    def test_synthetic_spec_accepts_float_duration(self, network):
        spec = SyntheticTraceSpec(
            name="frac", concentrated_flow_fraction=0.9,
            concentrated_pair_fraction=0.1, total_flows=1000,
            duration_hours=0.5, seed=5,
        )
        trace = SyntheticTraceGenerator(network).generate(spec)
        assert len(trace) == 1000
        assert all(flow.start_time < 1800.0 for flow in trace)

    def test_zero_duration_still_rejected(self):
        with pytest.raises(ConfigurationError):
            RealisticTraceProfile(duration_hours=0.0)
        with pytest.raises(ConfigurationError):
            SyntheticTraceSpec(name="x", concentrated_flow_fraction=0.5,
                               concentrated_pair_fraction=0.1, duration_hours=0.0)
