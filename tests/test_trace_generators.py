"""Unit tests for the realistic and synthetic trace generators and trace expansion."""

import dataclasses
from collections import Counter

import pytest

from repro.common.errors import ConfigurationError, TrafficError
from repro.topology.builder import TopologyProfile, build_multi_tenant_datacenter
from repro.traffic.expand import expand_trace
from repro.traffic.flow import FlowRecord
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


def _reference_realistic_emit(generator):
    """The realistic model's emit loop as first written (readable, slow).

    ``RealisticTraceGenerator.stream`` tightened it — hoisted bound methods,
    inlined ``sample_zipf_index`` and the clamps — on the promise that every
    draw stays bit-identical; this is the loop that promise is held against.
    """
    from repro.common.rng import make_rng, sample_zipf_index

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


class TestRealisticGenerator:
    @pytest.mark.parametrize("seed", [7, 2015])
    def test_tightened_emit_loop_draws_what_the_original_drew(self, network, seed):
        from repro.common.rng import make_rng

        generator = RealisticTraceGenerator(
            network, RealisticTraceProfile(total_flows=6000, duration_hours=24.0, seed=seed)
        )
        stream = generator.stream()
        reference_emit = _reference_realistic_emit(generator)
        windows = [window for window in stream._windows if window.flow_count]
        assert len(windows) == 24
        for window in windows:
            labels = ("realistic-trace", "real-like", "chunk", str(window.index))
            assert stream._emit(make_rng(seed, *labels), window) == reference_emit(
                make_rng(seed, *labels), window
            )

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
