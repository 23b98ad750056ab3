"""Tests for the traffic-model and topology registries and their spec glue."""

import dataclasses
import json

import pytest

from repro.common.errors import ConfigurationError
from repro.core.scenario import ScenarioSpec, TopologySpec, TraceSpec
from repro.topology.builder import TopologyProfile, build_multi_tenant_datacenter
from repro.topology.registry import (
    available_topologies,
    get_topology,
    register_topology,
    unregister_topology,
)
from repro.traffic.flow import FlowRecord
from repro.traffic.mix import TrafficComponentSpec, TrafficMixSpec, stream_mix_trace
from repro.traffic.registry import (
    available_traffic_models,
    get_traffic_model,
    register_traffic_model,
    unregister_traffic_model,
)
from repro.traffic.trace import Trace


@pytest.fixture(scope="module")
def network():
    return build_multi_tenant_datacenter(
        TopologyProfile(switch_count=8, host_count=80, seed=11, home_switches_per_tenant=2)
    )


class TestTrafficModelRegistry:
    def test_a_model_needs_a_trace_or_a_stream_factory(self):
        @dataclasses.dataclass(frozen=True)
        class NoParams:
            seed: int = 1

        with pytest.raises(ConfigurationError, match="needs a trace or a stream factory"):
            register_traffic_model("factoryless", params=NoParams)(None)
        assert "factoryless" not in {entry.name for entry in available_traffic_models()}

    def test_builtin_models_registered(self):
        names = {entry.name for entry in available_traffic_models()}
        assert {
            "realistic",
            "synthetic",
            "elephant-mice",
            "incast-hotspot",
            "all-to-all-shuffle",
            "uniform",
            "mix",
        } <= names

    def test_at_least_six_models(self):
        assert len(available_traffic_models()) >= 6

    def test_unknown_name_lists_known_models(self):
        with pytest.raises(ConfigurationError, match="realistic"):
            get_traffic_model("no-such-model")

    def test_duplicate_registration_rejected(self):
        @dataclasses.dataclass(frozen=True)
        class P:
            seed: int = 1

        with pytest.raises(ConfigurationError, match="already registered"):
            register_traffic_model("realistic", params=P)(lambda *a, **k: None)

    def test_replace_and_unregister(self, network):
        @dataclasses.dataclass(frozen=True)
        class P:
            total_flows: int = 10
            seed: int = 1

        def factory(net, params, *, name="two-host"):
            flows = [
                FlowRecord(start_time=float(i), flow_id=i, src_host_id=0, dst_host_id=1)
                for i in range(params.total_flows)
            ]
            return Trace(name, net, flows)

        register_traffic_model("test-third-party", params=P, label="3p")(factory)
        try:
            spec = TraceSpec(model="test-third-party", params={"total_flows": 5})
            trace = spec.build(network)
            assert len(trace) == 5
        finally:
            unregister_traffic_model("test-third-party")
        with pytest.raises(ConfigurationError):
            get_traffic_model("test-third-party")

    def test_params_must_be_dataclass(self):
        with pytest.raises(ConfigurationError, match="dataclass"):
            register_traffic_model("bad", params=dict)(lambda *a, **k: None)

    def test_make_params_names_offending_key(self):
        entry = get_traffic_model("uniform")
        with pytest.raises(ConfigurationError, match="'total_flowz'"):
            entry.make_params({"total_flowz": 10})

    def test_param_names_exposed(self):
        assert "total_flows" in get_traffic_model("realistic").param_names()


class TestTopologyRegistry:
    def test_builtin_shapes_registered(self):
        names = {entry.name for entry in available_topologies()}
        assert {"multi-tenant", "paper-real", "paper-synthetic", "striped", "multi-pod"} <= names

    def test_at_least_three_shapes(self):
        assert len(available_topologies()) >= 3

    def test_unknown_name_lists_known_shapes(self):
        with pytest.raises(ConfigurationError, match="multi-tenant"):
            get_topology("no-such-shape")

    def test_duplicate_registration_rejected(self):
        @dataclasses.dataclass(frozen=True)
        class P:
            seed: int = 1

        with pytest.raises(ConfigurationError, match="already registered"):
            register_topology("striped", params=P)(lambda p: None)

    def test_third_party_shape_end_to_end(self):
        @dataclasses.dataclass(frozen=True)
        class P:
            switch_count: int = 2
            host_count: int = 8
            seed: int = 1

        def factory(params):
            return build_multi_tenant_datacenter(
                TopologyProfile(
                    switch_count=params.switch_count,
                    host_count=params.host_count,
                    min_tenant_size=2,
                    max_tenant_size=4,
                    seed=params.seed,
                )
            )

        register_topology("test-shape", params=P)(factory)
        try:
            spec = TopologySpec(shape="test-shape", params={"host_count": 12})
            network = spec.build()
            assert network.host_count() == 12
            assert spec.dimensions() == (2, 12)
        finally:
            unregister_topology("test-shape")

    def test_striped_topology_spreads_each_tenant(self):
        network = get_topology("striped").build(
            {"switch_count": 10, "host_count": 120, "seed": 3}
        )
        assert network.switch_count() == 10
        assert network.host_count() == 120
        for tenant in network.tenants.tenants():
            switches = {network.host(h).switch_id for h in tenant.host_ids}
            # Anti-local: a tenant touches as many switches as it can.
            assert len(switches) == min(tenant.size, 10)

    def test_multi_pod_topology_confines_tenants(self):
        network = get_topology("multi-pod").build(
            {"pod_count": 3, "switches_per_pod": 4, "host_count": 120,
             "pod_spill_fraction": 0.0, "seed": 3}
        )
        assert network.switch_count() == 12
        for tenant in network.tenants.tenants():
            pods = {network.host(h).switch_id // 4 for h in tenant.host_ids}
            assert len(pods) == 1  # no spill -> fully confined to the home pod

    def test_paper_scale_dimensions(self):
        entry = get_topology("paper-real")
        params = entry.make_params({"scale": 0.05})
        assert params.switch_count == max(8, round(272 * 0.05))
        assert params.host_count == max(64, round(6509 * 0.05))

    def test_paper_synthetic_scale_dimensions(self):
        params = get_topology("paper-synthetic").make_params({"scale": 0.002})
        assert (params.switch_count, params.host_count) == (16, 130)
        assert get_topology("paper-synthetic").make_params({"scale": 0.0001}).host_count == 128

    @pytest.mark.parametrize("shape", ["paper-real", "paper-synthetic"])
    def test_paper_shapes_build_their_dimensions(self, shape):
        entry = get_topology(shape)
        params = entry.make_params({"scale": 0.005, "uplink_mbps": 3.0, "seed": 4})
        network = entry.build({"scale": 0.005, "uplink_mbps": 3.0, "seed": 4})
        assert (network.switch_count(), network.host_count()) == (params.switch_count, params.host_count)
        assert set(network.link_capacities_mbps().values()) == {3.0}

    @pytest.mark.parametrize("shape", ["paper-real", "paper-synthetic"])
    @pytest.mark.parametrize("params", [{"scale": 0.0}, {"scale": -1.0}, {"uplink_mbps": 0.0}])
    def test_paper_shape_params_are_validated(self, shape, params):
        with pytest.raises(ConfigurationError, match="must be positive"):
            get_topology(shape).make_params(params)

    @pytest.mark.parametrize(
        "params, message",
        [
            ({"switch_count": 0}, "switch_count"),
            ({"host_count": 0}, "host_count"),
            ({"min_tenant_size": 30, "max_tenant_size": 20}, "tenant size bounds"),
            ({"uplink_mbps": -1.0}, "uplink_mbps"),
        ],
    )
    def test_striped_params_are_validated(self, params, message):
        with pytest.raises(ConfigurationError, match=message):
            get_topology("striped").make_params(params)

    @pytest.mark.parametrize(
        "params, message",
        [
            ({"pod_count": 0}, "pod_count"),
            ({"switches_per_pod": 0}, "switches_per_pod"),
            ({"host_count": 0}, "host_count"),
            ({"min_tenant_size": 0}, "tenant size bounds"),
            ({"home_switches_per_tenant": 0}, "home_switches_per_tenant"),
            ({"pod_spill_fraction": 1.5}, "pod_spill_fraction"),
            ({"uplink_mbps": 0.0}, "uplink_mbps"),
        ],
    )
    def test_multi_pod_params_are_validated(self, params, message):
        with pytest.raises(ConfigurationError, match=message):
            get_topology("multi-pod").make_params(params)

    def test_multi_pod_switch_count_is_pods_times_switches(self):
        params = get_topology("multi-pod").make_params({"pod_count": 3, "switches_per_pod": 5})
        assert params.switch_count == 15


class TestTopologySpec:
    def test_round_trip(self):
        spec = TopologySpec(shape="striped", params={"switch_count": 6, "host_count": 40})
        data = json.loads(json.dumps(spec.params))
        assert TopologySpec(shape="striped", params=data) == spec

    def test_with_params_rejects_unsupported_key(self):
        spec = TopologySpec(shape="multi-pod", params={"host_count": 60})
        with pytest.raises(ConfigurationError, match="switch_count"):
            spec.with_params(switch_count=10)

    def test_with_params_merges(self):
        spec = TopologySpec(shape="multi-tenant", params={"switch_count": 4, "host_count": 20})
        bigger = spec.with_params(host_count=40)
        assert bigger.params["host_count"] == 40
        assert bigger.params["switch_count"] == 4

    def test_empty_shape_rejected(self):
        with pytest.raises(ConfigurationError):
            TopologySpec(shape="  ")

    def test_profile_wrap(self):
        profile = TopologyProfile(switch_count=4, host_count=20, seed=9)
        spec = TopologySpec.from_profile(profile)
        assert spec.shape == "multi-tenant"
        assert spec.resolved_params() == profile


class TestTraceSpec:
    def test_constructors(self):
        assert TraceSpec.realistic(total_flows=10).model == "realistic"
        mix = TrafficMixSpec(components=(TrafficComponentSpec(model="uniform"),))
        assert TraceSpec.mix(mix).model == "mix"

    def test_realistic_rejects_profile_plus_kwargs(self):
        from repro.traffic.realistic import RealisticTraceProfile

        with pytest.raises(ConfigurationError):
            TraceSpec.realistic(RealisticTraceProfile(), total_flows=5)

    def test_with_params_rejects_unsupported_key(self):
        with pytest.raises(ConfigurationError, match="uniform"):
            TraceSpec(model="uniform").with_params(hotspot_count=2)

    def test_total_flows_property(self):
        assert TraceSpec.realistic(total_flows=123).total_flows == 123
        assert TraceSpec(model="uniform").total_flows == 200_000

    def test_build_applies_expansion(self, network):
        base = TraceSpec(model="uniform", params={"total_flows": 500, "duration_hours": 24.0})
        expanded = dataclasses.replace(base, expand_fraction=0.2)
        assert len(expanded.build(network)) == round(len(base.build(network)) * 1.2)

    def test_selectable_by_name_from_scenario_json(self, network):
        spec = ScenarioSpec(
            name="by-name",
            topology=TopologySpec(
                shape="striped", params={"switch_count": 4, "host_count": 24}
            ),
            traffic=TraceSpec(model="elephant-mice", params={"total_flows": 200}),
            systems=("openflow",),
        )
        rebuilt = ScenarioSpec.from_json(spec.to_json())
        assert rebuilt == spec
        trace = rebuilt.build_trace(rebuilt.build_network())
        assert len(trace) == 200


class TestTrafficMix:
    def test_weights_split_the_flow_budget(self, network):
        mix = TrafficMixSpec(
            components=(
                TrafficComponentSpec(model="uniform", weight=3.0),
                TrafficComponentSpec(model="elephant-mice", weight=1.0),
            ),
            total_flows=4000,
            duration_hours=4.0,
        )
        trace = Trace.from_stream(stream_mix_trace(network, mix))
        assert len(trace) == 4000

    def test_inexact_weight_shares_still_hit_the_budget_exactly(self, network):
        # Largest-remainder allocation: three equal thirds of 100 must not
        # round down to 99 (and tiny budgets must not banker's-round short).
        for total in (100, 5):
            mix = TrafficMixSpec(
                components=tuple(
                    TrafficComponentSpec(model="uniform", params={"seed": i})
                    for i in range(3)
                ),
                total_flows=total,
                duration_hours=1.0,
            )
            assert len(Trace.from_stream(stream_mix_trace(network, mix))) == total

    def test_windows_confine_components(self, network):
        mix = TrafficMixSpec(
            components=(
                TrafficComponentSpec(
                    model="uniform", weight=1.0, window_hours=(2.0, 3.0)
                ),
            ),
            total_flows=500,
            duration_hours=4.0,
        )
        trace = Trace.from_stream(stream_mix_trace(network, mix))
        assert all(2.0 * 3600 <= flow.start_time < 3.0 * 3600 for flow in trace)

    def test_flow_ids_are_canonical(self, network):
        mix = TrafficMixSpec(
            components=(
                TrafficComponentSpec(model="uniform", weight=1.0),
                TrafficComponentSpec(model="incast-hotspot", weight=1.0),
            ),
            total_flows=600,
            duration_hours=2.0,
        )
        trace = Trace.from_stream(stream_mix_trace(network, mix))
        assert [flow.flow_id for flow in trace] == list(range(len(trace)))
        times = [flow.start_time for flow in trace]
        assert times == sorted(times)

    def test_empty_mix_rejected(self):
        with pytest.raises(ConfigurationError, match="at least one component"):
            TrafficMixSpec(components=())

    def test_window_beyond_duration_rejected(self):
        with pytest.raises(ConfigurationError, match="beyond the mix duration"):
            TrafficMixSpec(
                components=(
                    TrafficComponentSpec(model="uniform", window_hours=(0.0, 30.0)),
                ),
                duration_hours=24.0,
            )

    def test_zero_weight_rejected(self):
        with pytest.raises(ConfigurationError, match="weight"):
            TrafficComponentSpec(model="uniform", weight=0.0)

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"model": " "}, "non-empty"),
            ({"model": "uniform", "window_hours": (-1.0, 2.0)}, "window_hours"),
            ({"model": "uniform", "window_hours": (3.0, 3.0)}, "window_hours"),
        ],
    )
    def test_component_rejects(self, kwargs, message):
        with pytest.raises(ConfigurationError, match=message):
            TrafficComponentSpec(**kwargs)

    @pytest.mark.parametrize(
        "kwargs, message",
        [({"total_flows": 0}, "total_flows"), ({"duration_hours": 0.0}, "duration_hours")],
    )
    def test_mix_rejects(self, kwargs, message):
        with pytest.raises(ConfigurationError, match=message):
            TrafficMixSpec(components=(TrafficComponentSpec(model="uniform"),), **kwargs)

    def test_single_flow_mix_materializes(self, network):
        mix = TrafficMixSpec(
            components=(TrafficComponentSpec(model="uniform"),),
            total_flows=1,
            duration_hours=1.0,
        )
        trace = Trace.from_stream(stream_mix_trace(network, mix))
        assert len(trace) == 1

    def test_nested_mix_composes(self, network):
        inner = TrafficMixSpec(
            components=(TrafficComponentSpec(model="uniform"),),
            total_flows=100,
            duration_hours=2.0,
        )
        outer = TrafficMixSpec(
            components=(
                TrafficComponentSpec(model="mix", params=dataclasses.asdict(inner)),
                TrafficComponentSpec(model="elephant-mice"),
            ),
            total_flows=400,
            duration_hours=2.0,
        )
        trace = Trace.from_stream(stream_mix_trace(network, outer))
        assert len(trace) == 400

    def test_mix_model_registered(self, network):
        spec = TraceSpec(
            model="mix",
            params={
                "components": [
                    {"model": "uniform", "weight": 1.0},
                ],
                "total_flows": 100,
                "duration_hours": 1.0,
            },
        )
        assert len(spec.build(network)) == 100
