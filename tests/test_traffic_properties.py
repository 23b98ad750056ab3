"""Property tests (hypothesis): traffic-model determinism and mix composition.

Two invariants every registered traffic model must uphold:

* **determinism** — identical spec + seed over the same topology produce a
  bit-identical ``FlowRecord`` sequence (the whole benchmark-baseline scheme
  rests on this);
* **order independence of mixes** — permuting a mix's components yields a
  bit-identical merged trace, because component seeds derive from content
  fingerprints and flow ids are renumbered canonically.

The base-params table below must cover every registered built-in model; the
coverage test fails when a new model is added without extending it.
"""

from hypothesis import given, settings, strategies as st

from repro.topology.builder import TopologyProfile, build_multi_tenant_datacenter
from repro.traffic.mix import TrafficComponentSpec, TrafficMixSpec, stream_mix_trace
from repro.traffic.trace import Trace
from repro.traffic.registry import available_traffic_models, get_traffic_model

#: One small-but-representative params dict per registered built-in model
#: (the mix model is exercised separately by the composition properties).
BASE_PARAMS = {
    "realistic": {"total_flows": 300, "duration_hours": 3.0},
    "synthetic": {"total_flows": 300, "duration_hours": 3.0},
    "elephant-mice": {"total_flows": 300, "duration_hours": 3.0, "elephant_pair_count": 4},
    "incast-hotspot": {"total_flows": 300, "duration_hours": 3.0, "hotspot_count": 2},
    "all-to-all-shuffle": {
        "total_flows": 300, "duration_hours": 3.0,
        "phase_count": 3, "phase_duration_hours": 0.5,
    },
    "uniform": {"total_flows": 300, "duration_hours": 3.0},
}

_NETWORK = build_multi_tenant_datacenter(
    TopologyProfile(switch_count=6, host_count=48, seed=17, home_switches_per_tenant=2)
)

model_names = st.sampled_from(sorted(BASE_PARAMS))
seeds = st.integers(min_value=0, max_value=2**16)


def test_base_params_cover_every_builtin_model():
    registered = {entry.name for entry in available_traffic_models()}
    assert registered - {"mix"} == set(BASE_PARAMS), (
        "a traffic model was registered without property-test coverage; "
        "add it to BASE_PARAMS"
    )


class TestModelDeterminism:
    @given(model=model_names, seed=seeds)
    @settings(max_examples=30, deadline=None)
    def test_identical_spec_and_seed_identical_flows(self, model, seed):
        entry = get_traffic_model(model)
        params = {**BASE_PARAMS[model], "seed": seed}
        first = entry.build(_NETWORK, params=params, name="prop")
        second = entry.build(_NETWORK, params=params, name="prop")
        assert list(first) == list(second)

    @given(model=model_names, seed=seeds)
    @settings(max_examples=15, deadline=None)
    def test_different_seeds_differ(self, model, seed):
        entry = get_traffic_model(model)
        first = entry.build(_NETWORK, params={**BASE_PARAMS[model], "seed": seed}, name="p")
        second = entry.build(_NETWORK, params={**BASE_PARAMS[model], "seed": seed + 1}, name="p")
        # Not a hard guarantee flow-by-flow, but two full sequences colliding
        # would mean the seed is ignored.
        assert list(first) != list(second)


def _component(model, seed_offset, window):
    params = {key: value for key, value in BASE_PARAMS[model].items()
              if key not in ("total_flows", "duration_hours")}
    if model == "all-to-all-shuffle":
        # Phases must fit the shortest component window drawn below (1 h).
        params.update(phase_count=2, phase_duration_hours=0.25)
    return TrafficComponentSpec(
        model=model,
        params=params,
        weight=1.0 + seed_offset,
        window_hours=window,
    )


component_lists = st.lists(
    st.builds(
        _component,
        model_names,
        st.integers(min_value=0, max_value=3),
        st.sampled_from([None, (0.0, 1.0), (1.0, 2.5)]),
    ),
    min_size=2,
    max_size=4,
)


class TestMixProperties:
    @given(components=component_lists, seed=seeds, data=st.data())
    @settings(max_examples=25, deadline=None)
    def test_component_order_never_changes_the_trace(self, components, seed, data):
        permutation = data.draw(st.permutations(components))
        base = TrafficMixSpec(
            components=tuple(components), total_flows=400, duration_hours=3.0, seed=seed
        )
        shuffled = TrafficMixSpec(
            components=tuple(permutation), total_flows=400, duration_hours=3.0, seed=seed
        )
        first = Trace.from_stream(stream_mix_trace(_NETWORK, base))
        second = Trace.from_stream(stream_mix_trace(_NETWORK, shuffled))
        assert list(first) == list(second)

    @given(components=component_lists, seed=seeds)
    @settings(max_examples=15, deadline=None)
    def test_mix_is_deterministic(self, components, seed):
        mix = TrafficMixSpec(
            components=tuple(components), total_flows=400, duration_hours=3.0, seed=seed
        )
        assert list(Trace.from_stream(stream_mix_trace(_NETWORK, mix))) == list(
            Trace.from_stream(stream_mix_trace(_NETWORK, mix))
        )
