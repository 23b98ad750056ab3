"""Property tests: the streamed and materialized trace paths are bit-identical.

The streaming refactor's core contract — for every registered traffic model
(nested mixes, fractional durations and the §V-D expansion included), the
chunked stream and the materialized trace must agree on:

* the exact ``FlowRecord`` sequence (ids, timestamps, endpoints, payloads);
* the replayed arrival sequence and deterministic replay counters;
* the derived intensity matrix over arbitrary windows;
* the columnar chunks the streams now yield: records minted from them, their
  slices, bisect positions and window trimming, the kernel fed by them, and
  their validation errors all equal what the record lists they replaced gave.

The base-params table must cover every registered built-in model; the
coverage test fails when a new model is added without extending it.
"""

import heapq
from bisect import bisect_left
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from repro.common.errors import UnknownHostError
from repro.common.rng import make_rng
from repro.core import scenario
from repro.core.scenario import TraceSpec
from repro.topology.builder import TopologyProfile, build_multi_tenant_datacenter
from repro.traffic.chunk import FlowChunk, draw_of
from repro.traffic.flow import FlowRecord
from repro.traffic.mix import TrafficComponentSpec, TrafficMixSpec
from repro.traffic.registry import available_traffic_models, get_traffic_model
from repro.replay.spec import ExecutionSpec
from repro.traffic.replay import TraceReplayer
from repro.traffic.stream import (
    GeneratedStream,
    MergedStream,
    windowed_chunks,
)
from repro.traffic.trace import Trace

#: One small-but-representative params dict per registered built-in model
#: (the mix model is exercised by the nested-mix property below).
BASE_PARAMS = {
    "realistic": {"total_flows": 250},
    "synthetic": {"total_flows": 250},
    "elephant-mice": {"total_flows": 250, "elephant_pair_count": 4},
    "incast-hotspot": {"total_flows": 250, "hotspot_count": 2},
    "all-to-all-shuffle": {"total_flows": 250, "phase_count": 2, "phase_duration_hours": 0.25},
    "uniform": {"total_flows": 250},
}

_NETWORK = build_multi_tenant_datacenter(
    TopologyProfile(switch_count=6, host_count=48, seed=23, home_switches_per_tenant=2)
)

model_names = st.sampled_from(sorted(BASE_PARAMS))
seeds = st.integers(min_value=0, max_value=2**16)
#: Whole and fractional day lengths (the final partial diurnal hour is the
#: case the realistic model special-cases).
durations = st.sampled_from([1.0, 2.0, 1.5, 2.25])
#: Without and with +30 % flows among the model's silent pairs.
expansions = st.sampled_from([0.0, 0.3])


def test_base_params_cover_every_builtin_model():
    registered = {entry.name for entry in available_traffic_models()}
    assert registered - {"mix"} == set(BASE_PARAMS), (
        "a traffic model was registered without stream-equivalence coverage; "
        "add it to BASE_PARAMS"
    )


def _build_both(model: str, params: dict, expand: float = 0.0):
    spec = TraceSpec(model=model, params=params, expand_fraction=expand)
    # The expansion lands inside the shortest day the properties draw.
    with mock.patch.object(scenario, "EXPAND_WINDOW_HOURS", (0.25, 1.0)):
        return spec.build_stream(_NETWORK, name="equiv"), spec.build(_NETWORK, name="equiv")


class _CountingSink:
    def __init__(self):
        self.arrivals = []

    def handle_flow_arrival(self, flow, now):
        self.arrivals.append((flow.flow_id, flow.src_host_id, flow.dst_host_id, now))


def _replay(source):
    sink = _CountingSink()
    ticks = []
    # end=None clamps to the last arrival actually seen — the one window
    # definition both a nominal-duration stream and a materialized trace
    # share exactly.
    progress = TraceReplayer(
        source, sink, periodic_interval=300.0, periodic_callbacks=[ticks.append]
    ).replay(start=0.0, end=None)
    return sink.arrivals, ticks, progress.flows_replayed, progress.periodic_invocations


class TestStreamEquivalence:
    @given(model=model_names, seed=seeds, duration=durations, expand=expansions)
    @settings(max_examples=40, deadline=None)
    def test_streamed_flows_equal_materialized(self, model, seed, duration, expand):
        params = {**BASE_PARAMS[model], "seed": seed, "duration_hours": duration}
        stream, trace = _build_both(model, params, expand)
        streamed = [flow for chunk in stream.chunks() for flow in chunk]
        assert streamed == list(trace)
        assert stream.total_flows == len(trace) == round(250 * (1.0 + expand))
        assert [flow.flow_id for flow in streamed] == list(range(len(streamed)))

    @given(model=model_names, seed=seeds, duration=durations, expand=expansions)
    @settings(max_examples=15, deadline=None)
    def test_streamed_replay_equals_materialized_replay(self, model, seed, duration, expand):
        params = {**BASE_PARAMS[model], "seed": seed, "duration_hours": duration}
        stream, trace = _build_both(model, params, expand)
        assert _replay(stream) == _replay(trace)

    @given(model=model_names, seed=seeds, expand=expansions)
    @settings(max_examples=15, deadline=None)
    def test_streamed_intensity_equals_materialized(self, model, seed, expand):
        params = {**BASE_PARAMS[model], "seed": seed, "duration_hours": 1.5}
        stream, trace = _build_both(model, params, expand)
        for start, end in ((0.0, None), (0.0, 1800.0), (600.0, 4000.0)):
            assert sorted(stream.switch_intensity(start=start, end=end).pairs()) == sorted(
                trace.switch_intensity(start=start, end=end).pairs()
            )


class TestWindowedGeneration:
    """A time-window shard generates its own window — nothing before it,
    nothing past it — and the shards together are the serial stream."""

    @pytest.mark.parametrize("windows", [1, 2, 4, 8])
    @pytest.mark.parametrize("model", sorted(BASE_PARAMS))
    def test_shard_windows_concatenate_to_the_serial_stream(self, model, windows):
        hours = 6.0
        params = {**BASE_PARAMS[model], "total_flows": 1200, "seed": 31, "duration_hours": hours}
        stream = get_traffic_model(model).build(_NETWORK, params=params, name="equiv")
        serial = [_fields(flow) for flow in stream]
        assert len(serial) == 1200
        edges = [hours * 3600.0 * index / windows for index in range(windows)] + [None]
        sharded = [
            _fields(flow)
            for start, end in zip(edges, edges[1:])
            for chunk in windowed_chunks(stream, start=start, end=end)
            for flow in chunk
        ]
        assert sharded == serial  # flow ids included


def _mix_params(inner_models, seed, duration):
    """A mix whose last component is itself a mix (the nesting case)."""
    components = [
        {"model": model, "params": {}, "weight": 1.0 + index}
        for index, model in enumerate(inner_models)
    ]
    nested = TrafficMixSpec(
        components=(
            TrafficComponentSpec(model="uniform", weight=1.0),
            TrafficComponentSpec(model=inner_models[0], weight=2.0),
        ),
        total_flows=100,
        duration_hours=duration,
        seed=seed + 1,
    )
    from repro.common.serialize import dataclass_to_dict

    components.append({"model": "mix", "params": dataclass_to_dict(nested), "weight": 1.0})
    return {
        "components": components,
        "total_flows": 300,
        "duration_hours": duration,
        "seed": seed,
    }


class TestMixStreamEquivalence:
    @given(
        inner=st.lists(model_names, min_size=1, max_size=2, unique=True),
        seed=seeds,
        duration=st.sampled_from([1.0, 1.5]),
    )
    @settings(max_examples=15, deadline=None)
    def test_nested_mix_streamed_equals_materialized(self, inner, seed, duration):
        # Shuffle phases must fit the shortest duration drawn above.
        inner = [
            model if model != "all-to-all-shuffle" else "uniform" for model in inner
        ] or ["uniform"]
        params = _mix_params(inner, seed, duration)
        stream, trace = _build_both("mix", params)
        streamed = [flow for chunk in stream.chunks() for flow in chunk]
        assert streamed == list(trace)
        assert _replay(stream)[:2] == _replay(trace)[:2]

    @given(seed=seeds)
    @settings(max_examples=10, deadline=None)
    def test_mix_stream_component_order_independent(self, seed):
        components = (
            TrafficComponentSpec(model="uniform", weight=1.0),
            TrafficComponentSpec(model="elephant-mice", params={"elephant_pair_count": 3}, weight=2.0),
            TrafficComponentSpec(model="incast-hotspot", params={"hotspot_count": 2}, weight=0.5,
                                 window_hours=(0.25, 0.75)),
        )
        forward = TrafficMixSpec(components=components, total_flows=240, duration_hours=1.0, seed=seed)
        backward = TrafficMixSpec(components=components[::-1], total_flows=240, duration_hours=1.0, seed=seed)
        from repro.traffic.mix import stream_mix_trace

        assert list(stream_mix_trace(_NETWORK, forward)) == list(stream_mix_trace(_NETWORK, backward))


#: ``paper-fig7-expanded`` at its default 20 000 base flows, as read from the
#: record-born expansion this stream replaced (PR 20, commit 271255e).
EXPANDED_PINS = {
    "openflow": {
        "total_controller_requests": 17810,
        "updates": [0.0] * 24,
        "counters": dict(flows_handled=26000, local_flows=5940, intra_group_flows=0,
                         inter_group_flows=0, controller_requests=17529),
    },
    "lazyctrl-static": {
        "total_controller_requests": 5701,
        "updates": [0.0] * 24,
        "counters": dict(flows_handled=26000, local_flows=5940, intra_group_flows=14166,
                         inter_group_flows=5701, controller_requests=5701),
    },
    "lazyctrl-dynamic": {
        "total_controller_requests": 5224,
        "updates": [1.0, 0.0, 1.0, 0.0, 2.0, 0.0, 1.0, 0.0, 1.0, 0.0, 1.0, 0.0,
                    1.0, 0.0, 0.0, 2.0, 0.0, 1.0, 0.0, 2.0, 0.0, 1.0, 0.0, 2.0],
        "counters": dict(flows_handled=26000, local_flows=5940, intra_group_flows=14722,
                         inter_group_flows=5224, controller_requests=5224),
    },
}


class TestScenarioStreamEquivalence:
    @pytest.mark.parametrize(
        "preset,flows,pins",
        [("paper-fig7", 2500, None), ("paper-fig7-expanded", 20_000, EXPANDED_PINS)],
        ids=("paper-fig7", "paper-fig7-expanded"),
    )
    def test_scenario_runner_streamed_counters_match_materialized(self, preset, flows, pins):
        import dataclasses

        from repro.core.presets import get_preset
        from repro.core.results import SystemCounters
        from repro.core.runner import ScenarioRunner

        spec = get_preset(preset).specs()[0]
        spec = dataclasses.replace(spec, traffic=spec.traffic.with_params(total_flows=flows))
        runner = ScenarioRunner()
        materialized = runner.run(spec)
        streamed = runner.run(dataclasses.replace(spec, execution=ExecutionSpec(stream=True)))
        for name in materialized.runs:
            left, right = materialized.runs[name], streamed.runs[name]
            assert left.counters == right.counters
            assert left.total_controller_requests == right.total_controller_requests
            assert left.workload.krps == right.workload.krps
            assert left.latency == right.latency
            assert left.updates_per_hour == right.updates_per_hour
            if pins is not None:
                pinned = pins[name]
                assert left.total_controller_requests == pinned["total_controller_requests"]
                assert left.updates_per_hour == pinned["updates"]
                assert left.counters == SystemCounters(**pinned["counters"])


# -- columnar chunks ≡ the record lists they replaced ----------------------------
#
# The reference below is the pre-chunk pipeline kept verbatim: one keyword-built
# FlowRecord per sorted draw (generated streams) and per merged key (mixes).
# Everything a FlowChunk does — minting, slicing, bisecting, trimming, feeding
# the kernel — is held against those records.

_FIELDS = (
    "start_time",
    "flow_id",
    "src_host_id",
    "dst_host_id",
    "packet_count",
    "byte_count",
    "duration",
)


def _fields(flow):
    return tuple(getattr(flow, name) for name in _FIELDS)


def _record(draw, flow_id):
    return FlowRecord(
        start_time=draw[0],
        flow_id=flow_id,
        src_host_id=draw[1],
        dst_host_id=draw[2],
        packet_count=draw[3],
        byte_count=draw[4],
        duration=draw[5],
    )


def _reference_chunks(stream):
    """The record-list chunks the pre-chunk pipeline produced for ``stream``."""
    if isinstance(stream, GeneratedStream):
        flow_id = 0
        for window in stream._windows:
            if window.flow_count <= 0:
                continue
            rng = make_rng(stream._seed, *stream._rng_labels, "chunk", str(window.index))
            draws = sorted(zip(*stream._emit(rng, window)))
            yield [_record(draw, flow_id + offset) for offset, draw in enumerate(draws)]
            flow_id += len(draws)
        return
    assert isinstance(stream, MergedStream)

    def shifted(part, offset, span):
        for chunk in _reference_chunks(part):
            for flow in chunk:
                if flow.start_time >= span:
                    return
                key = draw_of(flow)
                yield (key[0] + offset, *key[1:]) if offset else key

    merged = heapq.merge(*(shifted(*part) for part in stream._parts))
    chunk = []
    for flow_id, key in enumerate(merged):
        chunk.append(_record(key, flow_id))
        if len(chunk) >= stream._chunk_flows:
            yield chunk
            chunk = []
    if chunk:
        yield chunk


def _params_for(model, seed, duration):
    if model == "mix":
        return _mix_params(["realistic", "incast-hotspot"], seed, duration)
    return {**BASE_PARAMS[model], "seed": seed, "duration_hours": duration}


chunk_models = st.sampled_from(sorted(BASE_PARAMS) + ["mix"])


class TestChunkEquivalence:
    @given(model=chunk_models, seed=seeds, duration=st.sampled_from([1.0, 1.5]))
    @settings(max_examples=30, deadline=None)
    def test_minted_records_equal_the_record_pipeline(self, model, seed, duration):
        stream = get_traffic_model(model).build(
            _NETWORK, params=_params_for(model, seed, duration), name="equiv"
        )
        chunks = list(stream.chunks())
        reference = list(_reference_chunks(stream))
        assert all(isinstance(chunk, FlowChunk) and chunk.mints_records for chunk in chunks)
        assert [len(chunk) for chunk in chunks] == [len(chunk) for chunk in reference]
        for chunk, records in zip(chunks, reference):
            # Iteration, indexing (both ends) and the id cursor agree field for field.
            assert [_fields(flow) for flow in chunk] == [_fields(flow) for flow in records]
            assert _fields(chunk[0]) == _fields(records[0])
            assert _fields(chunk[-1]) == _fields(records[-1])
            assert chunk.first_id == records[0].flow_id
        # The trace keeps the columns, then turns into the very same records.
        trace = Trace.from_stream(stream)
        flat = [flow for records in reference for flow in records]
        assert len(trace) == len(flat) and trace.duration == flat[-1].start_time
        assert [_fields(flow) for flow in trace.flows] == [_fields(flow) for flow in flat]
        assert trace.flows is trace.flows

    @given(model=chunk_models, seed=seeds, data=st.data())
    @settings(max_examples=30, deadline=None)
    def test_slices_bisect_and_trimming_agree_at_chunk_edges(
        self, model, seed, data, record_list_stream
    ):
        stream = get_traffic_model(model).build(
            _NETWORK, params=_params_for(model, seed, 1.5), name="equiv"
        )
        chunks = [chunk for chunk in stream.chunks() if len(chunk)]
        reference = [records for records in _reference_chunks(stream) if records]
        flat = [flow for records in reference for flow in records]

        index = data.draw(st.integers(min_value=0, max_value=len(chunks) - 1))
        chunk, records = chunks[index], reference[index]
        lo = data.draw(st.integers(min_value=0, max_value=len(chunk)))
        hi = data.draw(st.integers(min_value=0, max_value=len(chunk)))
        view = chunk[lo:hi]
        assert [_fields(flow) for flow in view] == [_fields(flow) for flow in records[lo:hi]]
        assert len(view) == len(records[lo:hi])
        if len(view):
            assert view.first_id == records[lo].flow_id
            assert _fields(view[len(view) - 1]) == _fields(records[hi - 1])

        # Window edges that sit exactly on a chunk's first / last arrival, a
        # hair either side of them, and somewhere in the middle.
        edge = data.draw(st.sampled_from([records[0], records[-1], records[len(records) // 2]]))
        nudge = data.draw(st.sampled_from([0.0, -1e-9, 1e-9]))
        start = max(0.0, edge.start_time + nudge)
        assert bisect_left(chunk.start_times, start) == bisect_left(
            records, start, key=lambda flow: flow.start_time
        )
        end = data.draw(st.sampled_from([None, start, start + 600.0, flat[-1].start_time]))
        expected = [
            _fields(flow)
            for flow in flat
            if flow.start_time >= start and (end is None or flow.start_time < end)
        ]
        listed = record_list_stream("lists", _NETWORK, flat, chunk_flows=37)
        for source in (stream, Trace.from_stream(stream), Trace("lists", _NETWORK, flat), listed):
            trimmed = list(windowed_chunks(source, start=start, end=end))
            assert [_fields(flow) for part in trimmed for flow in part] == expected
            assert all(isinstance(part, FlowChunk) for part in trimmed)

    @given(
        model=st.sampled_from(["realistic", "incast-hotspot", "mix"]),
        seed=seeds,
        tables=st.booleans(),
    )
    @settings(max_examples=8, deadline=None)
    def test_kernel_fed_chunks_equals_kernel_fed_record_lists(self, model, seed, tables):
        pytest.importorskip("numpy")
        from repro.core.runner import ScenarioRunner
        from repro.core.scenario import ScheduleSpec
        from repro.common.config import FlowTableConfig, LazyCtrlConfig
        from repro.obs.timeline import MetricsTimeline
        from repro.obs.tracer import EventTracer

        params = {**_params_for(model, seed, 2.0), "total_flows": 600}
        columnar = Trace.from_stream(get_traffic_model(model).build(_NETWORK, params=params, name="equiv"))
        listed = Trace("equiv", _NETWORK, list(get_traffic_model(model).build(
            _NETWORK, params=params, name="equiv"
        )))
        assert columnar.columns().mints_records and not listed.columns().mints_records
        schedule = ScheduleSpec(duration_hours=2.0, bucket_hours=1.0)
        config = LazyCtrlConfig()
        if tables:
            config = LazyCtrlConfig(flow_table=FlowTableConfig(policy="lru").resized(8))

        def run(trace, system):
            tracer = EventTracer(system=system, timeline=MetricsTimeline(schedule.bucket_seconds))
            result = ScenarioRunner().replay_system(
                system, trace, schedule=schedule, config=config, tracer=tracer, kernel="vectorized"
            )
            payload = result.to_dict()
            payload.pop("perf")
            return payload

        for system in ("openflow", "lazyctrl-dynamic"):
            assert run(columnar, system) == run(listed, system)
        # Feeding the kernel built no record list on the columnar trace.
        assert columnar._flows is None

    @pytest.mark.parametrize(
        "draw",
        [
            (-1.0, 0, 1, 10, 15_000, 1.0),
            (1.0, 3, 3, 10, 15_000, 1.0),
            (1.0, 0, 1, 0, 15_000, 1.0),
            (1.0, 0, 1, 10, 0, 1.0),
            (1.0, 0, 1, 10, 15_000, 0.0),
            # Two faults in one flow, and a later flow with an earlier check
            # failing: the first offending flow's first failed check wins.
            (1.0, 3, 3, 0, 15_000, -2.0),
        ],
    )
    def test_invalid_columns_raise_the_record_paths_errors(self, draw):
        good = (0.5, 0, 1, 10, 15_000, 1.0)
        late_fault = (2.0, 0, 1, 10, 15_000, -1.0)
        for draws in ([draw], [good, draw], [good, draw, late_fault]):
            draws = sorted(draws)
            with pytest.raises(ValueError) as from_records:
                [_record(each, flow_id) for flow_id, each in enumerate(draws)]
            with pytest.raises(ValueError) as from_draws:
                FlowChunk.from_draws(draws)
            with pytest.raises(ValueError) as from_columns:
                FlowChunk.from_columns([list(column) for column in zip(*draws)])
            assert str(from_draws.value) == str(from_columns.value) == str(from_records.value)

    def test_unknown_hosts_raise_the_record_paths_error(self):
        draws = [(1.0, 0, 1, 10, 15_000, 1.0), (2.0, 2, 10_001, 10, 15_000, 1.0),
                 (3.0, 10_002, 3, 10, 15_000, 1.0)]
        with pytest.raises(UnknownHostError) as from_records:
            Trace("bad", _NETWORK, [_record(draw, flow_id) for flow_id, draw in enumerate(draws)])
        with pytest.raises(UnknownHostError) as from_columns:
            FlowChunk.from_draws(draws).check_hosts(_NETWORK.has_host)
        with pytest.raises(UnknownHostError) as from_network:
            _NETWORK.host(10_001)
        assert str(from_columns.value) == str(from_records.value) == str(from_network.value)
        assert str(from_network.value) == "unknown host 10001"

    def test_from_records_keeps_the_records_and_their_ids(self):
        records = [
            FlowRecord(1.0, 7, 0, 1),
            FlowRecord(2.0, 3, 2, 3),
            FlowRecord(2.0, 9, 4, 5, 3, 4200, 0.5),
        ]
        chunk = FlowChunk.from_records(records)
        assert not chunk.mints_records and FlowChunk.from_records(chunk) is chunk
        assert all(got is want for got, want in zip(chunk, records))
        assert [flow.flow_id for flow in chunk] == [7, 3, 9] and chunk[1:][0] is records[1]
        assert [list(column) for column in chunk.columns()] == [
            [1.0, 2.0, 2.0], [0, 2, 4], [1, 3, 5], [10, 10, 3], [15_000, 15_000, 4200],
            [1.0, 1.0, 0.5],
        ]
