"""A materialized trace has one resident form, and it is the right one.

A :class:`~repro.traffic.trace.Trace` built from a stream is six columns from
birth and stays that: records are a view minted once, on request, beside the
columns.  These tests hold the column-born trace to the record-born one it
must be indistinguishable from on every public accessor, pin the fallback for
streams that are not one sorted run, and pin *residency*: a scalar replay of a
column-born trace constructs no ``FlowRecord`` and no ``FlowHandlingResult``,
and handing out the columns copies nothing.
"""

import copy
import dataclasses
import pickle
import tracemalloc

import pytest

from repro.churn.spec import ChurnSpec
from repro.common.errors import UnknownHostError
from repro.core.presets import get_preset
from repro.core.registry import get_control_plane
from repro.core.runner import ScenarioRunner
from repro.topology.builder import TopologyProfile, build_multi_tenant_datacenter
from repro.traffic.chunk import FlowChunk
from repro.traffic.registry import get_traffic_model
from repro.traffic.stream import MaterializedStream, MergedStream
from repro.traffic.trace import Trace

PROFILE = TopologyProfile(switch_count=6, host_count=48, seed=23, home_switches_per_tenant=2)
NETWORK = build_multi_tenant_datacenter(PROFILE)


def built_in(model, flows=400, **params):
    params = {"total_flows": flows, "seed": 5, "duration_hours": 3.0, **params}
    return get_traffic_model(model).build_stream(NETWORK, params, name="rep")


#: Streams of several chunks each: one per diurnal hour, and a 37-flow merge grid.
STREAMS = {
    "realistic": lambda: built_in("realistic"),
    "merged": lambda: MergedStream(
        "rep",
        NETWORK,
        [
            (built_in("uniform", flows=150), 0.0, 10_800.0),
            (built_in("incast-hotspot", flows=250, hotspot_count=2), 0.0, 10_800.0),
        ],
        duration=10_800.0,
        chunk_flows=37,
    ),
}


def stream_of(model):
    return STREAMS[model]()


def both(model):
    """The same flows column-born (from the stream) and record-born (from a list)."""
    stream = stream_of(model)
    assert sum(1 for _ in stream.chunks()) > 1
    column_born = Trace.from_stream(stream)
    record_born = Trace("rep", NETWORK, list(stream))
    assert column_born._columns is not None and column_born._flows is None
    assert record_born._columns is None
    return column_born, record_born


def column_lists(chunk):
    return [list(column) for column in chunk.columns()]


@pytest.mark.parametrize("model", sorted(STREAMS))
class TestStreamBuiltEqualsRecordBuilt:
    def test_flows_columns_and_scalars(self, model):
        column_born, record_born = both(model)
        assert len(column_born) == len(record_born) == 400
        assert column_born.duration == record_born.duration
        assert column_lists(column_born.columns()) == column_lists(record_born.columns())
        assert column_born.columns().first_id == record_born.columns().first_id == 0
        assert column_born.columns().mints_records and not record_born.columns().mints_records
        # Reading the columns built no record; asking for records keeps the columns.
        assert column_born._flows is None
        assert list(column_born.flows) == list(record_born.flows)
        assert list(column_born) == list(record_born)
        assert list(column_born.chunks()) == [column_born.flows]

    def test_flows_is_one_shared_list_beside_the_columns(self, model):
        column_born, _ = both(model)
        columns = column_born.columns()
        flows = column_born.flows
        assert column_born.flows is flows and next(column_born.chunks()) is flows
        assert column_born.columns() is columns
        assert column_lists(columns) == column_lists(FlowChunk.from_records(flows))

    def test_windows_and_subtraces(self, model):
        column_born, record_born = both(model)
        edges = [0.0, 1799.5, 3600.0, column_born.duration, column_born.duration + 1.0]
        for start in edges:
            for end in edges:
                if end < start:
                    continue
                assert column_born.window(start, end) == record_born.window(start, end)
                assert list(column_born.subtrace(start=start, end=end)) == list(
                    record_born.subtrace(start=start, end=end)
                )

    def test_derived_views(self, model):
        column_born, record_born = both(model)
        for start, end in ((0.0, None), (0.0, 3600.0), (1800.0, 7200.0)):
            ours = column_born.switch_intensity(start=start, end=end)
            theirs = record_born.switch_intensity(start=start, end=end)
            assert list(ours.pairs()) == list(theirs.pairs())
        assert column_born._flows is None  # the intensity fold read columns
        assert column_born.pair_activity() == record_born.pair_activity()
        assert column_born.hourly_flow_counts(hours=4) == record_born.hourly_flow_counts(hours=4)
        assert column_born.communicating_pairs() == record_born.communicating_pairs()

    @pytest.mark.parametrize("minted", [False, True])
    def test_pickle_and_deepcopy_round_trip(self, model, minted):
        column_born, record_born = both(model)
        if minted:
            column_born.flows
        for clone in (pickle.loads(pickle.dumps(column_born)), copy.deepcopy(column_born)):
            assert clone._columns is not None and clone._columns is not column_born._columns
            assert (clone._flows is None) == (not minted)
            assert len(clone) == 400 and clone.duration == column_born.duration
            assert column_lists(clone.columns()) == column_lists(column_born.columns())
            assert list(clone.flows) == list(record_born.flows)

    def test_merged_with(self, model):
        column_born, record_born = both(model)
        other = Trace.from_stream(stream_of("realistic" if model == "merged" else "merged"))
        merged = column_born.merged_with(other)
        assert list(merged) == list(record_born.merged_with(other))
        assert len(merged) == 800


class ListChunks:
    """A third-party stream: whatever chunks it is given, as they are."""

    name = "third-party"
    network = NETWORK
    total_flows = 0
    duration = 0.0

    def __init__(self, chunks):
        self._chunks = chunks

    def chunks(self):
        return iter(self._chunks)


class TestStreamsThatAreNotOneRun:
    def test_unsorted_record_lists_take_the_record_path(self):
        records = list(stream_of("realistic"))
        shuffled = [records[300:], records[:100], [], records[100:300]]
        trace = Trace.from_stream(ListChunks(shuffled))
        assert trace._columns is None
        assert list(trace.flows) == records
        # ... and so does a sorted stream of lists: only minting chunks are a run.
        listed = Trace.from_stream(MaterializedStream("m", NETWORK, records, chunk_flows=64))
        assert listed._columns is None and list(listed) == records

    def test_a_chunk_breaking_id_continuity_falls_back_with_what_was_collected(self):
        first, second, third = list(stream_of("realistic").chunks())[:3]
        draws = list(zip(*second.columns()))
        gapped = FlowChunk.from_draws(draws, second.first_id + 5)
        trace = Trace.from_stream(ListChunks([first, gapped, third]))
        assert trace._columns is None
        assert list(trace.flows) == sorted([*first, *gapped, *third])
        assert [flow.flow_id for flow in trace.flows][len(first)] == second.first_id + 5

    def test_a_chunk_starting_before_the_run_ends_falls_back_too(self):
        first, second = list(stream_of("realistic").chunks())[:2]
        trace = Trace.from_stream(ListChunks([second, first]))
        assert trace._columns is None
        assert list(trace.flows) == [*first, *second]

    def test_an_empty_stream_is_an_empty_column_born_trace(self):
        trace = Trace.from_stream(ListChunks([]))
        assert len(trace) == 0 and trace.duration == 0.0
        assert len(trace.columns()) == 0 and list(trace.flows) == [] and list(trace.chunks()) == []

    def test_unknown_hosts_are_rejected_on_the_columns(self):
        small = build_multi_tenant_datacenter(dataclasses.replace(PROFILE, host_count=12))
        with pytest.raises(UnknownHostError):
            Trace("rep", small, stream_of("realistic"))


class TestBoundTo:
    def test_shares_the_resident_form_with_a_fresh_network(self):
        fresh = build_multi_tenant_datacenter(PROFILE)
        for trace in both("realistic"):
            twin = trace.bound_to(fresh)
            assert twin.network is fresh and trace.network is NETWORK
            assert twin._columns is trace._columns and twin._flows is trace._flows
            assert (twin.name, len(twin), twin.duration) == (trace.name, len(trace), trace.duration)
            assert list(twin.flows) == list(trace.flows)

    def test_probes_every_endpoint_on_the_new_network(self):
        small = build_multi_tenant_datacenter(dataclasses.replace(PROFILE, host_count=12))
        for trace in both("realistic"):
            with pytest.raises(UnknownHostError):
                trace.bound_to(small)


class TestResidency:
    @pytest.mark.parametrize("churn", [None, ChurnSpec(seed=7, migration_rate_per_hour=30.0)])
    def test_a_scalar_run_builds_no_record_and_no_result_object(self, constructions, churn):
        (spec,) = get_preset("paper-fig7").specs()
        spec = dataclasses.replace(
            spec, traffic=spec.traffic.with_params(total_flows=6_000), churn=churn
        )
        result = ScenarioRunner().run(spec)
        for run in result.runs.values():
            assert run.counters.flows_handled + run.counters.departed_flows == 6_000
        if churn is not None:
            assert result.runs["lazyctrl-dynamic"].churn.total_events() > 0
        assert constructions == {"FlowRecord": 0, "FlowHandlingResult": 0}

    def test_the_counting_is_not_vacuous(self, constructions):
        trace = Trace.from_stream(stream_of("realistic"))
        plane = get_control_plane("openflow").build(NETWORK)
        for flow in trace.flows:
            plane.handle_flow_arrival(flow, flow.start_time)
        assert constructions == {"FlowRecord": 400, "FlowHandlingResult": 400}

    def test_columns_hands_out_the_resident_chunk_without_a_copy(self):
        params = {"total_flows": 60_000, "seed": 5, "duration_hours": 24.0}
        trace = get_traffic_model("realistic").build(NETWORK, params, name="resident")
        one_column_bytes = 8 * len(trace)
        tracemalloc.start()
        try:
            columns = trace.columns()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(columns) == 60_000 and columns is trace.columns()
        assert peak < one_column_bytes
