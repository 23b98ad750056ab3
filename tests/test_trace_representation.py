"""A materialized trace has one resident form, however it was born.

A :class:`~repro.traffic.trace.Trace` holds one
:class:`~repro.traffic.chunk.FlowChunk`: gathered from a stream's chunks, or
transposed once from records.  These tests hold every birth — a generated
stream, a merged one, a record list, a third-party stream of unsorted record
lists, a run of chunks with an id gap — to the same flows on every public
accessor, and pin *residency*: handing out the columns copies nothing, records
are minted once and only on request, record-born ids survive, and a scalar
replay constructs no ``FlowRecord`` and no
``FlowHandlingResult``.
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
from repro.traffic.stream import MergedStream
from repro.traffic.trace import Trace

PROFILE = TopologyProfile(switch_count=6, host_count=48, seed=23, home_switches_per_tenant=2)
NETWORK = build_multi_tenant_datacenter(PROFILE)
FLOWS = 400


def built_in(model, flows=FLOWS, **params):
    params = {"total_flows": flows, "seed": 5, "duration_hours": 3.0, **params}
    return get_traffic_model(model).build(NETWORK, params=params, name="rep")


def merged():
    """Two models on a 37-flow merge grid."""
    return MergedStream(
        "rep",
        NETWORK,
        [
            (built_in("uniform", flows=150), 0.0, 10_800.0),
            (built_in("incast-hotspot", flows=250, hotspot_count=2), 0.0, 10_800.0),
        ],
        duration=10_800.0,
        chunk_flows=37,
    )


class Chunks:
    """A third-party stream: whatever chunks it is given, as they are."""

    name = "rep"
    network = NETWORK
    total_flows = 0
    duration = 0.0

    def __init__(self, chunks):
        self._chunks = chunks

    def chunks(self):
        return iter(self._chunks)


def records_of(stream):
    """``stream``'s flows as third-party records: ids of their own."""
    return [dataclasses.replace(flow, flow_id=1_000 + 3 * flow.flow_id) for flow in stream]


def id_gapped(stream):
    """``stream``'s chunks with the second one's ids pushed up by five."""
    first, second, *rest = stream.chunks()
    assert rest
    return [first, FlowChunk.from_columns(second.columns(), second.first_id + 5), *rest]


def from_record_list():
    records = records_of(merged())
    return list(reversed(records)), records


def from_unsorted_list_chunks():
    records = records_of(built_in("realistic"))
    return Chunks([records[300:], records[:100], [], records[100:300]]), records


def from_id_gapped_chunks():
    chunks = id_gapped(built_in("realistic"))
    return Chunks(chunks), sorted(flow for chunk in chunks for flow in chunk)


#: birth -> (what the constructor is handed, the records the trace must hold, in order)
BIRTHS = {
    "generated-stream": lambda: (built_in("realistic"), list(built_in("realistic"))),
    "merged-stream": lambda: (merged(), list(merged())),
    "record-list": from_record_list,
    "unsorted-list-chunk-stream": from_unsorted_list_chunks,
    "id-gapped-chunk-run": from_id_gapped_chunks,
}
#: Births whose flows arrive as records: their objects and ids are kept.
RECORD_BORN = {"record-list", "unsorted-list-chunk-stream"}
#: Births that are one column-backed run: gathered buffer by buffer, no record ever.
GATHERED = {"generated-stream", "merged-stream"}


def born(birth):
    source, expected = BIRTHS[birth]()
    return Trace("rep", NETWORK, source), expected


def column_lists(chunk):
    return [list(column) for column in chunk.columns()]


@pytest.mark.parametrize("birth", sorted(BIRTHS))
class TestEveryBirthIsOneResidentChunk:
    def test_flows_columns_and_scalars(self, birth, constructions):
        trace, expected = born(birth)
        constructions["FlowRecord"] = 0  # minting ``expected`` was this test's business
        assert len(trace) == trace.total_flows == len(expected) == FLOWS
        assert trace.duration == expected[-1].start_time
        columns = trace.columns()
        # The resident chunk itself: no copy, whoever asks.
        assert columns is trace.columns() and list(trace.chunks()) == [columns]
        assert column_lists(columns) == column_lists(FlowChunk.from_records(expected))
        assert columns.first_id == expected[0].flow_id
        assert constructions["FlowRecord"] == 0  # nothing so far needed a record
        assert list(trace.flows) == list(trace) == expected

    def test_flows_is_one_shared_list_beside_the_columns(self, birth):
        trace, expected = born(birth)
        columns = trace.columns()
        flows = trace.flows
        assert trace.flows is flows and trace.columns() is columns
        assert [flow.flow_id for flow in flows] == [flow.flow_id for flow in expected]
        assert columns.mints_records == (birth in GATHERED)
        if birth in RECORD_BORN:
            assert all(got is want for got, want in zip(flows, expected))

    def test_derived_views(self, birth, constructions):
        trace, expected = born(birth)
        reference = Trace("rep", NETWORK, expected)
        constructions["FlowRecord"] = 0  # minting ``expected`` was this test's business
        for start, end in ((0.0, None), (0.0, 3600.0), (1800.0, 7200.0)):
            ours = trace.switch_intensity(start=start, end=end)
            assert list(ours.pairs()) == list(reference.switch_intensity(start=start, end=end).pairs())
        # Every fold read columns: no record was built for any of it.
        assert constructions["FlowRecord"] == 0 and trace._flows is None

    @pytest.mark.parametrize("minted", [False, True])
    def test_pickle_and_deepcopy_round_trip(self, birth, minted):
        trace, expected = born(birth)
        if minted:
            trace.flows
        for clone in (pickle.loads(pickle.dumps(trace)), copy.deepcopy(trace)):
            assert clone.columns() is not trace.columns()
            assert (clone._flows is None) == (not minted)
            assert len(clone) == FLOWS and clone.duration == trace.duration
            assert column_lists(clone.columns()) == column_lists(trace.columns())
            assert list(clone.flows) == expected

    def test_bound_to_shares_the_resident_form_with_a_fresh_network(self, birth):
        trace, expected = born(birth)
        fresh = build_multi_tenant_datacenter(PROFILE)
        twin = trace.bound_to(fresh)
        assert twin.network is fresh and trace.network is NETWORK
        assert twin.columns() is trace.columns() and twin._flows is trace._flows
        assert (twin.name, len(twin), twin.duration) == (trace.name, len(trace), trace.duration)
        assert list(twin.flows) == expected

    def test_unknown_hosts_are_rejected_on_the_columns(self, birth):
        small = build_multi_tenant_datacenter(dataclasses.replace(PROFILE, host_count=12))
        source, _ = BIRTHS[birth]()
        with pytest.raises(UnknownHostError):
            Trace("rep", small, source)
        with pytest.raises(UnknownHostError):
            born(birth)[0].bound_to(small)


class TestWhatBreaksARun:
    def test_only_column_backed_chunks_in_trace_order_are_gathered(self):
        first, second, third = list(built_in("realistic").chunks())[:3]
        assert Trace.from_stream(Chunks([first, second, third])).columns().mints_records
        # A chunk starting before the run ends, and a sorted stream of lists:
        # sorted as records, the same flows either way.
        for chunks in ([second, first], [list(first), list(second)]):
            trace = Trace.from_stream(Chunks(chunks))
            assert not trace.columns().mints_records
            assert list(trace.flows) == [*first, *second]

    def test_an_id_gap_keeps_the_ids_it_was_given(self):
        chunks = id_gapped(built_in("realistic"))
        trace = Trace.from_stream(Chunks(chunks))
        assert [flow.flow_id for flow in trace.flows][len(chunks[0])] == chunks[1].first_id
        assert chunks[1].first_id == len(chunks[0]) + 5

    def test_an_empty_stream_is_an_empty_trace(self):
        for trace in (Trace.from_stream(Chunks([])), Trace("rep", NETWORK, [])):
            assert len(trace) == 0 and trace.duration == 0.0
            assert len(trace.columns()) == 0 and list(trace.flows) == [] and list(trace.chunks()) == []


class TestResidency:
    @pytest.mark.parametrize(
        "preset,churn,flows",
        [
            ("paper-fig7", None, 6_000),
            ("paper-fig7", ChurnSpec(seed=7, migration_rate_per_hour=30.0), 6_000),
            ("paper-fig7-expanded", None, 7_800),
        ],
        ids=("plain", "churn", "expanded"),
    )
    def test_a_scalar_run_builds_no_record_and_no_result_object(
        self, constructions, preset, churn, flows
    ):
        (spec,) = get_preset(preset).specs()
        spec = dataclasses.replace(
            spec, traffic=spec.traffic.with_params(total_flows=6_000), churn=churn
        )
        result = ScenarioRunner().run(spec)
        for run in result.runs.values():
            assert run.counters.flows_handled + run.counters.departed_flows == flows
        if churn is not None:
            assert result.runs["lazyctrl-dynamic"].churn.total_events() > 0
        assert constructions == {"FlowRecord": 0, "FlowHandlingResult": 0}

    def test_the_counting_is_not_vacuous(self, constructions):
        trace = Trace.from_stream(built_in("realistic"))
        plane = get_control_plane("openflow").build(NETWORK)
        for flow in trace.flows:
            plane.handle_flow_arrival(flow, flow.start_time)
        assert constructions == {"FlowRecord": FLOWS, "FlowHandlingResult": FLOWS}

    def test_columns_hands_out_the_resident_chunk_without_a_copy(self):
        params = {"total_flows": 60_000, "seed": 5, "duration_hours": 24.0}
        trace = Trace.from_stream(get_traffic_model("realistic").build(NETWORK, params=params, name="resident"))
        one_column_bytes = 8 * len(trace)
        tracemalloc.start()
        try:
            columns = trace.columns()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(columns) == 60_000 and columns is trace.columns()
        assert peak < one_column_bytes
