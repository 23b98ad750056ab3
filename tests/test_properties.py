"""Property-based tests (hypothesis) for core data structures and invariants."""

import random

from hypothesis import given, settings, strategies as st

from repro.common.addresses import MacAddress
from repro.common.config import GroupingConfig
from repro.common.packets import FlowKey
from repro.datastructures.bloom import BloomFilter
from repro.datastructures.flow_table import ActionType, FlowAction, FlowTable
from repro.datastructures.intensity import IntensityMatrix
from repro.partitioning.bisection import min_bisection
from repro.partitioning.graph import WeightedGraph, cut_weight, partition_weights
from repro.partitioning.mlkp import MultiLevelKWayPartitioner
from repro.partitioning.sgi import SgiGrouper
from repro.partitioning.stoer_wagner import stoer_wagner_min_cut


# -- strategies -----------------------------------------------------------------

mac_values = st.integers(min_value=0, max_value=(1 << 48) - 1)

edge_lists = st.lists(
    st.tuples(st.integers(0, 15), st.integers(0, 15), st.floats(0.1, 10.0)),
    min_size=1,
    max_size=60,
)


def graph_from_edges(edges) -> WeightedGraph:
    graph = WeightedGraph()
    for a, b, _ in edges:
        graph.add_vertex(a)
        graph.add_vertex(b)
    for a, b, w in edges:
        graph.add_edge(a, b, w)
    return graph


# -- Bloom filter properties -------------------------------------------------------


class TestBloomProperties:
    @given(st.lists(st.binary(min_size=1, max_size=16), min_size=1, max_size=100))
    def test_no_false_negatives(self, items):
        bloom = BloomFilter(4096, 5)
        bloom.add_all(items)
        assert all(item in bloom for item in items)


# -- address properties -----------------------------------------------------------------


class TestAddressProperties:
    @given(mac_values)
    def test_mac_string_round_trip(self, value):
        mac = MacAddress(value)
        assert int(str(mac).replace(":", ""), 16) == value

    @given(mac_values)
    def test_mac_bytes_round_trip(self, value):
        mac = MacAddress(value)
        assert int.from_bytes(mac.to_bytes(), "big") == value


# -- intensity matrix properties ----------------------------------------------------------


class TestIntensityProperties:
    @given(edge_lists)
    def test_total_equals_sum_of_pairs(self, edges):
        matrix = IntensityMatrix()
        for a, b, w in edges:
            matrix.record(a, b, w)
        assert abs(matrix.total_intensity - sum(w for a, b, w in matrix.pairs())) < 1e-6

    @given(edge_lists)
    def test_inter_group_bounded_by_total(self, edges):
        matrix = IntensityMatrix()
        for a, b, w in edges:
            matrix.record(a, b, w)
        switches = matrix.switches()
        grouping = [set(switches[::2]), set(switches[1::2])]
        inter = matrix.inter_group_intensity(grouping)
        assert -1e-9 <= inter <= matrix.total_intensity + 1e-9

    @given(edge_lists, st.floats(0.0, 1.0))
    def test_decay_scales_total(self, edges, factor):
        matrix = IntensityMatrix()
        for a, b, w in edges:
            matrix.record(a, b, w)
        total = matrix.total_intensity
        matrix.decay(factor)
        assert matrix.total_intensity <= total * factor + 1e-6

    @given(edge_lists)
    def test_single_group_has_zero_inter(self, edges):
        matrix = IntensityMatrix()
        for a, b, w in edges:
            matrix.record(a, b, w)
        assert matrix.inter_group_intensity([set(matrix.switches())]) == 0.0


# -- partitioning properties -----------------------------------------------------------------


class TestPartitioningProperties:
    @settings(max_examples=30, deadline=None)
    @given(edge_lists, st.integers(2, 5))
    def test_mlkp_assignment_is_complete_and_feasible(self, edges, k):
        import math

        graph = graph_from_edges(edges)
        # Guarantee feasibility: k parts of this size always fit all vertices.
        limit = float(max(1, math.ceil(graph.vertex_count() / k * 1.3)))
        partitioner = MultiLevelKWayPartitioner(GroupingConfig(group_size_limit=max(1, int(limit)), restarts=1))
        result = partitioner.partition(graph, k, max_part_weight=limit)
        assert set(result.assignment) == set(graph.vertices())
        weights = partition_weights(graph, result.assignment)
        assert all(weight <= limit + 1e-9 for weight in weights.values())
        assert abs(result.cut_weight - cut_weight(graph, result.assignment)) < 1e-9

    @settings(max_examples=30, deadline=None)
    @given(edge_lists)
    def test_stoer_wagner_cut_never_exceeds_degree(self, edges):
        graph = graph_from_edges(edges)
        if graph.vertex_count() < 2:
            return
        result = stoer_wagner_min_cut(graph)
        # A global min cut is at most the minimum weighted degree.
        min_degree = min(graph.degree(v) for v in graph.vertices())
        assert result.weight <= min_degree + 1e-9
        assert 0 < len(result.partition) < graph.vertex_count()

    @settings(max_examples=30, deadline=None)
    @given(edge_lists)
    def test_bisection_sides_are_a_partition(self, edges):
        graph = graph_from_edges(edges)
        if graph.vertex_count() < 2:
            return
        limit = graph.vertex_count() / 2 + 1
        result = min_bisection(graph, max_side_weight=limit, rng=random.Random(0))
        assert set(result.side_a) | set(result.side_b) == set(graph.vertices())
        assert not (set(result.side_a) & set(result.side_b))
        assert len(result.side_a) <= limit and len(result.side_b) <= limit

    @settings(max_examples=20, deadline=None)
    @given(edge_lists, st.integers(2, 6))
    def test_sgi_grouping_is_a_partition_of_switches(self, edges, limit):
        matrix = IntensityMatrix()
        for a, b, w in edges:
            matrix.record(a, b, w)
        grouper = SgiGrouper(GroupingConfig(group_size_limit=limit, restarts=1))
        grouping = grouper.initial_grouping(matrix)
        assigned = [s for members in grouping.as_sets() for s in members]
        assert sorted(assigned) == sorted(matrix.switches())
        assert grouping.largest_group_size() <= limit


# -- flow table properties -------------------------------------------------------------------


class TestFlowTableProperties:
    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 30), st.integers(0, 30)), min_size=1, max_size=100))
    def test_capacity_never_exceeded(self, pairs):
        from repro.common.config import FlowTableConfig

        table = FlowTable(FlowTableConfig(capacity=16, eviction_batch=4))
        for index, (a, b) in enumerate(pairs):
            if a == b:
                continue
            key = FlowKey(MacAddress.from_host_index(a), MacAddress.from_host_index(b), 0)
            table.install(key, FlowAction(ActionType.DROP), now=float(index))
            assert len(table) <= 16
