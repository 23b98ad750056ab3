"""Unit tests for the weighted graph and coarsening machinery."""

import random

import pytest

from repro.common.errors import PartitioningError
from repro.datastructures.intensity import IntensityMatrix
from repro.partitioning.coarsening import coarsen, contract, heavy_edge_matching, project_assignment
from repro.partitioning.graph import (
    WeightedGraph,
    cut_weight,
    groups_from_assignment,
    partition_weights,
)


def ring_graph(n: int, weight: float = 1.0) -> WeightedGraph:
    graph = WeightedGraph()
    for i in range(n):
        graph.add_vertex(i)
    for i in range(n):
        graph.add_edge(i, (i + 1) % n, weight)
    return graph


class TestWeightedGraph:
    def test_from_intensity_matrix(self):
        matrix = IntensityMatrix([0, 1, 2])
        matrix.record(0, 1, 4.0)
        graph = WeightedGraph.from_intensity_matrix(matrix)
        assert graph.vertex_count() == 3
        assert graph.edge_weight(0, 1) == 4.0
        assert graph.edge_weight(0, 2) == 0.0

    def test_add_edge_requires_vertices(self):
        graph = WeightedGraph()
        graph.add_vertex(0)
        with pytest.raises(PartitioningError):
            graph.add_edge(0, 1, 1.0)

    def test_add_edge_accumulates(self):
        graph = WeightedGraph()
        graph.add_vertex(0)
        graph.add_vertex(1)
        graph.add_edge(0, 1, 1.0)
        graph.add_edge(1, 0, 2.0)
        assert graph.edge_weight(0, 1) == 3.0

    def test_self_loop_ignored(self):
        graph = WeightedGraph()
        graph.add_vertex(0)
        graph.add_edge(0, 0, 5.0)
        assert graph.edge_count() == 0

    def test_zero_weight_edge_ignored(self):
        graph = WeightedGraph()
        graph.add_vertex(0)
        graph.add_vertex(1)
        graph.add_edge(0, 1, 0.0)
        assert graph.edge_count() == 0

    def test_negative_vertex_weight_rejected(self):
        with pytest.raises(PartitioningError):
            WeightedGraph().add_vertex(0, weight=-1.0)

    def test_degree_and_totals(self):
        graph = ring_graph(4, 2.0)
        assert graph.degree(0) == 4.0
        assert graph.total_edge_weight() == 8.0
        assert graph.total_vertex_weight() == 4.0

    def test_edges_iterated_once(self):
        graph = ring_graph(5)
        assert len(list(graph.edges())) == 5

    def test_subgraph(self):
        graph = ring_graph(6)
        sub = graph.subgraph([0, 1, 2])
        assert sub.vertex_count() == 3
        assert sub.edge_weight(0, 1) == 1.0
        assert sub.edge_weight(2, 3) == 0.0

    def test_subgraph_unknown_vertex(self):
        with pytest.raises(PartitioningError):
            ring_graph(3).subgraph([0, 99])


class TestPartitionHelpers:
    def test_cut_weight(self):
        graph = ring_graph(4)
        assignment = {0: 0, 1: 0, 2: 1, 3: 1}
        assert cut_weight(graph, assignment) == 2.0

    def test_partition_weights(self):
        graph = ring_graph(4)
        assignment = {0: 0, 1: 0, 2: 1, 3: 1}
        assert partition_weights(graph, assignment) == {0: 2.0, 1: 2.0}

    def test_groups_from_assignment(self):
        groups = groups_from_assignment({0: 1, 1: 0, 2: 1})
        assert groups == [{1}, {0, 2}]


class TestCoarsening:
    def test_matching_is_symmetric(self):
        graph = ring_graph(10)
        matching = heavy_edge_matching(graph, random.Random(0))
        for vertex, partner in matching.items():
            assert matching[partner] == vertex

    def test_matching_respects_weight_cap(self):
        graph = WeightedGraph()
        graph.add_vertex(0, weight=3.0)
        graph.add_vertex(1, weight=3.0)
        graph.add_edge(0, 1, 10.0)
        matching = heavy_edge_matching(graph, random.Random(0), max_vertex_weight=4.0)
        assert matching[0] == 0 and matching[1] == 1

    def test_contract_preserves_total_vertex_weight(self):
        graph = ring_graph(10)
        matching = heavy_edge_matching(graph, random.Random(0))
        level = contract(graph, matching)
        assert level.graph.total_vertex_weight() == pytest.approx(graph.total_vertex_weight())

    def test_contract_shrinks_graph(self):
        graph = ring_graph(10)
        matching = heavy_edge_matching(graph, random.Random(0))
        level = contract(graph, matching)
        assert level.graph.vertex_count() < graph.vertex_count()

    def test_coarsen_reaches_target(self):
        graph = ring_graph(64)
        levels = coarsen(graph, random.Random(0), target_vertex_count=10)
        assert levels[-1].graph.vertex_count() <= max(10, graph.vertex_count() // 2)

    def test_project_assignment_round_trip(self):
        graph = ring_graph(16)
        levels = coarsen(graph, random.Random(0), target_vertex_count=4)
        coarse = levels[-1].graph
        coarse_assignment = {v: v % 2 for v in coarse.vertices()}
        fine_assignment = project_assignment(levels, coarse_assignment)
        assert set(fine_assignment) == set(graph.vertices())
        assert set(fine_assignment.values()) <= {0, 1}

    def test_coarsen_empty_levels_for_small_graph(self):
        graph = ring_graph(4)
        assert coarsen(graph, random.Random(0), target_vertex_count=10) == []
