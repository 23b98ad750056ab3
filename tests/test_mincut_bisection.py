"""Unit tests for Stoer–Wagner min cut and the size-constrained bisection."""

import random

import pytest

from repro.common.errors import InfeasibleGroupingError, PartitioningError
from repro.partitioning.bisection import min_bisection
from repro.partitioning.graph import WeightedGraph
from repro.partitioning.stoer_wagner import stoer_wagner_min_cut


def barbell_graph(side: int, bridge_weight: float = 0.5) -> WeightedGraph:
    """Two cliques of ``side`` vertices connected by one light edge."""
    graph = WeightedGraph()
    n = 2 * side
    for i in range(n):
        graph.add_vertex(i)
    for i in range(side):
        for j in range(i + 1, side):
            graph.add_edge(i, j, 5.0)
            graph.add_edge(side + i, side + j, 5.0)
    graph.add_edge(0, side, bridge_weight)
    return graph


class TestStoerWagner:
    def test_barbell_cut_is_the_bridge(self):
        graph = barbell_graph(5, bridge_weight=0.7)
        result = stoer_wagner_min_cut(graph)
        assert result.weight == pytest.approx(0.7)
        sides = {frozenset(range(5)), frozenset(range(5, 10))}
        assert result.partition in sides

    def test_two_vertex_graph(self):
        graph = WeightedGraph()
        graph.add_vertex(0)
        graph.add_vertex(1)
        graph.add_edge(0, 1, 3.0)
        result = stoer_wagner_min_cut(graph)
        assert result.weight == pytest.approx(3.0)
        assert result.partition in (frozenset({0}), frozenset({1}))

    def test_disconnected_graph_zero_cut(self):
        graph = WeightedGraph()
        for i in range(4):
            graph.add_vertex(i)
        graph.add_edge(0, 1, 2.0)
        graph.add_edge(2, 3, 2.0)
        result = stoer_wagner_min_cut(graph)
        assert result.weight == pytest.approx(0.0)

    def test_single_vertex_rejected(self):
        graph = WeightedGraph()
        graph.add_vertex(0)
        with pytest.raises(PartitioningError):
            stoer_wagner_min_cut(graph)

    def test_cycle_cut_weight(self):
        # A uniform cycle's minimum cut removes two edges.
        graph = WeightedGraph()
        for i in range(6):
            graph.add_vertex(i)
        for i in range(6):
            graph.add_edge(i, (i + 1) % 6, 1.0)
        assert stoer_wagner_min_cut(graph).weight == pytest.approx(2.0)

    def test_matches_networkx_on_random_graphs(self):
        networkx = pytest.importorskip("networkx")
        rng = random.Random(5)
        for _ in range(5):
            n = rng.randint(5, 12)
            graph = WeightedGraph()
            nx_graph = networkx.Graph()
            for i in range(n):
                graph.add_vertex(i)
                nx_graph.add_node(i)
            for i in range(n):
                for j in range(i + 1, n):
                    if rng.random() < 0.5:
                        weight = round(rng.uniform(0.5, 5.0), 3)
                        graph.add_edge(i, j, weight)
                        nx_graph.add_edge(i, j, weight=weight)
            if not networkx.is_connected(nx_graph):
                continue
            expected, _ = networkx.stoer_wagner(nx_graph)
            assert stoer_wagner_min_cut(graph).weight == pytest.approx(expected, rel=1e-6)


class TestMinBisection:
    def test_barbell_split_along_bridge(self):
        graph = barbell_graph(5, bridge_weight=0.3)
        result = min_bisection(graph, max_side_weight=6.0, rng=random.Random(0))
        assert result.cut_weight == pytest.approx(0.3)
        assert {len(result.side_a), len(result.side_b)} == {5}

    def test_sides_cover_all_vertices(self):
        graph = barbell_graph(4)
        result = min_bisection(graph, max_side_weight=5.0, rng=random.Random(0))
        assert set(result.side_a) | set(result.side_b) == set(graph.vertices())
        assert not (set(result.side_a) & set(result.side_b))

    def test_size_limit_enforced(self):
        # A star graph: the min cut would isolate one leaf, but the size limit
        # forces a near-balanced split.
        graph = WeightedGraph()
        for i in range(9):
            graph.add_vertex(i)
        for leaf in range(1, 9):
            graph.add_edge(0, leaf, 1.0)
        result = min_bisection(graph, max_side_weight=5.0, rng=random.Random(0))
        assert max(len(result.side_a), len(result.side_b)) <= 5

    def test_infeasible_total_weight(self):
        graph = barbell_graph(4)
        with pytest.raises(InfeasibleGroupingError):
            min_bisection(graph, max_side_weight=3.0, rng=random.Random(0))

    def test_single_vertex_rejected(self):
        graph = WeightedGraph()
        graph.add_vertex(0)
        with pytest.raises(InfeasibleGroupingError):
            min_bisection(graph, max_side_weight=1.0, rng=random.Random(0))

    def test_disconnected_graph_handled(self):
        graph = WeightedGraph()
        for i in range(6):
            graph.add_vertex(i)
        graph.add_edge(0, 1, 2.0)
        graph.add_edge(2, 3, 2.0)
        # Vertices 4 and 5 are isolated.
        result = min_bisection(graph, max_side_weight=4.0, rng=random.Random(0))
        assert set(result.side_a) | set(result.side_b) == set(range(6))

    def test_edgeless_graph(self):
        graph = WeightedGraph()
        for i in range(4):
            graph.add_vertex(i)
        result = min_bisection(graph, max_side_weight=2.0, rng=random.Random(0))
        assert result.cut_weight == 0.0
        assert len(result.side_a) == len(result.side_b) == 2
