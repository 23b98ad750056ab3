"""Unit tests for Stoer–Wagner min cut and the size-constrained bisection."""

import random
from typing import Dict, List, Set

import pytest
from hypothesis import given, settings, strategies as st

from repro.common.errors import InfeasibleGroupingError, PartitioningError
from repro.partitioning.bisection import min_bisection
from repro.partitioning.graph import WeightedGraph
from repro.partitioning.stoer_wagner import MinCutResult, stoer_wagner_min_cut


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


def full_phase_min_cut(graph: WeightedGraph) -> MinCutResult:
    """Stoer–Wagner running all ``n - 1`` phases: the loop before the search
    stopped at its first zero cut, kept verbatim as the reference."""
    vertices = graph.vertices()
    if len(vertices) < 2:
        raise PartitioningError("minimum cut requires at least two vertices")

    # Work on a contracted adjacency copy; "merged[v]" tracks which original
    # vertices the super-vertex v currently represents.
    adjacency: Dict[int, Dict[int, float]] = {
        vertex: dict(graph.neighbors(vertex)) for vertex in vertices
    }
    merged: Dict[int, Set[int]] = {vertex: {vertex} for vertex in vertices}

    best_weight = float("inf")
    best_partition: Set[int] = set()

    active = list(vertices)
    while len(active) > 1:
        # Maximum adjacency search from an arbitrary start vertex.
        start = active[0]
        in_a: List[int] = [start]
        in_a_set = {start}
        connectivity: Dict[int, float] = {
            vertex: adjacency[start].get(vertex, 0.0) for vertex in active if vertex != start
        }
        while len(in_a) < len(active):
            next_vertex = max(connectivity, key=connectivity.__getitem__)
            in_a.append(next_vertex)
            in_a_set.add(next_vertex)
            del connectivity[next_vertex]
            for neighbor, weight in adjacency[next_vertex].items():
                if neighbor in connectivity:
                    connectivity[neighbor] += weight
        last = in_a[-1]
        second_last = in_a[-2]
        cut_of_phase = sum(adjacency[last].values())
        if cut_of_phase < best_weight:
            best_weight = cut_of_phase
            best_partition = set(merged[last])

        # Contract `last` into `second_last`.
        merged[second_last] |= merged[last]
        for neighbor, weight in adjacency[last].items():
            if neighbor == second_last:
                continue
            adjacency[second_last][neighbor] = adjacency[second_last].get(neighbor, 0.0) + weight
            adjacency[neighbor][second_last] = adjacency[neighbor].get(second_last, 0.0) + weight
        for neighbor in adjacency[last]:
            adjacency[neighbor].pop(last, None)
        del adjacency[last]
        del merged[last]
        active.remove(last)

    return MinCutResult(weight=best_weight, partition=frozenset(best_partition))


@st.composite
def clustered_graphs(draw, min_vertices=2, max_vertices=24):
    """Graphs of one to four components, sparse to dense, with isolated
    vertices, repeated equal weights and vertices and edges inserted in
    shuffled order."""
    count = draw(st.integers(min_vertices, max_vertices))
    components = draw(st.integers(1, 4))
    component_of = draw(
        st.lists(st.integers(0, components - 1), min_size=count, max_size=count)
    )
    density = draw(st.sampled_from([0.1, 0.3, 0.6, 0.9]))
    # Few distinct weights, so phases often tie for the lightest cut.
    weights = draw(st.lists(st.sampled_from([0.5, 1.0, 2.0, 3.25]), min_size=1, max_size=3))
    rng = draw(st.randoms(use_true_random=False))
    edges = [
        (a, b, rng.choice(weights))
        for a in range(count)
        for b in range(a + 1, count)
        if component_of[a] == component_of[b] and rng.random() < density
    ]
    rng.shuffle(edges)
    graph = WeightedGraph()
    for vertex in draw(st.permutations(range(count))):
        graph.add_vertex(vertex)
    for a, b, weight in edges:
        graph.add_edge(a, b, weight)
    return graph


class TestStopAtFirstZeroCut:
    """Stopping at the first zero cut returns what the full loop returns."""

    @given(graph=clustered_graphs())
    @settings(max_examples=300, deadline=None)
    def test_same_weight_and_side_as_every_phase(self, graph):
        assert stoer_wagner_min_cut(graph) == full_phase_min_cut(graph)

    def test_equal_cuts_keep_the_first_phase(self):
        # Every phase of a uniform 4-cycle cuts 2.0: {3}, {2, 3}, {1, 2, 3}.
        graph = WeightedGraph()
        for vertex in range(4):
            graph.add_vertex(vertex)
        for vertex in range(4):
            graph.add_edge(vertex, (vertex + 1) % 4, 1.0)
        expected = MinCutResult(weight=2.0, partition=frozenset({3}))
        assert full_phase_min_cut(graph) == expected
        assert stoer_wagner_min_cut(graph) == expected

    def test_zero_cut_from_a_middle_phase(self):
        # A triangle and a path.  The phases cut 2.0 ({5}), 2.0 ({4, 5}),
        # then 0 ({3, 4, 5}), then 2.0 and 4.0: the first zero comes from
        # the third of five phases, and the two after it cannot replace it.
        graph = WeightedGraph()
        for vertex in range(6):
            graph.add_vertex(vertex)
        graph.add_edge(0, 1, 3.0)
        graph.add_edge(1, 2, 1.0)
        graph.add_edge(0, 2, 1.0)
        graph.add_edge(3, 4, 2.0)
        graph.add_edge(4, 5, 2.0)
        expected = MinCutResult(weight=0, partition=frozenset({3, 4, 5}))
        assert full_phase_min_cut(graph) == expected
        assert stoer_wagner_min_cut(graph) == expected


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
