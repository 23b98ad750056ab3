"""Unit tests for initial partitioning, refinement and the MLkP driver."""

import random

import pytest

from repro.common.config import GroupingConfig
from repro.common.errors import InfeasibleGroupingError
from repro.partitioning.graph import WeightedGraph, cut_weight, partition_weights
from repro.partitioning.initial import balanced_random_assignment, greedy_region_growing
from repro.partitioning.mlkp import MultiLevelKWayPartitioner, verify_partition
from repro.partitioning.refinement import refine


def clustered_graph(clusters: int, size: int, seed: int = 0) -> WeightedGraph:
    """A graph with dense planted clusters and sparse noise between them."""
    rng = random.Random(seed)
    graph = WeightedGraph()
    n = clusters * size
    for i in range(n):
        graph.add_vertex(i)
    for i in range(n):
        for j in range(i + 1, n):
            if i // size == j // size:
                graph.add_edge(i, j, rng.uniform(5.0, 10.0))
            elif rng.random() < 0.03:
                graph.add_edge(i, j, rng.uniform(0.1, 0.5))
    return graph


def uneven_clusters_graph(vertices: int, clusters: int, seed: int) -> WeightedGraph:
    """Unit-weight vertices in clusters of random sizes, plus sparse light cross edges."""
    rng = random.Random(seed)
    graph = WeightedGraph()
    members = [[] for _ in range(clusters)]
    for vertex in range(vertices):
        graph.add_vertex(vertex)
        members[rng.randrange(clusters)].append(vertex)
    for group in members:
        for index, a in enumerate(group):
            for b in group[index + 1:]:
                if rng.random() < 0.3:
                    graph.add_edge(a, b, 1.0 + rng.random())
    for _ in range(vertices // 10):
        a, b = rng.randrange(vertices), rng.randrange(vertices)
        if a != b:
            graph.add_edge(a, b, 0.1)
    return graph


class TestInitialPartitioning:
    def test_greedy_region_growing_assigns_everything(self):
        graph = clustered_graph(3, 6)
        assignment = greedy_region_growing(graph, 3, max_part_weight=8.0, rng=random.Random(0))
        assert set(assignment) == set(graph.vertices())

    def test_greedy_region_growing_respects_limit(self):
        graph = clustered_graph(3, 6)
        assignment = greedy_region_growing(graph, 3, max_part_weight=7.0, rng=random.Random(0))
        assert max(partition_weights(graph, assignment).values()) <= 7.0

    def test_infeasible_total_weight_rejected(self):
        graph = clustered_graph(2, 5)
        with pytest.raises(InfeasibleGroupingError):
            greedy_region_growing(graph, 2, max_part_weight=4.0, rng=random.Random(0))

    def test_zero_parts_rejected(self):
        with pytest.raises(InfeasibleGroupingError):
            greedy_region_growing(WeightedGraph(), 0, max_part_weight=1.0, rng=random.Random(0))

    def test_oversized_vertex_rejected(self):
        graph = WeightedGraph()
        graph.add_vertex(0, weight=10.0)
        with pytest.raises(InfeasibleGroupingError):
            greedy_region_growing(graph, 2, max_part_weight=5.0, rng=random.Random(0))

    def test_empty_graph(self):
        assert greedy_region_growing(WeightedGraph(), 3, max_part_weight=1.0, rng=random.Random(0)) == {}

    def test_balanced_random_assignment_feasible(self):
        graph = clustered_graph(4, 5)
        assignment = balanced_random_assignment(graph, 4, max_part_weight=6.0, rng=random.Random(1))
        assert max(partition_weights(graph, assignment).values()) <= 6.0

    def test_balanced_random_assignment_infeasible(self):
        graph = clustered_graph(1, 10)
        with pytest.raises(InfeasibleGroupingError):
            balanced_random_assignment(graph, 2, max_part_weight=4.0, rng=random.Random(1))


class TestRefinement:
    def test_refinement_never_worsens_cut(self):
        graph = clustered_graph(3, 8, seed=2)
        assignment = balanced_random_assignment(graph, 3, max_part_weight=10.0, rng=random.Random(3))
        before = dict(assignment)
        refine(graph, assignment, max_part_weight=10.0, parts=3)
        assert cut_weight(graph, before) - cut_weight(graph, assignment) >= -1e-9

    def test_refinement_recovers_planted_clusters_with_slack(self):
        graph = clustered_graph(3, 8, seed=4)
        # Deliberately bad start: stripes across clusters.
        assignment = {v: v % 3 for v in graph.vertices()}
        refine(graph, assignment, max_part_weight=12.0, parts=3, max_passes=20)
        # Most edges should now be internal: the cut is a small fraction.
        assert cut_weight(graph, assignment) < 0.35 * graph.total_edge_weight()

    def test_refinement_respects_size_limit(self):
        graph = clustered_graph(3, 8, seed=5)
        assignment = balanced_random_assignment(graph, 3, max_part_weight=9.0, rng=random.Random(0))
        refine(graph, assignment, max_part_weight=9.0, parts=3)
        assert max(partition_weights(graph, assignment).values()) <= 9.0 + 1e-9


class TestMlkp:
    def test_partition_covers_all_vertices(self):
        graph = clustered_graph(4, 10)
        partitioner = MultiLevelKWayPartitioner(GroupingConfig(group_size_limit=12, random_seed=1))
        result = partitioner.partition(graph, 4)
        assert set(result.assignment) == set(graph.vertices())

    def test_partition_respects_size_limit(self):
        graph = clustered_graph(4, 10)
        partitioner = MultiLevelKWayPartitioner(GroupingConfig(group_size_limit=12, random_seed=1))
        result = partitioner.partition(graph, 4)
        assert result.max_part_weight() <= 12.0 + 1e-9
        verify_partition(graph, result.assignment, max_part_weight=12.0)

    def test_partition_finds_planted_clusters_with_slack(self):
        graph = clustered_graph(4, 10, seed=6)
        partitioner = MultiLevelKWayPartitioner(GroupingConfig(group_size_limit=11, random_seed=1))
        result = partitioner.partition(graph, 4)
        assert result.cut_weight < 0.25 * graph.total_edge_weight()

    def test_infeasible_partition_rejected(self):
        graph = clustered_graph(2, 10)
        partitioner = MultiLevelKWayPartitioner(GroupingConfig(group_size_limit=5, random_seed=1))
        with pytest.raises(InfeasibleGroupingError):
            partitioner.partition(graph, 2)

    @pytest.mark.parametrize("seed", [0, 1, 3])
    def test_exact_fit_is_found_when_the_coarse_fallback_cannot_pack(self, seed):
        # 300 unit vertices into 6 parts of 50 is feasible, but the coarse
        # vertices (each up to 50 heavy) do not first-fit into 6 bins, so the
        # weight-only fallback has to retry on finer levels.
        graph = uneven_clusters_graph(300, 12, seed)
        partitioner = MultiLevelKWayPartitioner(GroupingConfig(group_size_limit=50, random_seed=1))
        result = partitioner.partition(graph, 6)
        verify_partition(graph, result.assignment, max_part_weight=50.0)
        assert result.levels >= 1

    def test_zero_k_rejected(self):
        partitioner = MultiLevelKWayPartitioner()
        with pytest.raises(InfeasibleGroupingError):
            partitioner.partition(clustered_graph(1, 4), 0)

    def test_empty_graph(self):
        partitioner = MultiLevelKWayPartitioner()
        result = partitioner.partition(WeightedGraph(), 3)
        assert result.assignment == {}
        assert result.cut_weight == 0.0

    def test_deterministic_given_seed(self):
        graph = clustered_graph(3, 9, seed=8)
        config = GroupingConfig(group_size_limit=10, random_seed=42)
        a = MultiLevelKWayPartitioner(config).partition(graph, 3)
        b = MultiLevelKWayPartitioner(config).partition(graph, 3)
        assert a.assignment == b.assignment

    def test_uncoarsening_projects_every_vertex_onto_a_part(self):
        # Above the coarsening threshold the partition is made on a coarse
        # graph and projected back level by level.
        graph = clustered_graph(8, 10, seed=2)
        partitioner = MultiLevelKWayPartitioner(GroupingConfig(group_size_limit=12, random_seed=1))
        result = partitioner.partition(graph, 8)
        assert result.levels >= 1
        assert set(result.assignment) == set(graph.vertices())
        assert set(result.assignment.values()) <= set(range(8))

    def test_groups_accessor(self):
        graph = clustered_graph(2, 6)
        result = MultiLevelKWayPartitioner(GroupingConfig(group_size_limit=7)).partition(graph, 2)
        groups = result.groups()
        assert sum(len(g) for g in groups) == 12

    def test_verify_partition_detects_missing_vertex(self):
        graph = clustered_graph(1, 4)
        with pytest.raises(InfeasibleGroupingError):
            verify_partition(graph, {0: 0, 1: 0}, max_part_weight=10.0)

    def test_verify_partition_detects_overweight(self):
        graph = clustered_graph(1, 4)
        with pytest.raises(InfeasibleGroupingError):
            verify_partition(graph, {v: 0 for v in graph.vertices()}, max_part_weight=2.0)
