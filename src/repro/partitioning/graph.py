"""Weighted undirected graph used by the partitioning algorithms.

The grouping algorithms operate on an *intensity graph* whose vertices are
edge switches and whose edge weights are the pairwise traffic intensities.
Vertices also carry weights (number of collapsed original switches) so the
multi-level scheme can respect the group-size limit while working on a
coarsened graph.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, Mapping, Tuple

from repro.common.errors import PartitioningError
from repro.datastructures.intensity import IntensityMatrix


@dataclass(slots=True)
class WeightedGraph:
    """Undirected graph with vertex weights and edge weights.

    Vertices are arbitrary hashable identifiers (switch ids at the finest
    level, synthetic integers at coarser levels).  Edges are stored as a
    nested adjacency mapping; the structure is kept symmetric at all times.
    """

    vertex_weights: Dict[int, float] = field(default_factory=dict)
    adjacency: Dict[int, Dict[int, float]] = field(default_factory=dict)

    # -- construction -----------------------------------------------------

    @classmethod
    def from_intensity_matrix(cls, matrix: IntensityMatrix) -> "WeightedGraph":
        """Build the intensity graph for the switch-grouping problem.

        Every switch becomes a unit-weight vertex; every non-zero pairwise
        intensity becomes an edge with that weight.
        """
        graph = cls()
        for switch_id in matrix.switches():
            graph.add_vertex(switch_id, weight=1.0)
        for a, b, weight in matrix.pairs():
            graph.add_edge(a, b, weight)
        return graph

    def add_vertex(self, vertex: int, weight: float = 1.0) -> None:
        """Add a vertex (idempotent: re-adding keeps the larger weight)."""
        if weight <= 0:
            raise PartitioningError(f"vertex weight must be positive, got {weight}")
        current = self.vertex_weights.get(vertex)
        self.vertex_weights[vertex] = weight if current is None else max(current, weight)
        self.adjacency.setdefault(vertex, {})

    def add_edge(self, a: int, b: int, weight: float) -> None:
        """Add ``weight`` to the edge between ``a`` and ``b`` (self-loops ignored)."""
        if a == b:
            return
        if weight <= 0:
            return
        if a not in self.vertex_weights or b not in self.vertex_weights:
            raise PartitioningError("both endpoints must be added before the edge")
        self.adjacency[a][b] = self.adjacency[a].get(b, 0.0) + weight
        self.adjacency[b][a] = self.adjacency[b].get(a, 0.0) + weight

    # -- queries ----------------------------------------------------------

    def vertices(self) -> list[int]:
        """All vertex identifiers."""
        return list(self.vertex_weights)

    def vertex_count(self) -> int:
        """Number of vertices."""
        return len(self.vertex_weights)

    def edge_count(self) -> int:
        """Number of undirected edges."""
        return sum(len(neighbors) for neighbors in self.adjacency.values()) // 2

    def vertex_weight(self, vertex: int) -> float:
        """Weight of one vertex (number of collapsed original switches)."""
        return self.vertex_weights[vertex]

    def total_vertex_weight(self) -> float:
        """Sum of all vertex weights."""
        return sum(self.vertex_weights.values())

    def edge_weight(self, a: int, b: int) -> float:
        """Weight of the edge ``a``-``b`` (0 when absent)."""
        return self.adjacency.get(a, {}).get(b, 0.0)

    def neighbors(self, vertex: int) -> Dict[int, float]:
        """Adjacency map of ``vertex`` (neighbor -> edge weight)."""
        return self.adjacency.get(vertex, {})

    def degree(self, vertex: int) -> float:
        """Weighted degree of ``vertex``."""
        return sum(self.adjacency.get(vertex, {}).values())

    def edges(self) -> Iterator[Tuple[int, int, float]]:
        """Iterate each undirected edge exactly once as ``(a, b, weight)``."""
        for a, neighbors in self.adjacency.items():
            for b, weight in neighbors.items():
                if a < b:
                    yield a, b, weight

    def total_edge_weight(self) -> float:
        """Sum of all undirected edge weights."""
        return sum(weight for _, _, weight in self.edges())

    def subgraph(self, vertices: Iterable[int]) -> "WeightedGraph":
        """Return the induced subgraph on ``vertices`` (weights preserved)."""
        keep = set(vertices)
        result = WeightedGraph()
        for vertex in keep:
            if vertex not in self.vertex_weights:
                raise PartitioningError(f"unknown vertex {vertex} in subgraph request")
            result.add_vertex(vertex, self.vertex_weights[vertex])
        for a, b, weight in self.edges():
            if a in keep and b in keep:
                result.add_edge(a, b, weight)
        return result

def cut_weight(graph: WeightedGraph, assignment: Mapping[int, int]) -> float:
    """Total weight of edges whose endpoints are assigned to different parts."""
    total = 0.0
    for a, b, weight in graph.edges():
        if assignment.get(a) != assignment.get(b):
            total += weight
    return total


def partition_weights(graph: WeightedGraph, assignment: Mapping[int, int]) -> Dict[int, float]:
    """Total vertex weight of each part under ``assignment``."""
    weights: Dict[int, float] = {}
    for vertex, part in assignment.items():
        weights[part] = weights.get(part, 0.0) + graph.vertex_weight(vertex)
    return weights


def groups_from_assignment(assignment: Mapping[int, int]) -> list[set[int]]:
    """Convert a vertex->part mapping into a list of disjoint vertex sets."""
    buckets: Dict[int, set[int]] = {}
    for vertex, part in assignment.items():
        buckets.setdefault(part, set()).add(vertex)
    return [buckets[part] for part in sorted(buckets)]
