"""Stoer–Wagner global minimum cut.

SGI's incremental update merges the two groups whose mutual traffic grew the
most and then splits the merged group again so the cut between the two new
groups is minimal.  The paper cites Stoer & Wagner's simple min-cut algorithm
for this step; we provide a faithful implementation operating on
:class:`~repro.partitioning.graph.WeightedGraph`.

The algorithm runs ``n - 1`` *minimum cut phases*.  Each phase performs a
maximum-adjacency search, records the "cut of the phase" (weight of the last
vertex added), and contracts the last two vertices.  The lightest cut of any
phase is a global minimum cut.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Set

from repro.common.errors import PartitioningError
from repro.partitioning.graph import WeightedGraph


@dataclass(frozen=True, slots=True)
class MinCutResult:
    """A global minimum cut: its weight and one side of the bipartition."""

    weight: float
    partition: FrozenSet[int]


def stoer_wagner_min_cut(graph: WeightedGraph) -> MinCutResult:
    """Compute a global minimum cut of ``graph``.

    Raises :class:`PartitioningError` on graphs with fewer than two vertices.
    Disconnected graphs return a zero-weight cut separating one connected
    component from the rest.
    """
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
