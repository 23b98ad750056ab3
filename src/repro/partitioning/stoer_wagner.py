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

The search stops at the first zero-weight cut of a phase, which a
disconnected graph reaches early.  That is exact: no cut weighs less than
zero, because :meth:`WeightedGraph.add_edge` drops weights that are not
positive, and a later phase replaces the best cut only when it is strictly
lighter, so the full loop would return the same weight and the same side.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, FrozenSet, Set

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
        # Maximum adjacency search from an arbitrary start vertex, over a
        # connectivity list in ``active`` order: the next vertex is the first
        # heaviest entry, so ties go to the earliest in ``active`` (the pinned
        # IncUpdate groupings rest on that).  A vertex already added holds
        # -inf, which no finite weight lifts.
        start = active[0]
        row = adjacency[start]
        position = {vertex: index for index, vertex in enumerate(active)}
        connectivity = [row.get(vertex, 0.0) for vertex in active]
        connectivity[0] = -math.inf
        last = start
        for _ in range(len(active) - 1):
            index = connectivity.index(max(connectivity))
            connectivity[index] = -math.inf
            second_last, last = last, active[index]
            for neighbor, weight in adjacency[last].items():
                connectivity[position[neighbor]] += weight
        cut_of_phase = sum(adjacency[last].values())
        if cut_of_phase < best_weight:
            best_weight = cut_of_phase
            best_partition = set(merged[last])
            if best_weight == 0.0:
                break  # no later phase cuts lighter (see the module docstring)

        # Contract `last` into `second_last`.
        merged[second_last] |= merged.pop(last)
        kept = adjacency[second_last]
        for neighbor, weight in adjacency.pop(last).items():
            if neighbor == second_last:
                del kept[last]
                continue
            kept[neighbor] = kept.get(neighbor, 0.0) + weight
            row = adjacency[neighbor]
            row[second_last] = row.get(second_last, 0.0) + weight
            del row[last]
        active.remove(last)

    return MinCutResult(weight=best_weight, partition=frozenset(best_partition))
