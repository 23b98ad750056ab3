"""Initial k-way partitioning of the coarsest graph.

The multi-level scheme only needs a reasonable starting partition on the
small coarsened graph; refinement does the heavy lifting afterwards.  We use
greedy region growing: seed ``k`` parts with the heaviest-degree unassigned
vertices, then repeatedly attach the unassigned vertex with the strongest
connection to the lightest non-full part.  The size constraint (maximum
vertex weight per part) is respected throughout so the projected partition is
feasible by construction.
"""

from __future__ import annotations

import random
from typing import Dict

from repro.common.errors import InfeasibleGroupingError
from repro.partitioning.graph import WeightedGraph


def greedy_region_growing(
    graph: WeightedGraph,
    k: int,
    *,
    max_part_weight: float,
    rng: random.Random,
) -> Dict[int, int]:
    """Produce an initial assignment of every vertex to one of ``k`` parts.

    Raises :class:`InfeasibleGroupingError` when the vertices cannot fit into
    ``k`` parts of weight at most ``max_part_weight`` (e.g. a single coarse
    vertex is heavier than the limit).
    """
    if k <= 0:
        raise InfeasibleGroupingError("number of parts must be positive")
    vertices = graph.vertices()
    if not vertices:
        return {}
    total_weight = graph.total_vertex_weight()
    if total_weight > k * max_part_weight + 1e-9:
        raise InfeasibleGroupingError(
            f"total vertex weight {total_weight} cannot fit into {k} parts of {max_part_weight}"
        )
    heaviest = max(graph.vertex_weight(v) for v in vertices)
    if heaviest > max_part_weight + 1e-9:
        raise InfeasibleGroupingError(
            f"a vertex of weight {heaviest} exceeds the part weight limit {max_part_weight}"
        )

    assignment: Dict[int, int] = {}
    part_weight = [0.0] * k

    # Seed each part with a high-degree vertex to spread the parts across the
    # graph; ties broken randomly for diversification across runs.
    seeds = sorted(vertices, key=lambda v: (-graph.degree(v), rng.random()))
    seed_iter = iter(seeds)
    for part in range(k):
        for candidate in seed_iter:
            if candidate in assignment:
                continue
            if graph.vertex_weight(candidate) <= max_part_weight:
                assignment[candidate] = part
                part_weight[part] += graph.vertex_weight(candidate)
                break
        else:
            break  # fewer vertices than parts; remaining parts stay empty

    unassigned = [v for v in vertices if v not in assignment]
    rng.shuffle(unassigned)

    # Grow parts greedily: each unassigned vertex joins the feasible part to
    # which it has the strongest connectivity, falling back to the lightest
    # feasible part when it has no assigned neighbours yet.
    pending = list(unassigned)
    while pending:
        progressed = False
        still_pending = []
        for vertex in pending:
            weight = graph.vertex_weight(vertex)
            gains = [0.0] * k
            for neighbor, edge_weight in graph.neighbors(vertex).items():
                part = assignment.get(neighbor)
                if part is not None:
                    gains[part] += edge_weight
            candidates = [
                part for part in range(k) if part_weight[part] + weight <= max_part_weight + 1e-9
            ]
            if not candidates:
                still_pending.append(vertex)
                continue
            best = max(candidates, key=lambda part: (gains[part], -part_weight[part]))
            assignment[vertex] = best
            part_weight[best] += weight
            progressed = True
        if not progressed and still_pending:
            raise InfeasibleGroupingError(
                "could not place all vertices under the part weight limit; "
                f"{len(still_pending)} vertices left over"
            )
        pending = still_pending
    return assignment


def balanced_random_assignment(
    graph: WeightedGraph,
    k: int,
    *,
    max_part_weight: float,
    rng: random.Random,
) -> Dict[int, int]:
    """Fallback initial partition ignoring edge weights (when region growing fails).

    Vertices are shuffled and placed first-fit-decreasing by weight into the
    lightest feasible part.
    """
    if k <= 0:
        raise InfeasibleGroupingError("number of parts must be positive")
    assignment: Dict[int, int] = {}
    part_weight = [0.0] * k
    vertices = sorted(graph.vertices(), key=lambda v: (-graph.vertex_weight(v), rng.random()))
    for vertex in vertices:
        weight = graph.vertex_weight(vertex)
        candidates = [part for part in range(k) if part_weight[part] + weight <= max_part_weight + 1e-9]
        if not candidates:
            raise InfeasibleGroupingError("vertices do not fit under the part weight limit")
        best = min(candidates, key=lambda part: part_weight[part])
        assignment[vertex] = best
        part_weight[best] += weight
    return assignment
