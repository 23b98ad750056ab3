"""Graph coarsening via heavy-edge matching.

The multi-level k-way partitioning scheme (Karypis & Kumar) first shrinks the
graph by repeatedly collapsing matched vertex pairs.  We implement the
standard *heavy-edge matching* heuristic: visit vertices in random order and
match each unmatched vertex with the unmatched neighbour connected by the
heaviest edge.  Collapsed vertices accumulate vertex weight and their edges
are merged, preserving cut weights between coarse vertices.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List

from repro.partitioning.graph import WeightedGraph


@dataclass(slots=True)
class CoarseningLevel:
    """One level of the coarsening hierarchy.

    ``fine_to_coarse`` maps every vertex of the finer graph to its coarse
    vertex; ``graph`` is the coarse graph itself.
    """

    graph: WeightedGraph
    fine_to_coarse: Dict[int, int]


def heavy_edge_matching(graph: WeightedGraph, rng: random.Random, *, max_vertex_weight: float | None = None) -> Dict[int, int]:
    """Compute a heavy-edge matching of ``graph``.

    Returns a mapping from each vertex to its match partner; unmatched
    vertices map to themselves.  ``max_vertex_weight`` prevents creating
    coarse vertices heavier than the group-size limit, which would make the
    final size-constrained partition infeasible.
    """
    order = list(graph.vertices())
    rng.shuffle(order)
    matched: Dict[int, int] = {}
    for vertex in order:
        if vertex in matched:
            continue
        best_partner = None
        best_weight = 0.0
        for neighbor, weight in graph.neighbors(vertex).items():
            if neighbor in matched:
                continue
            if max_vertex_weight is not None:
                combined = graph.vertex_weight(vertex) + graph.vertex_weight(neighbor)
                if combined > max_vertex_weight:
                    continue
            if weight > best_weight:
                best_weight = weight
                best_partner = neighbor
        if best_partner is None:
            matched[vertex] = vertex
        else:
            matched[vertex] = best_partner
            matched[best_partner] = vertex
    return matched


def contract(graph: WeightedGraph, matching: Dict[int, int]) -> CoarseningLevel:
    """Collapse each matched pair into one coarse vertex.

    Coarse vertices are numbered densely from 0; the returned level records
    the projection from fine to coarse vertices so refinement can later be
    projected back.
    """
    coarse = WeightedGraph()
    fine_to_coarse: Dict[int, int] = {}
    next_id = 0
    for vertex in graph.vertices():
        if vertex in fine_to_coarse:
            continue
        partner = matching.get(vertex, vertex)
        coarse_id = next_id
        next_id += 1
        fine_to_coarse[vertex] = coarse_id
        weight = graph.vertex_weight(vertex)
        if partner != vertex and partner not in fine_to_coarse:
            fine_to_coarse[partner] = coarse_id
            weight += graph.vertex_weight(partner)
        coarse.add_vertex(coarse_id, weight)
    for a, b, weight in graph.edges():
        ca, cb = fine_to_coarse[a], fine_to_coarse[b]
        if ca != cb:
            coarse.add_edge(ca, cb, weight)
    return CoarseningLevel(graph=coarse, fine_to_coarse=fine_to_coarse)


def coarsen(
    graph: WeightedGraph,
    rng: random.Random,
    *,
    target_vertex_count: int,
    max_vertex_weight: float | None = None,
    max_levels: int = 30,
) -> List[CoarseningLevel]:
    """Repeatedly contract ``graph`` until it has at most ``target_vertex_count`` vertices.

    Returns the list of coarsening levels from finest to coarsest.  Stops
    early when a matching pass fails to shrink the graph by at least 5 %
    (typical for graphs that are already star-like), which bounds the number
    of levels even on adversarial inputs.
    """
    levels: List[CoarseningLevel] = []
    current = graph
    for _ in range(max_levels):
        if current.vertex_count() <= target_vertex_count:
            break
        matching = heavy_edge_matching(current, rng, max_vertex_weight=max_vertex_weight)
        level = contract(current, matching)
        if level.graph.vertex_count() >= current.vertex_count() * 0.95:
            break
        levels.append(level)
        current = level.graph
    return levels

