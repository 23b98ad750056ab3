"""Size-constrained minimum bisection used by SGI's merge-and-split step.

SGI's ``IncUpdate`` merges the two groups whose mutual traffic increased the
most and splits the combined group into two new groups with minimum
communication between them (paper §III-C.2).  A plain Stoer–Wagner minimum
cut can be wildly unbalanced (it frequently peels off a single vertex), which
would violate the group-size limit, so this module provides a *size-aware*
bisection:

1. seed two sides from the Stoer–Wagner cut when it is feasible, otherwise
   from the two heaviest-degree vertices;
2. greedily assign remaining vertices to the side with the strongest
   attraction that still has room;
3. run a constrained Kernighan–Lin style swap/move refinement to reduce the
   cut while keeping both sides under the size limit.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Set, Tuple

from repro.common.errors import InfeasibleGroupingError
from repro.partitioning.graph import WeightedGraph
from repro.partitioning.stoer_wagner import stoer_wagner_min_cut


@dataclass(frozen=True, slots=True)
class BisectionResult:
    """A two-way split of a vertex set and the weight of the cut between the sides."""

    side_a: frozenset[int]
    side_b: frozenset[int]
    cut_weight: float


def _cut_between(graph: WeightedGraph, side_a: Set[int], side_b: Set[int]) -> float:
    total = 0.0
    for vertex in side_a:
        for neighbor, weight in graph.neighbors(vertex).items():
            if neighbor in side_b:
                total += weight
    return total


def _side_weight(graph: WeightedGraph, side: Set[int]) -> float:
    return sum(graph.vertex_weight(vertex) for vertex in side)


def _greedy_fill(
    graph: WeightedGraph,
    seeds_a: Set[int],
    seeds_b: Set[int],
    max_side_weight: float,
    rng: random.Random,
) -> Tuple[Set[int], Set[int]]:
    """Assign all unseeded vertices to one of the two sides under the limit."""
    side_a, side_b = set(seeds_a), set(seeds_b)
    weight_a = _side_weight(graph, side_a)
    weight_b = _side_weight(graph, side_b)
    remaining = [v for v in graph.vertices() if v not in side_a and v not in side_b]
    # Heavier-connected vertices first so their preference is honoured while
    # there is still slack on both sides.
    remaining.sort(key=lambda v: (-graph.degree(v), rng.random()))
    for vertex in remaining:
        vertex_weight = graph.vertex_weight(vertex)
        attraction_a = sum(w for n, w in graph.neighbors(vertex).items() if n in side_a)
        attraction_b = sum(w for n, w in graph.neighbors(vertex).items() if n in side_b)
        fits_a = weight_a + vertex_weight <= max_side_weight + 1e-9
        fits_b = weight_b + vertex_weight <= max_side_weight + 1e-9
        if not fits_a and not fits_b:
            raise InfeasibleGroupingError(
                "cannot bisect: both sides would exceed the group size limit"
            )
        prefer_a = attraction_a > attraction_b or (attraction_a == attraction_b and weight_a <= weight_b)
        if (prefer_a and fits_a) or not fits_b:
            side_a.add(vertex)
            weight_a += vertex_weight
        else:
            side_b.add(vertex)
            weight_b += vertex_weight
    return side_a, side_b


def _refine_sides(
    graph: WeightedGraph,
    side_a: Set[int],
    side_b: Set[int],
    max_side_weight: float,
    max_passes: int = 6,
) -> None:
    """Constrained boundary refinement: move vertices across the cut while it helps."""
    for _ in range(max_passes):
        improved = False
        weight_a = _side_weight(graph, side_a)
        weight_b = _side_weight(graph, side_b)
        for vertex in list(side_a | side_b):
            in_a = vertex in side_a
            source, target = (side_a, side_b) if in_a else (side_b, side_a)
            target_weight = weight_b if in_a else weight_a
            vertex_weight = graph.vertex_weight(vertex)
            if len(source) <= 1:
                continue
            if target_weight + vertex_weight > max_side_weight + 1e-9:
                continue
            internal = sum(w for n, w in graph.neighbors(vertex).items() if n in source)
            external = sum(w for n, w in graph.neighbors(vertex).items() if n in target)
            if external - internal <= 1e-12:
                continue
            source.discard(vertex)
            target.add(vertex)
            if in_a:
                weight_a -= vertex_weight
                weight_b += vertex_weight
            else:
                weight_b -= vertex_weight
                weight_a += vertex_weight
            improved = True
        if not improved:
            break


def min_bisection(
    graph: WeightedGraph,
    *,
    max_side_weight: float,
    rng: random.Random,
) -> BisectionResult:
    """Split ``graph`` into two sides of weight at most ``max_side_weight`` each.

    The cut between the two sides is greedily minimized.  Raises
    :class:`InfeasibleGroupingError` when the vertex weights cannot be packed
    into two sides under the limit.
    """
    vertices = graph.vertices()
    if len(vertices) < 2:
        raise InfeasibleGroupingError("bisection requires at least two vertices")
    total_weight = graph.total_vertex_weight()
    if total_weight > 2 * max_side_weight + 1e-9:
        raise InfeasibleGroupingError(
            f"total weight {total_weight} cannot fit into two sides of {max_side_weight}"
        )

    # Try to seed from the global minimum cut when both sides are feasible.
    seeds_a: Set[int] = set()
    seeds_b: Set[int] = set()
    if graph.edge_count() > 0:
        cut = stoer_wagner_min_cut(graph)
        candidate_a = set(cut.partition)
        candidate_b = set(vertices) - candidate_a
        if (
            candidate_a
            and candidate_b
            and _side_weight(graph, candidate_a) <= max_side_weight + 1e-9
            and _side_weight(graph, candidate_b) <= max_side_weight + 1e-9
        ):
            side_a, side_b = candidate_a, candidate_b
            _refine_sides(graph, side_a, side_b, max_side_weight)
            return BisectionResult(
                side_a=frozenset(side_a),
                side_b=frozenset(side_b),
                cut_weight=_cut_between(graph, side_a, side_b),
            )
        # Infeasible global cut: keep its heaviest vertex on each side as seeds.
        if candidate_a and candidate_b:
            seeds_a = {max(candidate_a, key=graph.vertex_weight)}
            seeds_b = {max(candidate_b, key=graph.vertex_weight)}

    if not seeds_a or not seeds_b:
        by_degree = sorted(vertices, key=lambda v: -graph.degree(v))
        seeds_a = {by_degree[0]}
        seeds_b = {by_degree[1]}

    side_a, side_b = _greedy_fill(graph, seeds_a, seeds_b, max_side_weight, rng)
    _refine_sides(graph, side_a, side_b, max_side_weight)
    return BisectionResult(
        side_a=frozenset(side_a),
        side_b=frozenset(side_b),
        cut_weight=_cut_between(graph, side_a, side_b),
    )
