"""Boundary Fiduccia–Mattheyses-style refinement of a k-way partition.

After the initial partition is projected back to a finer graph, each vertex
may have a better home in a neighbouring part.  The refinement pass visits
boundary vertices in order of decreasing potential gain and greedily moves a
vertex to the part that maximizes the cut-weight reduction while keeping
every part under the weight limit.  Multiple passes are run until no pass
improves the cut (or the configured pass limit is reached).

This is the size-constrained variant the paper needs: unlike textbook k-way
FM, a move is only admissible when the destination part stays within the
group-size limit.
"""

from __future__ import annotations

from typing import Dict, Mapping

from repro.partitioning.graph import WeightedGraph, partition_weights


def _external_gains(graph: WeightedGraph, assignment: Mapping[int, int], vertex: int) -> Dict[int, float]:
    """Edge weight from ``vertex`` to each part (including its own)."""
    gains: Dict[int, float] = {}
    for neighbor, weight in graph.neighbors(vertex).items():
        part = assignment[neighbor]
        gains[part] = gains.get(part, 0.0) + weight
    return gains


def refine_once(
    graph: WeightedGraph,
    assignment: Dict[int, int],
    *,
    max_part_weight: float,
    parts: int,
) -> float:
    """Run one greedy refinement pass in place; return total gain achieved."""
    weights = partition_weights(graph, assignment)
    for part in range(parts):
        weights.setdefault(part, 0.0)
    total_gain = 0.0

    # Boundary vertices sorted by their best potential gain, largest first,
    # so the most impactful moves are attempted before the balance tightens.
    candidates: list[tuple[float, int, int]] = []
    for vertex, part in assignment.items():
        gains = _external_gains(graph, assignment, vertex)
        internal = gains.get(part, 0.0)
        for other_part, external in gains.items():
            if other_part == part:
                continue
            candidates.append((external - internal, vertex, other_part))
    candidates.sort(key=lambda item: -item[0])

    moved: set[int] = set()
    for _, vertex, target_part in candidates:
        if vertex in moved:
            continue
        current_part = assignment[vertex]
        if current_part == target_part:
            continue
        vertex_weight = graph.vertex_weight(vertex)
        if weights[target_part] + vertex_weight > max_part_weight + 1e-9:
            continue
        # Recompute the gain against the *current* assignment because earlier
        # moves in this pass may have changed the neighbourhood.
        gains = _external_gains(graph, assignment, vertex)
        gain = gains.get(target_part, 0.0) - gains.get(current_part, 0.0)
        if gain <= 1e-12:
            continue
        assignment[vertex] = target_part
        weights[current_part] -= vertex_weight
        weights[target_part] += vertex_weight
        moved.add(vertex)
        total_gain += gain
    return total_gain


def swap_refine_once(
    graph: WeightedGraph,
    assignment: Dict[int, int],
    *,
    max_part_weight: float,
) -> float:
    """One pass of pairwise-swap refinement; returns the total gain achieved.

    When every part sits at (or near) the size limit, single-vertex moves are
    all inadmissible and plain FM refinement stalls.  Swapping two vertices
    between their parts keeps both part weights unchanged (for unit-weight
    vertices, the common case at the finest level) while still reducing the
    cut, which is exactly the situation the size-constrained switch-grouping
    problem creates.  Swap partners are drawn from the whole target part, not
    only from the vertex's neighbourhood — on sparse, star-like intensity
    graphs the right partner is usually an isolated vertex that merely needs
    to get out of the way.
    """
    weights = partition_weights(graph, assignment)
    total_gain = 0.0
    part_members: Dict[int, set[int]] = {}
    for member, member_part in assignment.items():
        part_members.setdefault(member_part, set()).add(member)

    for vertex, part in list(assignment.items()):
        part = assignment[vertex]
        gains = _external_gains(graph, assignment, vertex)
        internal = gains.get(part, 0.0)
        best_part = None
        best_external = internal
        for other_part, external in gains.items():
            if other_part != part and external > best_external:
                best_external = external
                best_part = other_part
        if best_part is None:
            continue
        own_gain = best_external - internal
        # Find the partner in the target part whose departure costs the least
        # (isolated vertices cost nothing; strongly attached ones are skipped).
        best_partner = None
        best_combined_gain = 1e-12
        for candidate in part_members.get(best_part, ()):  # all members, not just neighbours
            if candidate == vertex:
                continue
            partner_gains = _external_gains(graph, assignment, candidate)
            partner_gain = partner_gains.get(part, 0.0) - partner_gains.get(best_part, 0.0)
            # Swapping removes the contribution of the edge between the two
            # vertices twice (it stays a cut edge), hence the correction.
            mutual = 2.0 * graph.edge_weight(vertex, candidate)
            combined = own_gain + partner_gain - mutual
            if combined > best_combined_gain:
                best_combined_gain = combined
                best_partner = candidate
        if best_partner is None:
            continue
        vertex_weight = graph.vertex_weight(vertex)
        partner_weight = graph.vertex_weight(best_partner)
        new_weight_target = weights.get(best_part, 0.0) - partner_weight + vertex_weight
        new_weight_source = weights.get(part, 0.0) - vertex_weight + partner_weight
        if new_weight_target > max_part_weight + 1e-9 or new_weight_source > max_part_weight + 1e-9:
            continue
        assignment[vertex] = best_part
        assignment[best_partner] = part
        part_members[part].discard(vertex)
        part_members[best_part].discard(best_partner)
        part_members[best_part].add(vertex)
        part_members[part].add(best_partner)
        weights[best_part] = new_weight_target
        weights[part] = new_weight_source
        total_gain += best_combined_gain
    return total_gain


def refine(
    graph: WeightedGraph,
    assignment: Dict[int, int],
    *,
    max_part_weight: float,
    parts: int,
    max_passes: int = 8,
) -> Dict[int, int]:
    """Run refinement passes until convergence; returns the refined assignment.

    Each pass combines greedy single-vertex moves with pairwise swaps (the
    latter matter when parts sit at the size limit).  The input assignment is
    modified in place and also returned for convenience.
    """
    for _ in range(max_passes):
        gain = refine_once(graph, assignment, max_part_weight=max_part_weight, parts=parts)
        gain += swap_refine_once(graph, assignment, max_part_weight=max_part_weight)
        if gain <= 1e-12:
            break
    return assignment
