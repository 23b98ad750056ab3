"""Size-constrained Multi-Level k-way Partitioning (MLkP).

This is the reproduction of the Karypis–Kumar multi-level scheme the paper
uses inside SGI's ``IniGroup``: coarsen the intensity graph with heavy-edge
matching, partition the coarsest graph with greedy region growing, then
uncoarsen level by level while running boundary refinement at each level.

The variant implemented here is *size-constrained*: every part must contain
at most ``max_part_weight`` original vertices (the group-size limit), which
is the exact difference between the switch-grouping problem and classical
k-way partitioning that §III-C.1 points out.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Mapping

from repro.common.config import GroupingConfig
from repro.common.errors import InfeasibleGroupingError
from repro.common.rng import make_rng
from repro.partitioning.coarsening import coarsen
from repro.partitioning.graph import (
    WeightedGraph,
    cut_weight,
    groups_from_assignment,
    partition_weights,
)
from repro.partitioning.initial import balanced_random_assignment, greedy_region_growing
from repro.partitioning.refinement import refine

# Search effort of the multi-level scheme (Karypis & Kumar's usual choices):
# coarsen until at most this many vertices remain (or 4k, whichever is more),
# run at most this many boundary-refinement passes per level, and keep the
# lowest-cut of this many independently seeded runs.
COARSENING_THRESHOLD = 64
REFINEMENT_PASSES = 8
RESTARTS = 3


@dataclass(frozen=True, slots=True)
class PartitionResult:
    """Outcome of a k-way partitioning run."""

    assignment: Dict[int, int]
    cut_weight: float
    part_weights: Dict[int, float]
    parts: int
    levels: int

    def groups(self) -> list[set[int]]:
        """Return the partition as a list of disjoint vertex sets."""
        return groups_from_assignment(self.assignment)

    def max_part_weight(self) -> float:
        """Weight of the heaviest part (to verify the size constraint)."""
        return max(self.part_weights.values(), default=0.0)


class MultiLevelKWayPartitioner:
    """Multi-level k-way partitioner with a hard per-part weight limit."""

    def __init__(self, config: GroupingConfig | None = None) -> None:
        self._config = config or GroupingConfig()

    @property
    def config(self) -> GroupingConfig:
        """The grouping configuration in force."""
        return self._config

    def partition(
        self,
        graph: WeightedGraph,
        k: int,
        *,
        max_part_weight: float | None = None,
        seed_label: str = "mlkp",
    ) -> PartitionResult:
        """Partition ``graph`` into at most ``k`` parts.

        ``max_part_weight`` defaults to the configuration's group-size limit.
        The multi-level scheme is run :data:`RESTARTS` times with independent
        random streams and the lowest-cut feasible result is kept.  Raises
        :class:`InfeasibleGroupingError` when no feasible partition exists for
        the requested ``k`` and limit.
        """
        best: PartitionResult | None = None
        for restart in range(RESTARTS):
            candidate = self._partition_once(
                graph, k, max_part_weight=max_part_weight, seed_label=f"{seed_label}/{restart}"
            )
            if best is None or candidate.cut_weight < best.cut_weight:
                best = candidate
        assert best is not None
        return best

    def _partition_once(
        self,
        graph: WeightedGraph,
        k: int,
        *,
        max_part_weight: float | None,
        seed_label: str,
    ) -> PartitionResult:
        if k <= 0:
            raise InfeasibleGroupingError("k must be positive")
        limit = float(max_part_weight if max_part_weight is not None else self._config.group_size_limit)
        total_weight = graph.total_vertex_weight()
        if graph.vertex_count() == 0:
            return PartitionResult(assignment={}, cut_weight=0.0, part_weights={}, parts=k, levels=0)
        if total_weight > k * limit + 1e-9:
            raise InfeasibleGroupingError(
                f"{total_weight} total weight cannot fit into {k} parts of size {limit}"
            )
        rng = make_rng(self._config.random_seed, seed_label, str(k), str(graph.vertex_count()))

        # Phase 1: coarsening.  Coarse vertices never exceed the part limit so
        # the coarse partition remains projectable to a feasible fine one.
        levels = coarsen(
            graph,
            rng,
            target_vertex_count=max(COARSENING_THRESHOLD, 4 * k),
            max_vertex_weight=limit,
        )

        # Phase 2: initial partitioning on the coarsest graph.  Region growing
        # can paint itself into a corner on dense coarse graphs, and so can
        # the weight-only first-fit fallback: coarse vertices up to the limit
        # in weight are bins that may not pack even when the fine vertices
        # would.  The fallback is retried one level finer each time, down to
        # the fine graph itself, before the grouping counts as infeasible.
        def graph_at(depth: int) -> WeightedGraph:
            """The graph ``depth`` coarsening levels up (0: ``graph`` itself)."""
            return levels[depth - 1].graph if depth else graph

        depth = len(levels)
        try:
            assignment = greedy_region_growing(graph_at(depth), k, max_part_weight=limit, rng=rng)
        except InfeasibleGroupingError:
            while True:
                try:
                    assignment = balanced_random_assignment(
                        graph_at(depth), k, max_part_weight=limit, rng=rng
                    )
                    break
                except InfeasibleGroupingError:
                    if depth == 0:
                        raise
                    depth -= 1
        refine(graph_at(depth), assignment, max_part_weight=limit, parts=k, max_passes=REFINEMENT_PASSES)

        # Phase 3: uncoarsening with refinement at every level.
        for index in range(depth - 1, -1, -1):
            assignment = {
                fine_vertex: assignment[coarse_vertex]
                for fine_vertex, coarse_vertex in levels[index].fine_to_coarse.items()
            }
            refine(graph_at(index), assignment, max_part_weight=limit, parts=k, max_passes=REFINEMENT_PASSES)

        weights = partition_weights(graph, assignment)
        return PartitionResult(
            assignment=assignment,
            cut_weight=cut_weight(graph, assignment),
            part_weights=weights,
            parts=k,
            levels=len(levels),
        )


def verify_partition(
    graph: WeightedGraph,
    assignment: Mapping[int, int],
    *,
    max_part_weight: float,
) -> None:
    """Raise :class:`InfeasibleGroupingError` when the partition violates an invariant.

    Checks that every vertex is assigned and that no part exceeds the weight
    limit.  Used by tests and by SGI after incremental updates.
    """
    missing = [vertex for vertex in graph.vertices() if vertex not in assignment]
    if missing:
        raise InfeasibleGroupingError(f"{len(missing)} vertices are unassigned")
    weights = partition_weights(graph, assignment)
    for part, weight in weights.items():
        if weight > max_part_weight + 1e-9:
            raise InfeasibleGroupingError(
                f"part {part} has weight {weight}, exceeding the limit {max_part_weight}"
            )
