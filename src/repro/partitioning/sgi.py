"""SGI — Size-constrained Grouping with Incremental update support.

This module implements the paper's switch-grouping algorithm (Fig. 3):

* ``IniGroup`` — build the intensity graph from history traffic statistics,
  estimate the number of groups ``k`` (switch count divided by the size
  limit) and run the size-constrained multi-level k-way partitioner.
* ``IncUpdate`` — while the controller is overloaded, pick the pair of
  groups between which traffic grew the most, merge them and split the merged
  group again with a size-constrained minimum bisection, so the two new
  groups exchange as little traffic as possible.  Refinement stops when the
  controller load drops below the low threshold (or no useful merge remains).

The module is deliberately independent of the control plane: it operates on
:class:`~repro.datastructures.intensity.IntensityMatrix` objects and returns
:class:`Grouping` values, so it can be benchmarked in isolation (Fig. 6) and
reused by the grouping manager in ``repro.controlplane``.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.common.config import GroupingConfig
from repro.common.errors import InfeasibleGroupingError, PartitioningError
from repro.common.rng import make_rng
from repro.datastructures.intensity import IntensityMatrix
from repro.partitioning.graph import WeightedGraph
from repro.partitioning.bisection import min_bisection
from repro.partitioning.mlkp import MultiLevelKWayPartitioner, verify_partition


@dataclass(frozen=True, slots=True)
class Grouping:
    """A grouping of edge switches into Local Control Groups.

    ``groups`` maps a stable group identifier to the frozen set of member
    switch ids.  The identifiers survive incremental updates for groups that
    were not touched, which lets the control plane avoid re-provisioning
    unaffected groups.
    """

    groups: Dict[int, frozenset[int]]

    def group_count(self) -> int:
        """Number of groups."""
        return len(self.groups)

    def switch_count(self) -> int:
        """Total number of grouped switches."""
        return sum(len(members) for members in self.groups.values())

    def largest_group_size(self) -> int:
        """Size of the largest group."""
        return max((len(members) for members in self.groups.values()), default=0)

    def sizes(self) -> List[int]:
        """Sizes of every group, sorted descending."""
        return sorted((len(members) for members in self.groups.values()), reverse=True)

    def as_sets(self) -> List[set[int]]:
        """Return the groups as plain sets (for intensity-matrix helpers)."""
        return [set(members) for members in self.groups.values()]


@dataclass(slots=True)
class SgiStatistics:
    """Counters describing the work SGI has performed so far."""

    initial_groupings: int = 0
    incremental_updates: int = 0
    merge_split_operations: int = 0
    last_initial_seconds: float = 0.0
    last_incremental_seconds: float = 0.0
    total_seconds: float = 0.0


@dataclass(frozen=True, slots=True)
class IncUpdateReport:
    """Result of one IncUpdate invocation."""

    grouping: Grouping
    merge_split_count: int
    inter_group_before: float
    inter_group_after: float
    elapsed_seconds: float

    @property
    def improved(self) -> bool:
        """Whether the update reduced the normalized inter-group intensity."""
        return self.inter_group_after < self.inter_group_before - 1e-12


class SgiGrouper:
    """The SGI algorithm: size-constrained initial grouping + incremental updates."""

    def __init__(self, config: GroupingConfig | None = None) -> None:
        self._config = config or GroupingConfig()
        self._partitioner = MultiLevelKWayPartitioner(self._config)
        self._next_group_id = 0
        self.statistics = SgiStatistics()

    @property
    def config(self) -> GroupingConfig:
        """The grouping configuration in force."""
        return self._config

    # -- IniGroup ---------------------------------------------------------

    def estimate_group_count(self, switch_count: int, *, group_size_limit: int | None = None) -> int:
        """Estimate ``k`` as the switch count divided by the size limit (paper §III-C.2)."""
        limit = group_size_limit or self._config.group_size_limit
        if switch_count <= 0:
            return 0
        return max(1, math.ceil(switch_count / limit))

    def initial_grouping(
        self,
        matrix: IntensityMatrix,
        *,
        group_count: int | None = None,
        group_size_limit: int | None = None,
    ) -> Grouping:
        """Run ``IniGroup``: build the intensity graph and partition it.

        ``group_count`` defaults to the estimate from the size limit; a larger
        value may be passed to study the trade-off of Fig. 6(a).
        """
        started = time.perf_counter()
        limit = group_size_limit or self._config.group_size_limit
        switches = matrix.switches()
        if not switches:
            return Grouping(groups={})
        k = group_count if group_count is not None else self.estimate_group_count(len(switches), group_size_limit=limit)
        if k * limit < len(switches):
            raise InfeasibleGroupingError(
                f"{len(switches)} switches cannot fit into {k} groups of size {limit}"
            )
        graph = WeightedGraph.from_intensity_matrix(matrix)
        result = self._partitioner.partition(graph, k, max_part_weight=float(limit))
        verify_partition(graph, result.assignment, max_part_weight=float(limit))
        groups: Dict[int, frozenset[int]] = {}
        for members in result.groups():
            if not members:
                continue
            groups[self._allocate_group_id()] = frozenset(members)
        elapsed = time.perf_counter() - started
        self.statistics.initial_groupings += 1
        self.statistics.last_initial_seconds = elapsed
        self.statistics.total_seconds += elapsed
        return Grouping(groups=groups)

    # -- IncUpdate --------------------------------------------------------

    def incremental_update(
        self,
        grouping: Grouping,
        history_matrix: IntensityMatrix,
        recent_matrix: IntensityMatrix,
        *,
        group_size_limit: int | None = None,
        max_merge_splits: int = 8,
        stop_when_intensity_below: float | None = None,
    ) -> IncUpdateReport:
        """Run ``IncUpdate``: repeatedly merge and re-split the worst group pair.

        ``history_matrix`` carries the long-term affinity used to evaluate the
        overall grouping quality; ``recent_matrix`` carries the most recent
        measurement window, which determines *which* pair of groups changed
        the most.  ``stop_when_intensity_below`` plays the role of the
        controller's low-load threshold: refinement stops once the normalized
        inter-group intensity (on the combined view) drops below it.
        """
        started = time.perf_counter()
        limit = float(group_size_limit or self._config.group_size_limit)
        combined = history_matrix.copy()
        combined.merge(recent_matrix)

        # ``combined`` does not change below: one graph and one known-switch
        # set serve every merge-split of this update.
        graph = WeightedGraph.from_intensity_matrix(combined)
        known = graph.vertex_weights.keys()

        current = {group_id: set(members) for group_id, members in grouping.groups.items()}
        before = combined.normalized_inter_group_intensity(list(current.values()))
        now_intensity = before
        merge_splits = 0
        rng = make_rng(self._config.random_seed, "incupdate", str(self.statistics.incremental_updates))

        attempted_pairs: set[Tuple[int, int]] = set()
        for _ in range(max_merge_splits):
            if stop_when_intensity_below is not None and now_intensity <= stop_when_intensity_below:
                break
            pair = self._find_candidate_pair(current, recent_matrix, combined, limit, attempted_pairs)
            if pair is None:
                break
            group_a, group_b = pair
            attempted_pairs.add(pair)
            merged_members = current[group_a] | current[group_b]
            if merged_members <= known:
                subgraph = graph.subgraph(merged_members)
            else:
                subgraph = self._build_subgraph(combined, merged_members)
            try:
                bisection = min_bisection(subgraph, max_side_weight=limit, rng=rng)
            except (InfeasibleGroupingError, PartitioningError):
                continue
            # Replace the two old groups only if the split does not make the
            # grouping worse on the combined view.
            candidate = {gid: members for gid, members in current.items() if gid not in (group_a, group_b)}
            candidate[group_a] = set(bisection.side_a)
            candidate[group_b] = set(bisection.side_b)
            candidate_intensity = combined.normalized_inter_group_intensity(list(candidate.values()))
            if candidate_intensity <= now_intensity + 1e-12:
                # The intensity the next round starts from, and the last one
                # accepted the update ends on, is the one just computed.
                current = candidate
                now_intensity = candidate_intensity
                merge_splits += 1

        after = now_intensity
        elapsed = time.perf_counter() - started
        self.statistics.incremental_updates += 1
        self.statistics.merge_split_operations += merge_splits
        self.statistics.last_incremental_seconds = elapsed
        self.statistics.total_seconds += elapsed
        new_grouping = Grouping(groups={gid: frozenset(members) for gid, members in current.items() if members})
        return IncUpdateReport(
            grouping=new_grouping,
            merge_split_count=merge_splits,
            inter_group_before=before,
            inter_group_after=after,
            elapsed_seconds=elapsed,
        )

    # -- helpers ----------------------------------------------------------

    def _allocate_group_id(self) -> int:
        group_id = self._next_group_id
        self._next_group_id += 1
        return group_id

    @staticmethod
    def _build_subgraph(matrix: IntensityMatrix, members: set[int]) -> WeightedGraph:
        """Build an intensity subgraph that tolerates switches unseen by the matrix."""
        graph = WeightedGraph()
        for switch_id in members:
            graph.add_vertex(switch_id, 1.0)
        for a, b, weight in matrix.pairs():
            if a in members and b in members:
                graph.add_edge(a, b, weight)
        return graph

    def _find_candidate_pair(
        self,
        current: Dict[int, set[int]],
        recent_matrix: IntensityMatrix,
        combined_matrix: IntensityMatrix,
        limit: float,
        attempted: set[Tuple[int, int]],
    ) -> Optional[Tuple[int, int]]:
        """Pick the pair of groups with the most significant recent inter-group traffic.

        Only pairs whose combined size fits within twice the group limit are
        eligible (otherwise no feasible re-split exists).  Pairs already
        attempted in this invocation are skipped so the loop terminates.
        """
        group_of = {switch_id: group_id for group_id, members in current.items() for switch_id in members}
        recent_scores = self._group_pair_intensities(recent_matrix, group_of)
        fallback_scores = self._group_pair_intensities(combined_matrix, group_of)
        group_ids = sorted(current)
        best_pair: Optional[Tuple[int, int]] = None
        best_score = 0.0
        for index, group_a in enumerate(group_ids):
            for group_b in group_ids[index + 1 :]:
                key = (group_a, group_b)
                if key in attempted:
                    continue
                if len(current[group_a]) + len(current[group_b]) > 2 * limit + 1e-9:
                    continue
                recent = recent_scores.get(key, 0.0)
                score = recent if recent > 0 else 0.5 * fallback_scores.get(key, 0.0)
                if score > best_score + 1e-12:
                    best_score = score
                    best_pair = key
        return best_pair

    @staticmethod
    def _group_pair_intensities(
        matrix: IntensityMatrix, group_of: Dict[int, int]
    ) -> Dict[Tuple[int, int], float]:
        """Intensity between every two groups, keyed ``(lower id, higher id)``, in one pass.

        Each total is a left fold of its own pairs in ``matrix.pairs()`` order
        — the float a scan per group pair would produce.  Ungrouped switches
        belong to no pair.
        """
        totals: Dict[Tuple[int, int], float] = {}
        for a, b, weight in matrix.pairs():
            group_a = group_of.get(a)
            group_b = group_of.get(b)
            if group_a is None or group_b is None or group_a == group_b:
                continue
            key = (group_a, group_b) if group_a < group_b else (group_b, group_a)
            totals[key] = totals.get(key, 0.0) + weight
        return totals


def grouping_quality(matrix: IntensityMatrix, grouping: Grouping) -> float:
    """Normalized inter-group intensity of ``grouping`` under ``matrix`` (lower is better)."""
    return matrix.normalized_inter_group_intensity(grouping.as_sets())
