"""Graph partitioning: MLkP, min-cut/min-bisection and the SGI grouping algorithm."""

from repro.partitioning.bisection import BisectionResult, min_bisection
from repro.partitioning.coarsening import (
    CoarseningLevel,
    coarsen,
    contract,
    heavy_edge_matching,
)
from repro.partitioning.graph import (
    WeightedGraph,
    cut_weight,
    groups_from_assignment,
    partition_weights,
)
from repro.partitioning.initial import balanced_random_assignment, greedy_region_growing
from repro.partitioning.mlkp import MultiLevelKWayPartitioner, PartitionResult, verify_partition
from repro.partitioning.refinement import refine, refine_once
from repro.partitioning.sgi import (
    Grouping,
    IncUpdateReport,
    SgiGrouper,
    SgiStatistics,
    grouping_quality,
)
from repro.partitioning.stoer_wagner import MinCutResult, stoer_wagner_min_cut

__all__ = [
    "BisectionResult",
    "CoarseningLevel",
    "Grouping",
    "IncUpdateReport",
    "MinCutResult",
    "MultiLevelKWayPartitioner",
    "PartitionResult",
    "SgiGrouper",
    "SgiStatistics",
    "WeightedGraph",
    "balanced_random_assignment",
    "coarsen",
    "contract",
    "cut_weight",
    "greedy_region_growing",
    "grouping_quality",
    "groups_from_assignment",
    "heavy_edge_matching",
    "min_bisection",
    "partition_weights",
    "refine",
    "refine_once",
    "stoer_wagner_min_cut",
    "verify_partition",
]
