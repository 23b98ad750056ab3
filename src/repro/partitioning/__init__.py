"""Graph partitioning: MLkP, min-cut/min-bisection and the SGI grouping algorithm."""

from repro import _lazy_exports

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

__getattr__, __dir__ = _lazy_exports(
    __name__,
    {
        "repro.partitioning.bisection": ("BisectionResult", "min_bisection"),
        "repro.partitioning.coarsening": (
            "CoarseningLevel",
            "coarsen",
            "contract",
            "heavy_edge_matching",
        ),
        "repro.partitioning.graph": (
            "WeightedGraph",
            "cut_weight",
            "groups_from_assignment",
            "partition_weights",
        ),
        "repro.partitioning.initial": ("balanced_random_assignment", "greedy_region_growing"),
        "repro.partitioning.mlkp": (
            "MultiLevelKWayPartitioner",
            "PartitionResult",
            "verify_partition",
        ),
        "repro.partitioning.refinement": ("refine", "refine_once"),
        "repro.partitioning.sgi": (
            "Grouping",
            "IncUpdateReport",
            "SgiGrouper",
            "SgiStatistics",
            "grouping_quality",
        ),
        "repro.partitioning.stoer_wagner": ("MinCutResult", "stoer_wagner_min_cut"),
    },
)
