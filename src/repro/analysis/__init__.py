"""Analysis helpers: centrality computation, the link heatmap and report formatting."""

from repro import _lazy_exports

__all__ = [
    "CentralityReport",
    "centrality_of_groups",
    "format_percent",
    "format_table",
    "hot_links_report",
    "latency_percentile_rows",
    "partition_intensity",
    "render_heatmap",
    "trace_centrality",
    "two_hour_bucket_labels",
]

__getattr__, __dir__ = _lazy_exports(
    __name__,
    {
        "repro.analysis.centrality": (
            "CentralityReport",
            "centrality_of_groups",
            "partition_intensity",
            "trace_centrality",
        ),
        "repro.analysis.heatmap": (
            "hot_links_report",
            "latency_percentile_rows",
            "render_heatmap",
        ),
        "repro.common.formatting": ("format_percent", "format_table", "two_hour_bucket_labels"),
    },
)
