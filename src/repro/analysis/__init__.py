"""Analysis helpers: centrality computation and report formatting."""

from repro.analysis.centrality import (
    CentralityReport,
    centrality_of_groups,
    partition_intensity,
    trace_centrality,
)
from repro.analysis.heatmap import hot_links_report, latency_percentile_rows, render_heatmap
from repro.analysis.reports import format_percent, format_table, two_hour_bucket_labels

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
