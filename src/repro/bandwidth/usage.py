"""The serializable per-link utilization matrix attached to run results.

One :class:`LinkUsageResult` records, for every capacitated edge-switch
uplink, the offered load per accounting window as a fraction of capacity.
Values above 1.0 mean the window was offered more bytes than the link could
carry — the cells the heatmap highlights and the queueing term feeds on
(capped below 1.0 there so the M/M/1 form stays finite).

Switch ids are stored as strings because the matrix round-trips through
JSON, whose object keys are always strings.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple


@dataclass(frozen=True, slots=True)
class LinkUsageResult:
    """Per-uplink offered-load fractions over fixed accounting windows."""

    window_seconds: float
    capacities_mbps: Dict[str, float] = field(default_factory=dict)
    utilization: Dict[str, List[float]] = field(default_factory=dict)

    @property
    def window_count(self) -> int:
        """Number of accounting windows in every per-link series."""
        return max((len(series) for series in self.utilization.values()), default=0)

    @property
    def peak_utilization(self) -> float:
        """The highest cell in the matrix (0.0 when no link saw traffic)."""
        return max(
            (value for series in self.utilization.values() for value in series),
            default=0.0,
        )

    @property
    def congested_cells(self) -> int:
        """Number of ``(link, window)`` cells offered at least their capacity."""
        return sum(
            1
            for series in self.utilization.values()
            for value in series
            if value >= 1.0
        )

    def hot_links(self, threshold: float = 1.0) -> List[Tuple[int, float, int]]:
        """Links whose peak meets ``threshold``: ``(switch_id, peak, hot_windows)``.

        Sorted by peak utilization descending, then by switch id for
        determinism among ties.
        """
        rows = []
        for key, series in self.utilization.items():
            if not series:
                continue
            peak = max(series)
            if peak >= threshold:
                hot_windows = sum(1 for value in series if value >= threshold)
                rows.append((int(key), peak, hot_windows))
        rows.sort(key=lambda row: (-row[1], row[0]))
        return rows

    def bucket_maxima(self, bucket_seconds: float, bucket_count: int) -> List[float]:
        """Per result-bucket maximum utilization across all links and windows.

        Aggregates the fine accounting windows up to the coarser result
        buckets so the series can sit next to the per-bucket timeline
        counters in benchmark payloads.
        """
        if bucket_count <= 0 or bucket_seconds <= 0:
            return []
        maxima = [0.0] * bucket_count
        for series in self.utilization.values():
            for index, value in enumerate(series):
                bucket = min(int(index * self.window_seconds / bucket_seconds), bucket_count - 1)
                if value > maxima[bucket]:
                    maxima[bucket] = value
        return maxima
