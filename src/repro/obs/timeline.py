"""Per-bucket time-series aggregation and its ASCII sparkline rendering.

:class:`MetricsTimeline` subscribes to the event bus *before* any sampling
(see :mod:`repro.obs.tracer`) and folds every event into per-bucket counter
series keyed by simulation time, plus two kinds of aggregate the event
stream cannot carry:

* per-flow observations (``record_flow``): flows/s and first-packet latency
  percentiles, the latter through a bounded log-scaled histogram per bucket
  (memory is O(buckets × bins), never O(flows) — the streamed
  multi-million-flow path stays O(chunk));
* sampled gauges (``record_gauge``): table occupancy observed at periodic
  ticks, kept as last-and-peak per bucket (occupancy is a level, not a
  rate — install/remove events alone cannot reconstruct it because rule
  overwrites change neither).

The frozen :class:`TimelineResult` rides on ``RunResult.timeline`` and in
bench payloads.  Its ``counts`` series are exact by construction: each sums
to the run's corresponding scalar counter (``flows`` to
``counters.flows_handled``, ``packet_ins`` to ``total_controller_requests``,
``evictions``/``timeouts``/``overflows``/``reinstalls`` to the
:class:`~repro.core.results.TableUsageResult` fields, and so on), which is
what lets ``repro bench --check`` gate on them bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.common.serialize import dataclass_from_dict, dataclass_to_dict

#: Bins per decade of the log-scaled latency histogram.
_BINS_PER_DECADE = 10
#: Clamp for histogram bin indices (10^-3 ms .. 10^5 ms).
_MIN_BIN = -3 * _BINS_PER_DECADE
_MAX_BIN = 5 * _BINS_PER_DECADE

#: Display order of the counter series in the sparkline view.
_PREFERRED_ORDER = (
    "flows",
    "packet_ins",
    "flow_installs",
    "flow_removed",
    "overflows",
    "evictions",
    "timeouts",
    "reinstalls",
    "regroups",
    "churn_events",
    "link_congested",
    "chunks_drained",
    "replay_ticks",
)


def latency_bin(latency_ms: float) -> int:
    """The histogram bin index of one latency sample."""
    if latency_ms <= 0.0:
        return _MIN_BIN
    index = math.floor(_BINS_PER_DECADE * math.log10(latency_ms))
    return max(_MIN_BIN, min(_MAX_BIN, index))


def _bin_value(index: int) -> float:
    """The representative (geometric-midpoint) latency of one bin."""
    return 10.0 ** ((index + 0.5) / _BINS_PER_DECADE)


def _histogram_percentile(bins: Dict[int, int], fraction: float) -> float:
    """The ``fraction`` percentile of a bin-count histogram."""
    total = sum(bins.values())
    rank = max(1, math.ceil(fraction * total))
    seen = 0
    for index in sorted(bins):
        seen += bins[index]
        if seen >= rank:
            return _bin_value(index)
    return _bin_value(max(bins))  # pragma: no cover - rank <= total always hits


@dataclass(frozen=True, slots=True)
class TimelineResult:
    """The serializable per-bucket telemetry of one run.

    ``counts`` holds exact integer event counts per bucket; ``gauges`` holds
    sampled/derived level series (``table_occupancy_last``/``_peak``,
    ``latency_p50_ms``/``p95``/``p99``) where ``None`` marks a bucket with
    no observation.
    """

    bucket_seconds: float
    bucket_count: int
    counts: Dict[str, List[int]] = field(default_factory=dict)
    gauges: Dict[str, List[Optional[float]]] = field(default_factory=dict)
    # Whole-run log-histogram of first-packet latencies (bin index ->
    # count; string keys because the result round-trips through JSON).
    # Exact integer counts, so shard merges can sum it like the counter
    # series and whole-run percentiles stay derivable after a merge.
    latency_bins: Dict[str, int] = field(default_factory=dict)

    def total(self, name: str) -> int:
        """The whole-run sum of one counter series (0 when absent)."""
        return sum(self.counts.get(name, ()))

    def latency_percentile(self, fraction: float) -> Optional[float]:
        """A whole-run first-packet latency percentile, or ``None`` if unrecorded.

        Computed from the run-wide log-histogram, same bin resolution as
        the per-bucket ``latency_p*_ms`` gauges (about 26% per bin).
        """
        if not self.latency_bins:
            return None
        bins = {int(index): count for index, count in self.latency_bins.items()}
        return _histogram_percentile(bins, fraction)

    def rate_series(self, name: str) -> List[float]:
        """One counter series as per-second rates."""
        if self.bucket_seconds <= 0:
            return [0.0] * self.bucket_count
        return [count / self.bucket_seconds for count in self.counts.get(name, [])]

    def to_dict(self) -> Dict[str, Any]:
        """A JSON-ready representation of this timeline."""
        return dataclass_to_dict(self)

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "TimelineResult":
        """Rebuild a timeline from :meth:`to_dict` output."""
        return dataclass_from_dict(cls, data)


class MetricsTimeline:
    """Accumulates events, per-flow observations and gauges into buckets."""

    __slots__ = ("bucket_seconds", "_counts", "_gauge_last", "_gauge_peak", "_latency")

    def __init__(self, bucket_seconds: float) -> None:
        if bucket_seconds <= 0:
            raise ValueError("bucket_seconds must be positive")
        self.bucket_seconds = float(bucket_seconds)
        self._counts: Dict[str, Dict[int, int]] = {}
        self._gauge_last: Dict[str, Dict[int, float]] = {}
        self._gauge_peak: Dict[str, Dict[int, float]] = {}
        self._latency: Dict[int, Dict[int, int]] = {}

    def _bucket(self, now: float) -> int:
        return max(0, int(now // self.bucket_seconds))

    def _count(self, name: str, now: float, amount: int = 1) -> None:
        buckets = self._counts.get(name)
        if buckets is None:
            buckets = self._counts[name] = {}
        bucket = self._bucket(now)
        buckets[bucket] = buckets.get(bucket, 0) + amount

    # -- event-bus subscription ------------------------------------------------

    def on_event(self, event) -> None:
        """Fold one published event into its counter series."""
        name = type(event).event
        if name == "packet_in":
            self._count("packet_ins", event.time)
        elif name == "flow_install":
            self._count("flow_installs", event.time)
        elif name == "flow_removed":
            self._count("flow_removed", event.time)
        elif name == "eviction":
            series = "evictions" if event.reason == "evicted" else "timeouts"
            self._count(series, event.time)
        elif name == "overflow":
            self._count("overflows", event.time)
        elif name == "reinstall":
            self._count("reinstalls", event.time)
        elif name == "churn":
            # Only topology-changing events count, matching ChurnStats.
            if event.applied > 0:
                self._count("churn_events", event.time)
        elif name == "regroup_finish":
            if event.applied:
                self._count("regroups", event.time)
        elif name == "link_congested":
            self._count("link_congested", event.time)
        elif name == "chunk_drained":
            self._count("chunks_drained", event.time)
        elif name == "replay_tick":
            self._count("replay_ticks", event.time)
        # regroup_start is a span marker, not an aggregate.

    # -- direct observations ---------------------------------------------------

    def record_flow(self, now: float, latency_ms: float) -> None:
        """Record one handled flow and its first-packet latency."""
        self._count("flows", now)
        bucket = self._bucket(now)
        bins = self._latency.get(bucket)
        if bins is None:
            bins = self._latency[bucket] = {}
        index = latency_bin(latency_ms)
        bins[index] = bins.get(index, 0) + 1

    def record_flows_bulk(
        self, flow_counts: Dict[int, int], latency_bin_counts: Dict[tuple, int]
    ) -> None:
        """Fold many :meth:`record_flow` observations at once.

        The vectorized replay kernel's bulk companion: ``flow_counts`` maps a
        bucket index (already clamped via the :meth:`_bucket` rule) to a flow
        count, and ``latency_bin_counts`` maps ``(bucket, latency_bin)`` to a
        sample count.  All additions are integer and therefore order-free, so
        the result is identical to the equivalent per-flow calls.
        """
        if flow_counts:
            buckets = self._counts.get("flows")
            if buckets is None:
                buckets = self._counts["flows"] = {}
            for bucket, amount in flow_counts.items():
                buckets[bucket] = buckets.get(bucket, 0) + amount
        for (bucket, index), amount in latency_bin_counts.items():
            bins = self._latency.get(bucket)
            if bins is None:
                bins = self._latency[bucket] = {}
            bins[index] = bins.get(index, 0) + amount

    def record_gauge(self, name: str, now: float, value: float) -> None:
        """Record one sampled level (last and peak per bucket)."""
        bucket = self._bucket(now)
        last = self._gauge_last.get(name)
        if last is None:
            last = self._gauge_last[name] = {}
            self._gauge_peak[name] = {}
        last[bucket] = float(value)
        peak = self._gauge_peak[name]
        previous = peak.get(bucket)
        if previous is None or value > previous:
            peak[bucket] = float(value)

    # -- freezing --------------------------------------------------------------

    def result(self, bucket_count: int) -> TimelineResult:
        """Freeze the accumulated series into ``bucket_count`` buckets.

        Observations past the final bucket (none in a well-formed replay)
        are folded into it rather than dropped, so series sums stay exact.
        """
        bucket_count = max(1, bucket_count)
        last = bucket_count - 1

        counts: Dict[str, List[int]] = {}
        for name, buckets in sorted(self._counts.items()):
            series = [0] * bucket_count
            for bucket, amount in buckets.items():
                series[min(bucket, last)] += amount
            counts[name] = series

        gauges: Dict[str, List[Optional[float]]] = {}
        for name, buckets in sorted(self._gauge_last.items()):
            series: List[Optional[float]] = [None] * bucket_count
            for bucket, value in buckets.items():
                series[min(bucket, last)] = value
            gauges[f"{name}_last"] = series
            peak_series: List[Optional[float]] = [None] * bucket_count
            for bucket, value in self._gauge_peak[name].items():
                index = min(bucket, last)
                previous = peak_series[index]
                peak_series[index] = value if previous is None else max(previous, value)
            gauges[f"{name}_peak"] = peak_series

        latency_bins: Dict[str, int] = {}
        if self._latency:
            for label, fraction in (("p50", 0.50), ("p95", 0.95), ("p99", 0.99)):
                series = [None] * bucket_count
                for bucket, bins in self._latency.items():
                    if bins:
                        series[min(bucket, last)] = _histogram_percentile(bins, fraction)
                gauges[f"latency_{label}_ms"] = series
            merged: Dict[int, int] = {}
            for bins in self._latency.values():
                for index, count in bins.items():
                    merged[index] = merged.get(index, 0) + count
            latency_bins = {str(index): merged[index] for index in sorted(merged)}

        return TimelineResult(
            bucket_seconds=self.bucket_seconds,
            bucket_count=bucket_count,
            counts=counts,
            gauges=gauges,
            latency_bins=latency_bins,
        )


# -- rendering -----------------------------------------------------------------

_SPARK_CHARS = "▁▂▃▄▅▆▇█"


def sparkline(values: List[Optional[float]]) -> str:
    """Render one series as unicode blocks; ``None`` renders as a space."""
    present = [value for value in values if value is not None]
    peak = max(present, default=0.0)
    chars = []
    for value in values:
        if value is None:
            chars.append(" ")
        elif peak <= 0:
            chars.append(_SPARK_CHARS[0])
        else:
            level = int(value / peak * (len(_SPARK_CHARS) - 1))
            chars.append(_SPARK_CHARS[max(0, min(level, len(_SPARK_CHARS) - 1))])
    return "".join(chars)


def render_timeline(timeline: TimelineResult, *, label: str = "") -> str:
    """Render one timeline as the per-series sparkline view of ``repro timeline``."""
    if timeline.bucket_seconds % 3600.0 == 0.0:
        width = f"{timeline.bucket_seconds / 3600.0:g}h"
    else:
        width = f"{timeline.bucket_seconds:g}s"
    header = f"{label or 'timeline'} — {timeline.bucket_count} buckets × {width}"
    lines = [header]

    ordered = [name for name in _PREFERRED_ORDER if name in timeline.counts]
    ordered += [name for name in sorted(timeline.counts) if name not in _PREFERRED_ORDER]
    for name in ordered:
        series = timeline.counts[name]
        total = sum(series)
        if total == 0 and name not in ("flows", "packet_ins"):
            continue
        spark = sparkline([float(value) for value in series])
        lines.append(f"  {name:<20} {spark}  total={total} peak={max(series, default=0)}")
    for name in sorted(timeline.gauges):
        series = timeline.gauges[name]
        present = [value for value in series if value is not None]
        if not present:
            continue
        lines.append(
            f"  {name:<20} {sparkline(series)}  last={present[-1]:g} peak={max(present):g}"
        )
    return "\n".join(lines)
