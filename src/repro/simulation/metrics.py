"""Metric recorders used by the evaluation harness.

Three recorders cover everything the paper's figures need:

* :class:`CounterSeries` — time-bucketed counters (controller requests per
  2-hour bucket for Fig. 7, grouping updates per hour for Fig. 8).
* :class:`LatencyRecorder` — per-bucket latency sums and counts, folded
  into per-bucket and overall means (Fig. 9).  Only the sums are kept, never
  the raw samples.
* :class:`WorkloadMeter` — sliding-window requests-per-second estimate the
  grouping manager consults for its overload threshold.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, List, Tuple


class CounterSeries:
    """Counts of events grouped into fixed-width time buckets."""

    __slots__ = ("_bucket_seconds", "_buckets")

    def __init__(self, bucket_seconds: float) -> None:
        if bucket_seconds <= 0:
            raise ValueError("bucket_seconds must be positive")
        self._bucket_seconds = float(bucket_seconds)
        self._buckets: Dict[int, float] = {}

    @property
    def bucket_seconds(self) -> float:
        """Width of each bucket in seconds."""
        return self._bucket_seconds

    def record(self, timestamp: float, amount: float = 1.0) -> None:
        """Add ``amount`` to the bucket containing ``timestamp``."""
        index = int(timestamp // self._bucket_seconds)
        self._buckets[index] = self._buckets.get(index, 0.0) + amount

    def total(self) -> float:
        """Sum over all buckets."""
        return sum(self._buckets.values())

    def bucket_count(self, index: int) -> float:
        """Count in bucket ``index`` (0 when empty)."""
        return self._buckets.get(index, 0.0)

    def series(self, *, bucket_range: Tuple[int, int] | None = None) -> List[Tuple[int, float]]:
        """Return ``(bucket_index, count)`` pairs sorted by bucket.

        ``bucket_range`` fills gaps with zero counts so plots cover the whole
        experiment duration even for quiet periods.
        """
        if bucket_range is None:
            return sorted(self._buckets.items())
        start, end = bucket_range
        return [(index, self._buckets.get(index, 0.0)) for index in range(start, end)]


class LatencyRecorder:
    """Latency samples grouped into fixed-width time buckets."""

    __slots__ = ("_bucket_seconds", "_sums", "_counts")

    def __init__(self, bucket_seconds: float) -> None:
        if bucket_seconds <= 0:
            raise ValueError("bucket_seconds must be positive")
        self._bucket_seconds = float(bucket_seconds)
        self._sums: Dict[int, float] = {}
        self._counts: Dict[int, int] = {}

    @property
    def bucket_seconds(self) -> float:
        """Width of each bucket in seconds."""
        return self._bucket_seconds

    def record(self, timestamp: float, latency_ms: float, *, count: int = 1) -> None:
        """Record ``count`` samples of value ``latency_ms`` observed at ``timestamp``.

        ``count`` lets callers fold many identical per-packet samples (e.g.
        the non-first packets of one flow) into a single call without biasing
        the bucket means.
        """
        if count <= 0:
            return
        index = int(timestamp // self._bucket_seconds)
        self._sums[index] = self._sums.get(index, 0.0) + latency_ms * count
        self._counts[index] = self._counts.get(index, 0) + count

    def record_bulk(self, index: int, addends: List[float], count: int) -> None:
        """Fold precomputed per-call addends into one bucket, in order.

        The vectorized replay kernel's companion to :meth:`record`: each
        element of ``addends`` is the ``latency_ms * count`` term one scalar
        ``record`` call would have added, and they are folded into the bucket
        sum by the same sequential left-to-right addition, so the result is
        bit-identical to making the individual calls.  ``count`` is the total
        sample count across those calls.
        """
        if count <= 0:
            return
        total = self._sums.get(index, 0.0)
        for addend in addends:
            total += addend
        self._sums[index] = total
        self._counts[index] = self._counts.get(index, 0) + count

    def overall_mean(self) -> float:
        """Mean latency over all samples (0 when empty)."""
        total = sum(self._counts.values())
        return sum(self._sums.values()) / total if total else 0.0

    def bucket_mean(self, index: int) -> float:
        """Mean latency within bucket ``index`` (0 when empty)."""
        count = self._counts.get(index, 0)
        return self._sums.get(index, 0.0) / count if count else 0.0

    def bucket_totals(self) -> Dict[int, Tuple[float, int]]:
        """Per-bucket ``(latency_sum, sample_count)`` pairs.

        The mergeable raw form of the recorder: summing the pairs across
        independent recorders and dividing once reproduces the exact bucket
        means a single recorder over the union would report — unlike
        averaging the per-recorder means, which is neither exact nor
        associative.  The sharded-replay merge depends on this.
        """
        return {index: (self._sums[index], self._counts[index]) for index in self._counts}


class WorkloadMeter:
    """Sliding-window estimate of controller requests per second.

    The grouping manager compares this estimate against its overload
    threshold, and against the load measured at the previous regrouping to
    detect the 30 % accumulated growth trigger.
    """

    __slots__ = ("_window_seconds", "_events", "_total")

    def __init__(self, window_seconds: float = 60.0) -> None:
        if window_seconds <= 0:
            raise ValueError("window_seconds must be positive")
        self._window_seconds = float(window_seconds)
        self._events: Deque[Tuple[float, float]] = deque()
        self._total = 0.0

    @property
    def window_seconds(self) -> float:
        """Length of the sliding window."""
        return self._window_seconds

    def record(self, timestamp: float, amount: float = 1.0) -> None:
        """Record ``amount`` requests handled at ``timestamp``."""
        self._events.append((timestamp, amount))
        self._total += amount
        self._expire(timestamp)

    def rate(self, now: float) -> float:
        """Requests per second over the window ending at ``now``."""
        self._expire(now)
        if not self._events:
            return 0.0
        span = min(self._window_seconds, max(now - self._events[0][0], 1e-9))
        return self._total / span

    def _expire(self, now: float) -> None:
        threshold = now - self._window_seconds
        while self._events and self._events[0][0] < threshold:
            _, amount = self._events.popleft()
            self._total -= amount
