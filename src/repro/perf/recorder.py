"""Low-overhead counter/timer instrumentation for the replay hot path.

Two recorders share one tiny interface:

* :class:`NullRecorder` — the default everywhere.  Every method is a no-op
  and :meth:`NullRecorder.timeit` returns a shared context manager whose
  ``__enter__``/``__exit__`` do nothing, so instrumented call sites cost one
  attribute lookup and one call when profiling is off.  Hot loops that fire
  per flow additionally guard on the class attribute ``enabled``.
* :class:`PerfRecorder` — the real thing: a named-counter registry plus a
  stage-timer registry with nesting support (a stage's *exclusive* time is
  its total wall time minus the time spent in stages nested inside it).

The recorder deliberately never touches simulation time; it measures host
wall-clock (``time.perf_counter``) because its job is to explain where the
*replayer* spends real seconds, not where the simulated network spends
simulated ones.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from time import perf_counter
from typing import Dict, List, Tuple

from repro.perf.report import PerfSnapshot, StageStats


def peak_rss_bytes() -> int:
    """The process's peak resident-set size in bytes (0 when unavailable).

    Reads ``ru_maxrss`` for the current process: the high-water mark of
    physical memory since process start.  It only ever grows, so comparing
    it before/after a replay bounds that replay's footprint from above —
    which is exactly what the streaming pipeline's O(chunk) claim needs.
    """
    try:
        import resource
    except ImportError:  # pragma: no cover - non-POSIX platforms
        return 0
    usage = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # Linux reports kilobytes, macOS reports bytes.
    return usage if sys.platform == "darwin" else usage * 1024


class _NullTimer:
    """Shared do-nothing context manager returned by the null recorder."""

    __slots__ = ()

    def __enter__(self) -> "_NullTimer":
        return self

    def __exit__(self, *exc: object) -> bool:
        return False


_NULL_TIMER = _NullTimer()


class NullRecorder:
    """The disabled recorder: every operation is a no-op.

    A single module-level instance (:data:`NULL_RECORDER`) is shared by every
    component, so "instrumentation off" costs no allocations at all.
    """

    __slots__ = ()

    enabled = False

    def count(self, name: str, amount: int = 1) -> None:
        """Discard a counter increment."""

    def gauge(self, name: str, value: float) -> None:
        """Discard a gauge observation."""

    def timeit(self, name: str) -> _NullTimer:
        """Return the shared no-op context manager."""
        return _NULL_TIMER


#: The shared disabled recorder; components default to this instance.
NULL_RECORDER = NullRecorder()


@dataclass(slots=True)
class _StageAccumulator:
    """Mutable per-stage accounting: call count, total and nested-child time."""

    calls: int = 0
    total_seconds: float = 0.0
    child_seconds: float = 0.0


class _StageTimer:
    """Context manager timing one entry into a named stage (supports nesting)."""

    __slots__ = ("_recorder", "_name", "_start")

    def __init__(self, recorder: "PerfRecorder", name: str) -> None:
        self._recorder = recorder
        self._name = name
        self._start = 0.0

    def __enter__(self) -> "_StageTimer":
        self._recorder._stack.append(self._name)
        self._start = perf_counter()
        return self

    def __exit__(self, *exc: object) -> bool:
        elapsed = perf_counter() - self._start
        recorder = self._recorder
        recorder._stack.pop()
        stage = recorder._stages.get(self._name)
        if stage is None:
            stage = recorder._stages[self._name] = _StageAccumulator()
        stage.calls += 1
        stage.total_seconds += elapsed
        if recorder._stack:
            parent = recorder._stages.get(recorder._stack[-1])
            if parent is None:
                parent = recorder._stages[recorder._stack[-1]] = _StageAccumulator()
            parent.child_seconds += elapsed
        return False


class PerfRecorder:
    """Collects named counters, gauges and nested stage timings during one replay."""

    __slots__ = ("counters", "gauges", "_stages", "_stack")

    enabled = True

    def __init__(self) -> None:
        self.counters: Dict[str, int] = {}
        self.gauges: Dict[str, float] = {}
        self._stages: Dict[str, _StageAccumulator] = {}
        self._stack: List[str] = []

    # -- counters -----------------------------------------------------------

    def count(self, name: str, amount: int = 1) -> None:
        """Add ``amount`` to the named counter (created on first use)."""
        self.counters[name] = self.counters.get(name, 0) + amount

    def counter(self, name: str) -> int:
        """Current value of the named counter (0 when never incremented)."""
        return self.counters.get(name, 0)

    # -- gauges -------------------------------------------------------------

    def gauge(self, name: str, value: float) -> None:
        """Record a point-in-time measurement (last observation wins).

        Gauges hold sampled values — peak RSS, a queue depth — as opposed to
        counters, which accumulate.
        """
        self.gauges[name] = float(value)

    # -- timers -------------------------------------------------------------

    def timeit(self, name: str) -> _StageTimer:
        """Context manager accumulating wall time into stage ``name``.

        Stages nest: time spent inside an inner ``timeit`` is attributed to
        both stages' totals, and subtracted from the outer stage's
        *exclusive* time in the snapshot.
        """
        return _StageTimer(self, name)

    def stage_total_seconds(self, name: str) -> float:
        """Total (inclusive) seconds accumulated by stage ``name``."""
        stage = self._stages.get(name)
        return stage.total_seconds if stage is not None else 0.0

    def stage_stats(self) -> Tuple[StageStats, ...]:
        """Per-stage statistics ordered by descending total time."""
        stats = [
            StageStats(
                name=name,
                calls=stage.calls,
                total_seconds=stage.total_seconds,
                exclusive_seconds=max(0.0, stage.total_seconds - stage.child_seconds),
            )
            for name, stage in self._stages.items()
        ]
        stats.sort(key=lambda item: (-item.total_seconds, item.name))
        return tuple(stats)

    # -- snapshots ------------------------------------------------------------

    def snapshot(self, *, wall_seconds: float = 0.0, flows_replayed: int = 0) -> PerfSnapshot:
        """Freeze the collected metrics into a serializable snapshot."""
        if wall_seconds <= 0.0:
            wall_seconds = self.stage_total_seconds("replay")
        return PerfSnapshot(
            wall_seconds=wall_seconds,
            flows_replayed=flows_replayed,
            flows_per_second=(flows_replayed / wall_seconds) if wall_seconds > 0 else 0.0,
            counters=dict(sorted(self.counters.items())),
            stages=self.stage_stats(),
            gauges=dict(sorted(self.gauges.items())),
        )
