"""Partitioning one scenario's replay into independently runnable shards.

Two strategies are registered (see :data:`repro.replay.spec.SHARD_STRATEGIES`):

``system``
    One shard per selected control-plane system, each covering the whole
    replay timeline.  Every shard runs exactly the code path the serial
    runner uses for that system, so the merged scenario result is
    bit-identical to the serial run by construction — this is the default
    and the safe way to use a process pool.

``time-window``
    Each system's replay timeline is split into contiguous half-open
    windows ``[start, end)`` aligned to whole result buckets, and every
    (system, window) pair becomes a shard replayed against *fresh*
    per-shard control-plane state.  Deterministic per-chunk RNG seeding
    (PR 5) makes each window reproducible in isolation, and bucket
    alignment makes the per-bucket merge exact.  The guarantee here is
    determinism across worker counts — ``workers=k`` is bit-identical to
    ``workers=1`` for every ``k`` — not equivalence with the unsharded
    serial run, whose control-plane state is warm across window
    boundaries.  A single-window plan degenerates to the serial replay
    exactly.

Tick ownership: the serial replayer fires periodic ticks at
``start + interval, start + 2*interval, ... <= end``.  A window
``[s, e)`` therefore owns the ticks in ``(s, e]``, and because window
edges are multiples of the bucket length — which the planner requires to
be a multiple of the periodic interval — the union over shards reproduces
the serial tick train with no duplicates and no gaps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Tuple

from repro.common.errors import ConfigurationError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.scenario import ScenarioSpec


@dataclass(frozen=True, slots=True)
class Shard:
    """One independently replayable slice of a scenario: a system and a window."""

    index: int
    system: str
    start: float
    end: float


@dataclass(frozen=True, slots=True)
class ShardPlan:
    """An ordered, validated set of shards covering one scenario's replay."""

    strategy: str
    workers: int
    shards: Tuple[Shard, ...]

    @property
    def windows_per_system(self) -> int:
        systems = {shard.system for shard in self.shards}
        return len(self.shards) // len(systems) if systems else 0

    @property
    def is_serial_per_system(self) -> bool:
        """Whether each system is replayed as one whole-timeline shard."""
        return self.windows_per_system == 1


def _window_edges(duration: float, bucket_seconds: float, count: int) -> Tuple[float, ...]:
    """``count + 1`` bucket-aligned edges from 0.0 to ``duration``."""
    bucket_count = math.ceil(duration / bucket_seconds)
    count = max(1, min(count, bucket_count))
    base, remainder = divmod(bucket_count, count)
    edges = [0.0]
    bucket_index = 0
    for window_index in range(count):
        bucket_index += base + (1 if window_index < remainder else 0)
        edges.append(min(bucket_index * bucket_seconds, duration))
    return tuple(edges)


def plan_shards(spec: "ScenarioSpec") -> ShardPlan:
    """Partition ``spec``'s replay according to ``spec.execution``.

    Raises :class:`ConfigurationError` when the requested strategy cannot
    preserve the scenario's semantics (time-window sharding with churn or
    failure injection, misaligned periodic intervals, or a ``shard_count``
    that contradicts the system list).
    """
    execution = spec.execution
    duration = spec.schedule.duration_seconds
    if execution.shard_strategy == "system":
        if execution.shard_count not in (0, len(spec.systems)):
            raise ConfigurationError(
                f"the system shard strategy derives its shard count from the "
                f"{len(spec.systems)} selected systems; shard_count="
                f"{execution.shard_count} contradicts that (set 0 or switch "
                f"to shard-strategy=time-window)"
            )
        shards = tuple(
            Shard(index=index, system=system, start=0.0, end=duration)
            for index, system in enumerate(spec.systems)
        )
        return ShardPlan(strategy="system", workers=execution.workers, shards=shards)

    # time-window
    if spec.failures is not None:
        raise ConfigurationError(
            "time-window sharding cannot replay failure injection: each shard "
            "would re-fire the failure storm against fresh state; use the "
            "system shard strategy"
        )
    if spec.churn_active:
        raise ConfigurationError(
            "time-window sharding cannot replay churn: topology mutations are "
            "global across the timeline; use the system shard strategy"
        )
    bucket_seconds = spec.schedule.bucket_seconds
    interval = spec.schedule.periodic_interval_seconds
    if interval <= 0 or (bucket_seconds / interval) != int(bucket_seconds / interval):
        raise ConfigurationError(
            f"time-window sharding needs the periodic interval "
            f"({interval}s) to divide the result bucket ({bucket_seconds}s) "
            f"so shard edges own disjoint tick trains"
        )
    count = execution.shard_count or execution.workers
    edges = _window_edges(duration, bucket_seconds, count)
    shards = []
    for system in spec.systems:
        for start, end in zip(edges, edges[1:]):
            shards.append(Shard(index=len(shards), system=system, start=start, end=end))
    return ShardPlan(strategy="time-window", workers=execution.workers, shards=tuple(shards))
