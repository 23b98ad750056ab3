"""Sharded scenario execution behind the :class:`ExecutionSpec` API.

This package owns the *execution* half of a scenario — how a replay runs,
as opposed to what it measures:

* :mod:`repro.replay.spec` — :class:`ExecutionSpec`, the serializable knob
  bundle (workers, shard strategy/count, streaming, kernel) that rides on
  :class:`~repro.core.scenario.ScenarioSpec` as ``spec.execution``;
* :mod:`repro.replay.sharding` — :func:`plan_shards`, which partitions one
  scenario's replay into an ordered :class:`ShardPlan` (per control-plane
  system, or per bucket-aligned time window);
* :mod:`repro.replay.merge` — the deterministic merge of per-shard
  :class:`~repro.replay.merge.ShardOutcome` records back into a single
  :class:`~repro.core.results.RunResult`;
* :mod:`repro.replay.executor` — the one shard replay body and the driver
  that runs a plan's shards in process or over a ``multiprocessing`` pool.

:class:`~repro.core.runner.ScenarioRunner` is the only intended entry
point; every run plans, executes and merges according to
``spec.execution``, a serial run being the per-system plan in process.
"""

# Only the leaves are re-exported here; ``merge`` and ``executor`` depend on
# core results and are imported as submodules.
from repro import _lazy_exports

__all__ = [
    "ExecutionSpec",
    "SHARD_STRATEGIES",
    "Shard",
    "ShardPlan",
    "plan_shards",
]

__getattr__, __dir__ = _lazy_exports(
    __name__,
    {
        "repro.replay.sharding": ("Shard", "ShardPlan", "plan_shards"),
        "repro.replay.spec": ("SHARD_STRATEGIES", "ExecutionSpec"),
    },
)
