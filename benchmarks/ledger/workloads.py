"""The five ledger workloads, built from the presets' public constructors.

Each builder returns one :class:`~repro.core.scenario.ScenarioSpec`; its
first docstring line records why the workload is in the benchmark and ends
up as the ``why`` in ``BENCHMARK.json``.  The flow counts are part of the
benchmark's definition: shrink them only through :func:`with_flows` in tests.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Dict

from repro.core.presets import default_grouping_config, get_preset
from repro.core.scenario import ScenarioSpec
from repro.replay.spec import ExecutionSpec

#: The seed the pinned digests in ``expected/`` were generated with.
DEFAULT_SEED = 2015


def _preset(name: str) -> ScenarioSpec:
    (spec,) = get_preset(name).specs()
    return spec


def fig7_vectorized() -> ScenarioSpec:
    """Array path carries ~94 % of 500k flows x 3 systems, so trace generation, kernel classify/accumulate and openflow's packet-in fallback are what is left to see."""
    return dataclasses.replace(_preset("paper-fig7-vectorized"), name="fig7-vectorized")


def fig7_scalar() -> ScenarioSpec:
    """Same spec at 100k flows on the per-flow scalar path; numpy and repro.kernel are never imported, so kernel and generation changes must not move it."""
    spec = _preset("paper-fig7-vectorized")
    return dataclasses.replace(
        spec,
        name="fig7-scalar",
        traffic=spec.traffic.with_params(total_flows=100_000),
        execution=ExecutionSpec(kernel="scalar"),
    )


def incast_links() -> ScenarioSpec:
    """Link meter forces the kernel off the array path (coverage 23 % / 61 %), so bandwidth/ and the fallback dominate; trace streamed and regenerated per system."""
    spec = _preset("incast-congestion")
    return dataclasses.replace(
        spec,
        name="incast-links",
        traffic=spec.traffic.with_params(total_flows=100_000),
        execution=ExecutionSpec(stream=True, kernel="vectorized"),
    )


def churn_regroup() -> ScenarioSpec:
    """Migration and drift churn on 96 switches: regrouping and churn-engine lockstep are most of replay and the kernel does nothing (churn degrades it to scalar)."""
    spec = _preset("churn-migration")
    return dataclasses.replace(
        spec,
        name="churn-regroup",
        topology=spec.topology.with_params(switch_count=96, host_count=1200),
        traffic=spec.traffic.with_params(total_flows=40_000),
        systems=("lazyctrl-dynamic",),
        config=default_grouping_config(96),
    )


def sharded_stream() -> ScenarioSpec:
    """Only workload on replay/: 1M streamed flows in 4 time windows over a 2-worker fork pool, so per-shard cost shows in cpu_s even when 2 cores hide it from wall_s."""
    spec = _preset("paper-fig7-100m")
    return dataclasses.replace(
        spec,
        name="sharded-stream",
        traffic=spec.traffic.with_params(total_flows=1_000_000),
        execution=ExecutionSpec(
            workers=2,
            shard_strategy="time-window",
            shard_count=4,
            stream=True,
            kernel="vectorized",
        ),
    )


WORKLOADS: Dict[str, Callable[[], ScenarioSpec]] = {
    "fig7-vectorized": fig7_vectorized,
    "fig7-scalar": fig7_scalar,
    "incast-links": incast_links,
    "churn-regroup": churn_regroup,
    "sharded-stream": sharded_stream,
}


def why(name: str) -> str:
    """The one-line reason a workload was chosen (its builder's docstring)."""
    return WORKLOADS[name].__doc__.strip().splitlines()[0]


def with_seed(spec: ScenarioSpec, seed: int) -> ScenarioSpec:
    """Stamp ``seed`` into the topology, traffic, churn and grouping seeds."""
    config = dataclasses.replace(
        spec.config,
        grouping=dataclasses.replace(spec.config.grouping, random_seed=seed),
    )
    churn = spec.churn
    if churn is not None:
        churn = dataclasses.replace(churn, seed=seed)
    return dataclasses.replace(
        spec,
        topology=spec.topology.with_params(seed=seed),
        traffic=dataclasses.replace(spec.traffic.with_params(seed=seed), expand_seed=seed),
        churn=churn,
        config=config,
    )


def with_flows(spec: ScenarioSpec, flows: int) -> ScenarioSpec:
    """The same workload at another flow count (tests and the warm-up run)."""
    return dataclasses.replace(spec, traffic=spec.traffic.with_params(total_flows=flows))


def build(name: str, seed: int = DEFAULT_SEED) -> ScenarioSpec:
    """The named workload's spec with every seed field set to ``seed``."""
    try:
        builder = WORKLOADS[name]
    except KeyError:
        raise SystemExit(
            f"unknown workload {name!r}; workloads: {', '.join(WORKLOADS)}"
        ) from None
    return with_seed(builder(), seed)
