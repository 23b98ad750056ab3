"""Named scenario presets for the CLI and for quick programmatic runs.

A preset is a function returning one or more ready-to-run
:class:`~repro.core.scenario.ScenarioSpec`, registered in :data:`PRESETS`
under a memorable name with a one-line description (``repro
list-scenarios`` prints them; see :mod:`repro.common.registry`).

Presets are deliberately sized to finish in seconds-to-minutes on a laptop;
scale any of them up by overriding the spec fields (the CLI exposes
``--flows`` / ``--switches`` / ``--hosts`` for exactly this).
"""

from __future__ import annotations

import dataclasses
from typing import Tuple

from repro.common.config import FlowTableConfig, GroupingConfig, LatencyModelConfig, LazyCtrlConfig
from repro.common.registry import NamedRegistry
from repro.core.scenario import (
    FailureInjectionSpec,
    ScenarioSpec,
    ScheduleSpec,
    TopologySpec,
    TraceSpec,
)
from repro.replay.spec import ExecutionSpec
from repro.topology.builder import TopologyProfile

PRESETS = NamedRegistry(kind="preset", known_label="available presets")
get_preset = PRESETS.get
list_presets = PRESETS.available


def default_grouping_config(switch_count: int, *, seed: int = 2015) -> LazyCtrlConfig:
    """A grouping config that keeps roughly half a dozen groups at any scale.

    Small topologies would otherwise collapse into one or two groups and
    never exercise inter-group traffic, which exists at the paper's full
    scale; the presets share this heuristic.
    """
    return LazyCtrlConfig(
        grouping=GroupingConfig(group_size_limit=max(4, switch_count // 6), random_seed=seed)
    )


@PRESETS.register(
    "paper-fig7",
    description="Fig. 7/8/9 day-long replay: OpenFlow vs LazyCtrl static/dynamic (laptop scale)",
)
def _paper_fig7() -> Tuple[ScenarioSpec, ...]:
    return (
        ScenarioSpec(
            name="paper-fig7",
            topology=TopologyProfile(switch_count=48, host_count=600, seed=2015),
            traffic=TraceSpec.realistic(total_flows=20_000, seed=2015),
            systems=("openflow", "lazyctrl-static", "lazyctrl-dynamic"),
            config=default_grouping_config(48),
        ),
    )


@PRESETS.register(
    "paper-fig7-10m",
    description="Fig. 7 workload at 10M flows, streamed chunk-by-chunk in bounded memory",
)
def _paper_fig7_10m() -> Tuple[ScenarioSpec, ...]:
    """The Fig. 7 workload at paper-and-beyond scale: 10M flows, streamed.

    Runs the single most interesting control plane (dynamic LazyCtrl) so the
    smoke finishes in minutes; add systems back via ``--systems`` when
    comparing.  The streaming execution is the point: the trace is generated
    and replayed chunk by chunk, so peak memory is bounded by the chunk size
    instead of the 10M-record trace.
    """
    spec = _paper_fig7()[0]
    return (
        dataclasses.replace(
            spec,
            name="paper-fig7-10m",
            traffic=TraceSpec.realistic(total_flows=10_000_000, seed=2015),
            systems=("lazyctrl-dynamic",),
            execution=ExecutionSpec(stream=True),
        ),
    )


@PRESETS.register(
    "paper-fig7-100m",
    description="Fig. 7 workload at 100M flows, streamed and sharded over a worker pool",
)
def _paper_fig7_100m() -> Tuple[ScenarioSpec, ...]:
    """The Fig. 7 workload at 100 million flows: streamed *and* sharded.

    Streaming alone bounds memory but leaves a single core replaying for
    hours; the time-window execution splits the day into twelve
    single-bucket windows replayed by four workers, each against its own
    control-plane state, and merges the per-shard results exactly.  One
    window per bucket is the finest split the 2 h result buckets allow,
    and it matters: the diurnal peak makes business-hour windows several
    times heavier than the overnight ones, so coarser windows leave the
    critical path dominated by one hot shard.  The merged counters are
    deterministic across worker counts but depend on the window count, so
    the committed baseline records this plan and gates its counters.
    """
    spec = _paper_fig7()[0]
    return (
        dataclasses.replace(
            spec,
            name="paper-fig7-100m",
            traffic=TraceSpec.realistic(total_flows=100_000_000, seed=2015),
            systems=("lazyctrl-dynamic",),
            execution=ExecutionSpec(
                workers=4, shard_strategy="time-window", shard_count=12, stream=True
            ),
        ),
    )


@PRESETS.register(
    "paper-fig7-vectorized",
    description="Fig. 7 comparison at 500k flows/system on the vectorized columnar kernel",
)
def _paper_fig7_vectorized() -> Tuple[ScenarioSpec, ...]:
    """The Fig. 7 comparison at 500k flows per system on the columnar kernel.

    Same topology, schedule and systems as ``paper-fig7`` — only the flow
    count is scaled up (so the replay hot path, not setup, dominates the
    wall clock) and ``ExecutionSpec.kernel`` selects the vectorized batch
    path.  The kernel is bit-identical to the scalar replayer by contract,
    so the committed ``BENCH_paper-fig7-vectorized.json`` gates both the
    speedup and the exact counters it must preserve.
    """
    spec = _paper_fig7()[0]
    return (
        dataclasses.replace(
            spec,
            name="paper-fig7-vectorized",
            traffic=TraceSpec.realistic(total_flows=500_000, seed=2015),
            execution=ExecutionSpec(kernel="vectorized"),
        ),
    )


@PRESETS.register(
    "paper-fig7-expanded",
    description="Same replay on the expanded trace (+30% flows among silent pairs, paper §V-D)",
)
def _paper_fig7_expanded() -> Tuple[ScenarioSpec, ...]:
    spec = _paper_fig7()[0]
    return (
        dataclasses.replace(
            spec,
            name="paper-fig7-expanded",
            traffic=dataclasses.replace(spec.traffic, expand_fraction=0.30),
        ),
    )


@PRESETS.register("failover", description="Failover storm: designated-switch failures injected at hours 6 and 14")
def _failover() -> Tuple[ScenarioSpec, ...]:
    return (
        ScenarioSpec(
            name="failover",
            topology=TopologyProfile(switch_count=24, host_count=320, seed=23),
            traffic=TraceSpec.realistic(total_flows=8_000, seed=23),
            systems=("openflow", "lazyctrl-dynamic"),
            config=default_grouping_config(24, seed=23),
            failures=FailureInjectionSpec(at_hours=(6.0, 14.0), switches_per_event=2),
        ),
    )


@PRESETS.register("scale-sweep", description="Same workload density at 16/32/64 switches — a run_many fan-out")
def _scale_sweep() -> Tuple[ScenarioSpec, ...]:
    scales = ((16, 200, 6_000), (32, 400, 12_000), (64, 800, 24_000))
    return tuple(
        ScenarioSpec(
            name=f"scale-sweep-{switches}sw",
            topology=TopologyProfile(switch_count=switches, host_count=hosts, seed=2015),
            traffic=TraceSpec.realistic(total_flows=flows, seed=2015),
            systems=("openflow", "lazyctrl-dynamic"),
            schedule=ScheduleSpec(),
            config=default_grouping_config(switches),
        )
        for switches, hosts, flows in scales
    )


@PRESETS.register(
    "churn-migration",
    description="All-day VM migration + locality drift churn driving dynamic regrouping",
)
def _churn_migration() -> Tuple[ScenarioSpec, ...]:
    from repro.churn.spec import ChurnSpec

    return (
        ScenarioSpec(
            name="churn-migration",
            topology=TopologyProfile(switch_count=24, host_count=320, seed=2015),
            traffic=TraceSpec.realistic(total_flows=8_000, seed=2015),
            systems=("openflow", "lazyctrl-static", "lazyctrl-dynamic"),
            config=default_grouping_config(24),
            churn=ChurnSpec(
                seed=2015,
                migration_rate_per_hour=12.0,
                drift_rate_per_hour=1.5,
            ),
        ),
    )


@PRESETS.register(
    "churn-tenant-wave",
    description="Tenant arrival/departure wave (hours 6-18) over light migration churn",
)
def _churn_tenant_wave() -> Tuple[ScenarioSpec, ...]:
    from repro.churn.spec import ChurnSpec

    return (
        ScenarioSpec(
            name="churn-tenant-wave",
            topology=TopologyProfile(switch_count=24, host_count=320, seed=2015),
            traffic=TraceSpec.realistic(total_flows=8_000, seed=2015),
            systems=("openflow", "lazyctrl-static", "lazyctrl-dynamic"),
            config=default_grouping_config(24),
            churn=ChurnSpec(
                seed=2015,
                migration_rate_per_hour=2.0,
                tenant_arrival_rate_per_hour=1.5,
                tenant_departure_rate_per_hour=1.0,
                start_hour=6.0,
                end_hour=18.0,
            ),
        ),
    )


@PRESETS.register(
    "traffic-mix",
    description="Composed mix: realistic baseline + elephant/mice overlay + 9-11am incast burst",
)
def _traffic_mix() -> Tuple[ScenarioSpec, ...]:
    from repro.traffic.mix import TrafficComponentSpec, TrafficMixSpec

    mix = TrafficMixSpec(
        components=(
            TrafficComponentSpec(model="realistic", weight=0.6),
            TrafficComponentSpec(
                model="elephant-mice",
                params={"elephant_pair_count": 16, "elephant_flow_fraction": 0.3},
                weight=0.25,
                window_hours=(8.0, 20.0),
            ),
            TrafficComponentSpec(
                model="incast-hotspot",
                params={"hotspot_count": 3, "hotspot_flow_fraction": 0.8},
                weight=0.15,
                window_hours=(9.0, 11.0),
            ),
        ),
        total_flows=20_000,
        duration_hours=24.0,
        seed=2015,
    )
    return (
        ScenarioSpec(
            name="traffic-mix",
            topology=TopologyProfile(switch_count=32, host_count=400, seed=2015),
            traffic=TraceSpec.mix(mix),
            systems=("openflow", "lazyctrl-static", "lazyctrl-dynamic"),
            config=default_grouping_config(32),
        ),
    )


@PRESETS.register(
    "table-pressure",
    description="1M streamed flows vs 32-entry tables: overflow/re-install under finite TCAMs",
)
def _table_pressure() -> Tuple[ScenarioSpec, ...]:
    """One million streamed flows against 32-entry tables.

    The capacity sits between the two systems' steady occupancy: the
    baseline's one-rule-per-flow tables peak above it (constant overflow
    evictions and ``packet_in`` re-installs), while LazyCtrl — which only
    installs rules for inter-group flows — stays comfortably under.  This is
    the comparison axis the paper never ran: how the two control models
    degrade when TCAM space, not controller CPU, is the bottleneck.
    """
    return (
        ScenarioSpec(
            name="table-pressure",
            topology=TopologyProfile(switch_count=48, host_count=600, seed=2015),
            traffic=TraceSpec.realistic(total_flows=1_000_000, seed=2015),
            systems=("openflow", "lazyctrl-dynamic"),
            config=dataclasses.replace(
                default_grouping_config(48),
                flow_table=FlowTableConfig(
                    capacity=32,
                    eviction_batch=32,
                    idle_timeout_seconds=1800.0,
                    hard_timeout_seconds=7200.0,
                    policy="idle-hard-hybrid",
                ),
            ),
            execution=ExecutionSpec(stream=True),
        ),
    )


@PRESETS.register("timeout-sweep", description="Same pressured workload under each timeout policy (64-entry tables)")
def _timeout_sweep() -> Tuple[ScenarioSpec, ...]:
    """The same pressured workload under each built-in timeout policy.

    Tiny 64-entry tables put every policy's trade-off on display: static
    idle holds rules a fixed time, the hybrid caps rule lifetime, LRU never
    times out and lives off eviction alone, and the adaptive predictor
    tightens timeouts for one-shot flows while keeping periodic ones
    resident.  Compare overflow/re-install counts across the four runs.
    """
    tables = (
        FlowTableConfig(capacity=64, policy="static-idle", idle_timeout_seconds=1800.0),
        FlowTableConfig(
            capacity=64,
            policy="idle-hard-hybrid",
            idle_timeout_seconds=1800.0,
            hard_timeout_seconds=7200.0,
        ),
        FlowTableConfig(capacity=64, policy="lru"),
        FlowTableConfig(
            capacity=64,
            policy="adaptive",
            idle_timeout_seconds=1800.0,
            policy_params={"min_timeout_seconds": 60.0, "max_timeout_seconds": 3600.0},
        ),
    )
    return tuple(
        ScenarioSpec(
            name=f"timeout-sweep-{table.policy}",
            topology=TopologyProfile(switch_count=24, host_count=320, seed=2015),
            traffic=TraceSpec.realistic(total_flows=40_000, seed=2015),
            systems=("openflow", "lazyctrl-dynamic"),
            config=dataclasses.replace(default_grouping_config(24), flow_table=table),
        )
        for table in tables
    )


@PRESETS.register(
    "incast-congestion",
    description="Two-hotspot incast burst vs ~1 Mbps uplinks: congestion + p99 separation",
)
def _incast_congestion() -> Tuple[ScenarioSpec, ...]:
    """A two-hotspot incast burst against capacitated uplinks.

    80 % of 200k flows fan in on two hot destinations between 9 and 11 am;
    with ~1 Mbps uplinks the two hot switches' accounting windows are
    offered several times their capacity through the burst, so the M/M/1
    queueing term dominates the tail there.  This is the scenario where the
    two control planes' latency *distributions* separate even though their
    means barely move: every OpenFlow flow through a hot uplink already
    paid a reactive setup, so queueing compounds on an expensive path.

    The grouping limit is raised above the :func:`default_grouping_config`
    heuristic so the hot destinations' fan-in stays intra-group under
    LazyCtrl: with the default ~6 groups both control planes push more
    than 1 % of flows through congested *setup* paths and their p99s land
    in the same log-histogram bin; at a limit of 8 the LazyCtrl tail is
    dominated by cheaper data-plane hits and the p99s separate.
    """
    from repro.bandwidth.spec import LinkCapacitySpec

    return (
        ScenarioSpec(
            name="incast-congestion",
            topology=TopologyProfile(switch_count=32, host_count=400, seed=2015),
            traffic=TraceSpec(
                model="incast-hotspot",
                params={
                    "total_flows": 200_000,
                    "hotspot_count": 2,
                    "hotspot_flow_fraction": 0.8,
                    "burst_window_hours": (9.0, 11.0),
                    "seed": 2015,
                },
            ),
            systems=("openflow", "lazyctrl-dynamic"),
            config=LazyCtrlConfig(
                grouping=GroupingConfig(group_size_limit=8, random_seed=2015),
                latency=LatencyModelConfig(queueing_service_ms=0.25),
            ),
            execution=ExecutionSpec(stream=True),
            links=LinkCapacitySpec(uplink_mbps=1.0),
        ),
    )


@PRESETS.register("capacity-sweep", description="The incast workload across an uplink-capacity ladder (0.5-4 Mbps)")
def _capacity_sweep() -> Tuple[ScenarioSpec, ...]:
    """The same incast workload across a ladder of uplink capacities.

    From badly under-provisioned to comfortable: watch the congested-cell
    count and the p99 collapse as capacity grows.  A natural ``run_many``
    fan-out like ``scale-sweep``.
    """
    from repro.bandwidth.spec import LinkCapacitySpec

    capacities = (0.5, 1.0, 2.0, 4.0)
    return tuple(
        ScenarioSpec(
            name=f"capacity-sweep-{mbps:g}mbps",
            topology=TopologyProfile(switch_count=32, host_count=400, seed=2015),
            traffic=TraceSpec(
                model="incast-hotspot",
                params={
                    "total_flows": 50_000,
                    "hotspot_count": 2,
                    "hotspot_flow_fraction": 0.8,
                    "burst_window_hours": (9.0, 11.0),
                    "seed": 2015,
                },
            ),
            systems=("openflow", "lazyctrl-dynamic"),
            config=dataclasses.replace(
                default_grouping_config(32),
                latency=LatencyModelConfig(queueing_service_ms=0.25),
            ),
            links=LinkCapacitySpec(uplink_mbps=mbps),
        )
        for mbps in capacities
    )


@PRESETS.register(
    "striped-antilocal",
    description="Realistic trace on the striped anti-local topology that defeats grouping",
)
def _striped_antilocal() -> Tuple[ScenarioSpec, ...]:
    return (
        ScenarioSpec(
            name="striped-antilocal",
            topology=TopologySpec(
                shape="striped",
                params={"switch_count": 24, "host_count": 320, "seed": 2015},
            ),
            traffic=TraceSpec.realistic(total_flows=8_000, seed=2015),
            systems=("openflow", "lazyctrl-static", "lazyctrl-dynamic"),
            config=default_grouping_config(24),
        ),
    )


@PRESETS.register(
    "multi-pod-shuffle",
    description="Shuffle waves + uniform background on a 4-pod topology (two locality tiers)",
)
def _multi_pod_shuffle() -> Tuple[ScenarioSpec, ...]:
    from repro.traffic.mix import TrafficComponentSpec, TrafficMixSpec

    mix = TrafficMixSpec(
        components=(
            TrafficComponentSpec(
                model="all-to-all-shuffle",
                params={"phase_count": 6, "phase_duration_hours": 0.5,
                        "participant_fraction": 0.4},
                weight=0.7,
            ),
            TrafficComponentSpec(model="uniform", weight=0.3),
        ),
        total_flows=10_000,
        duration_hours=24.0,
        seed=2015,
    )
    return (
        ScenarioSpec(
            name="multi-pod-shuffle",
            topology=TopologySpec(
                shape="multi-pod",
                params={"pod_count": 4, "switches_per_pod": 8, "host_count": 480,
                        "seed": 2015},
            ),
            traffic=TraceSpec.mix(mix),
            systems=("openflow", "lazyctrl-dynamic"),
            config=default_grouping_config(32),
        ),
    )
