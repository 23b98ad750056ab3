"""Configuration objects shared across subsystems.

All tunables live in small frozen dataclasses with validated constructors so
that experiments are fully described by a handful of config values and can be
serialized into benchmark reports.  Defaults follow the numbers reported or
implied by the paper (group-size limits, regrouping triggers, latency
calibration, Bloom-filter sizing).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict

from repro.common.errors import ConfigurationError
from repro.common.serialize import to_jsonable


@dataclass(frozen=True, slots=True)
class BloomFilterConfig:
    """Sizing of the per-switch Bloom filters that make up a G-FIB.

    The paper's storage example (§V-D) uses 16 entries of 128 bytes per
    filter, i.e. 2048 bytes = 16384 bits per filter, and reports a false
    positive rate below 0.1 %.
    """

    size_bits: int = 16 * 128 * 8
    hash_count: int = 7

    def __post_init__(self) -> None:
        if self.size_bits <= 0:
            raise ConfigurationError("Bloom filter size_bits must be positive")
        if self.hash_count <= 0:
            raise ConfigurationError("Bloom filter hash_count must be positive")

    @property
    def size_bytes(self) -> int:
        """Storage footprint of one filter in bytes (rounded up)."""
        return (self.size_bits + 7) // 8


@dataclass(frozen=True, slots=True)
class GroupingConfig:
    """Parameters of the SGI switch-grouping algorithm (paper §III-C)."""

    group_size_limit: int = 50
    imbalance_tolerance: float = 0.05
    coarsening_threshold: int = 64
    refinement_passes: int = 8
    restarts: int = 3
    random_seed: int = 2015

    def __post_init__(self) -> None:
        if self.group_size_limit < 1:
            raise ConfigurationError("group_size_limit must be at least 1")
        if not 0.0 <= self.imbalance_tolerance <= 1.0:
            raise ConfigurationError("imbalance_tolerance must be in [0, 1]")
        if self.coarsening_threshold < 2:
            raise ConfigurationError("coarsening_threshold must be at least 2")
        if self.refinement_passes < 0:
            raise ConfigurationError("refinement_passes must be non-negative")
        if self.restarts < 1:
            raise ConfigurationError("restarts must be at least 1")


@dataclass(frozen=True, slots=True)
class RegroupingPolicy:
    """When the controller triggers a regrouping (paper §IV-B).

    Regrouping is triggered when (i) controller workload grew by
    ``workload_growth_trigger`` (30 % in the paper) since the last update, or
    (ii) ``max_interval_seconds`` elapsed since the last update; a minimum
    interval of ``min_interval_seconds`` (2 minutes) prevents oscillation.
    """

    workload_growth_trigger: float = 0.30
    min_interval_seconds: float = 120.0
    max_interval_seconds: float = 7200.0
    overload_threshold_rps: float = 4000.0
    underload_threshold_rps: float = 1500.0
    # Topology-churn trigger: regroup once this many VM-level churn changes
    # (migrations, arrivals, departures) accumulated since the last update.
    # Zero disables the trigger; it never fires on a static topology either
    # way, so the default does not change churn-free runs.
    churn_event_trigger: int = 25

    def __post_init__(self) -> None:
        if self.workload_growth_trigger <= 0:
            raise ConfigurationError("workload_growth_trigger must be positive")
        if self.churn_event_trigger < 0:
            raise ConfigurationError("churn_event_trigger must be non-negative")
        if self.min_interval_seconds < 0:
            raise ConfigurationError("min_interval_seconds must be non-negative")
        if self.max_interval_seconds < self.min_interval_seconds:
            raise ConfigurationError("max_interval_seconds must be >= min_interval_seconds")
        if self.underload_threshold_rps > self.overload_threshold_rps:
            raise ConfigurationError("underload threshold must not exceed overload threshold")


@dataclass(frozen=True, slots=True)
class LatencyModelConfig:
    """Latency calibration of the simulated substrate, in milliseconds.

    The defaults are calibrated so the cold-cache experiment reproduces the
    magnitudes reported in §V-E: about 0.83 ms for intra-group forwarding,
    about 5.4 ms for LazyCtrl inter-group setup, and about 15 ms for the
    baseline OpenFlow reactive path.
    """

    datapath_lookup_ms: float = 0.03
    encapsulation_ms: float = 0.05
    underlay_hop_ms: float = 0.25
    host_link_ms: float = 0.25
    controller_rtt_ms: float = 2.0
    controller_base_processing_ms: float = 1.2
    controller_per_krps_penalty_ms: float = 1.4
    arp_flood_ms: float = 4.0
    # M/M/1-style congestion term (see LatencyModel.queueing_delay): each
    # capacitated uplink a flow traverses adds
    # ``queueing_service_ms * rho / (1 - rho)`` where rho is the link's
    # offered load capped at ``queueing_utilization_cap``.  The default
    # service time of zero disables the term entirely, which keeps every
    # capacity-less configuration bit-identical to builds without it.
    queueing_service_ms: float = 0.0
    queueing_utilization_cap: float = 0.95

    def __post_init__(self) -> None:
        for name in (
            "datapath_lookup_ms",
            "encapsulation_ms",
            "underlay_hop_ms",
            "host_link_ms",
            "controller_rtt_ms",
            "controller_base_processing_ms",
            "controller_per_krps_penalty_ms",
            "arp_flood_ms",
            "queueing_service_ms",
        ):
            if getattr(self, name) < 0:
                raise ConfigurationError(f"{name} must be non-negative")
        if not 0.0 < self.queueing_utilization_cap < 1.0:
            raise ConfigurationError(
                "queueing_utilization_cap must lie strictly inside (0, 1): the "
                "M/M/1 form diverges at full utilization"
            )


@dataclass(frozen=True, slots=True)
class FlowTableConfig:
    """Capacity and timeout behaviour of edge-switch flow tables.

    ``policy`` names a registered timeout/eviction policy (see
    :mod:`repro.tables.registry`); ``policy_params`` is the raw JSON-shaped
    mapping validated into the policy's params dataclass when the table is
    built.  Policies that take an idle or hard timeout default to the
    ``idle_timeout_seconds`` / ``hard_timeout_seconds`` configured here, so
    the table-wide knobs keep working without per-policy params.

    ``hard_timeout_seconds`` of ``None`` disables the hard timeout (rules
    only expire when idle).  ``sweep_interval_seconds`` bounds how often the
    periodic housekeeping tick eagerly sweeps expired rules out of every
    table (expiry is additionally enforced lazily on lookup either way).
    """

    capacity: int = 4096
    idle_timeout_seconds: float = 60.0
    hard_timeout_seconds: float | None = None
    eviction_batch: int = 64
    sweep_interval_seconds: float = 300.0
    policy: str = "static-idle"
    policy_params: Dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.capacity <= 0:
            raise ConfigurationError("flow table capacity must be positive")
        if self.idle_timeout_seconds <= 0:
            raise ConfigurationError("idle_timeout_seconds must be positive")
        if self.hard_timeout_seconds is not None:
            if self.hard_timeout_seconds <= 0:
                raise ConfigurationError("hard_timeout_seconds must be positive when set")
            if self.hard_timeout_seconds < self.idle_timeout_seconds:
                raise ConfigurationError(
                    "hard_timeout_seconds must be >= idle_timeout_seconds "
                    f"({self.hard_timeout_seconds} < {self.idle_timeout_seconds}): a rule "
                    "would hard-expire before it could ever idle out"
                )
        if self.eviction_batch <= 0:
            raise ConfigurationError("eviction_batch must be positive")
        if self.eviction_batch > self.capacity:
            raise ConfigurationError(
                f"eviction_batch must not exceed capacity ({self.eviction_batch} > {self.capacity})"
            )
        if self.sweep_interval_seconds <= 0:
            raise ConfigurationError("sweep_interval_seconds must be positive")
        if not self.policy or not self.policy.strip():
            raise ConfigurationError("flow table policy must be a non-empty string")
        object.__setattr__(self, "policy_params", dict(to_jsonable(dict(self.policy_params))))


@dataclass(frozen=True, slots=True)
class LazyCtrlConfig:
    """Top-level configuration bundling every subsystem's tunables."""

    grouping: GroupingConfig = field(default_factory=GroupingConfig)
    regrouping: RegroupingPolicy = field(default_factory=RegroupingPolicy)
    bloom: BloomFilterConfig = field(default_factory=BloomFilterConfig)
    latency: LatencyModelConfig = field(default_factory=LatencyModelConfig)
    flow_table: FlowTableConfig = field(default_factory=FlowTableConfig)
    designated_backup_count: int = 1
    keepalive_interval_seconds: float = 1.0
    state_report_interval_seconds: float = 5.0

    def __post_init__(self) -> None:
        if self.designated_backup_count < 0:
            raise ConfigurationError("designated_backup_count must be non-negative")
        if self.keepalive_interval_seconds <= 0:
            raise ConfigurationError("keepalive_interval_seconds must be positive")
        if self.state_report_interval_seconds <= 0:
            raise ConfigurationError("state_report_interval_seconds must be positive")
