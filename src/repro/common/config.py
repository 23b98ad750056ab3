"""Configuration objects shared across subsystems.

All tunables live in small frozen dataclasses with validated constructors so
that experiments are fully described by a handful of config values and can be
serialized into benchmark reports.  Defaults follow the numbers reported or
implied by the paper (group-size limits, Bloom-filter sizing).  A value no
experiment varies is a named constant at its one point of use instead: the
§IV-B regrouping triggers in :mod:`repro.controlplane.grouping_manager`, the
§V-E latency calibration in :mod:`repro.simulation.latency`, and the MLkP
search effort in :mod:`repro.partitioning.mlkp`.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
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
    random_seed: int = 2015

    def __post_init__(self) -> None:
        if self.group_size_limit < 1:
            raise ConfigurationError("group_size_limit must be at least 1")


@dataclass(frozen=True, slots=True)
class LatencyModelConfig:
    """The congestion term of the latency model, in milliseconds.

    Each capacitated uplink a flow traverses adds an M/M/1-style
    ``queueing_service_ms * rho / (1 - rho)`` (see
    :meth:`repro.simulation.latency.LatencyModel.queueing_delay`).  The
    default service time of zero disables the term entirely, which keeps
    every capacity-less configuration bit-identical to builds without it.
    The §V-E calibration constants are fixed in :mod:`repro.simulation.latency`.
    """

    queueing_service_ms: float = 0.0

    def __post_init__(self) -> None:
        if self.queueing_service_ms < 0:
            raise ConfigurationError("queueing_service_ms must be non-negative")


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
    only expire when idle).
    """

    capacity: int = 4096
    idle_timeout_seconds: float = 60.0
    hard_timeout_seconds: float | None = None
    eviction_batch: int = 64
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
        if not self.policy or not self.policy.strip():
            raise ConfigurationError("flow table policy must be a non-empty string")
        object.__setattr__(self, "policy_params", dict(to_jsonable(dict(self.policy_params))))

    def resized(self, capacity: int) -> "FlowTableConfig":
        """This config at ``capacity`` rules, its eviction batch clamped to fit.

        A batch larger than the table is rejected, so shrinking a table below
        the batch shrinks the batch with it.
        """
        return replace(self, capacity=capacity, eviction_batch=min(self.eviction_batch, capacity))


@dataclass(frozen=True, slots=True)
class LazyCtrlConfig:
    """Top-level configuration bundling every subsystem's tunables."""

    grouping: GroupingConfig = field(default_factory=GroupingConfig)
    bloom: BloomFilterConfig = field(default_factory=BloomFilterConfig)
    latency: LatencyModelConfig = field(default_factory=LatencyModelConfig)
    flow_table: FlowTableConfig = field(default_factory=FlowTableConfig)
    designated_backup_count: int = 1

    def __post_init__(self) -> None:
        if self.designated_backup_count < 0:
            raise ConfigurationError("designated_backup_count must be non-negative")
