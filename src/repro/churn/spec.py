"""Declarative workload-dynamics (churn) specification.

The paper's headline claim is that LazyCtrl's *dynamic* grouping adapts as
traffic drifts (§IV-B regrouping triggers, Fig. 8 update frequency).  A
:class:`ChurnSpec` describes the topology dynamics that drive that drift
during a replay: VM migrations, coherent locality shifts of whole tenants,
and tenant arrivals/departures.  Like every other spec in the library it is
a frozen, validated, JSON-round-trippable dataclass, so scenarios carrying
churn remain fully declarative.

All processes draw deterministic Poisson event streams from RNGs derived
from ``seed`` (one independent stream per process), so two control planes
run against the same spec experience *identical* churn — the comparison in
Fig. 7 stays apples-to-apples under dynamics.

A spec with every rate at zero is inert: the runner skips the churn
machinery entirely and the replay is bit-for-bit identical to one without a
churn block.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from repro.common.errors import ConfigurationError


@dataclass(frozen=True, slots=True)
class ChurnSpec:
    """Rates, seeds and time window of the workload-dynamics processes.

    Rates are events per simulated hour.  ``migration_rate_per_hour`` moves
    single VMs to random switches; ``drift_rate_per_hour`` moves a coherent
    batch of one tenant's VMs toward a new home switch (traffic-locality
    drift); the tenant rates create and dissolve whole tenants.  Events are
    generated over ``[start_hour, end_hour)`` of the replay (``end_hour``
    ``None`` means until the replay window closes).
    """

    seed: int = 2015
    migration_rate_per_hour: float = 0.0
    drift_rate_per_hour: float = 0.0
    tenant_arrival_rate_per_hour: float = 0.0
    tenant_departure_rate_per_hour: float = 0.0
    start_hour: float = 0.0
    end_hour: Optional[float] = None

    def __post_init__(self) -> None:
        for name in (
            "migration_rate_per_hour",
            "drift_rate_per_hour",
            "tenant_arrival_rate_per_hour",
            "tenant_departure_rate_per_hour",
        ):
            if getattr(self, name) < 0:
                raise ConfigurationError(f"{name} must be non-negative")
        if self.start_hour < 0:
            raise ConfigurationError("start_hour must be non-negative")
        if self.end_hour is not None and self.end_hour <= self.start_hour:
            raise ConfigurationError("end_hour must be greater than start_hour")

    @property
    def active(self) -> bool:
        """Whether any churn process has a positive rate."""
        return (
            self.migration_rate_per_hour > 0
            or self.drift_rate_per_hour > 0
            or self.tenant_arrival_rate_per_hour > 0
            or self.tenant_departure_rate_per_hour > 0
        )

    def window_seconds(self, replay_end: float) -> Tuple[float, float]:
        """The ``[start, end)`` churn window in seconds, clamped to the replay."""
        start = self.start_hour * 3600.0
        end = replay_end if self.end_hour is None else min(self.end_hour * 3600.0, replay_end)
        return start, max(start, end)
