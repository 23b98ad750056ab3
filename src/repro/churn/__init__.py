"""Workload-dynamics (churn) subsystem.

Pre-draws VM migrations, traffic-locality drift and tenant lifecycle events
as one time-sorted list that the trace replayer cuts its batches on, so
LazyCtrl's dynamic regrouping is exercised by *topology* dynamics rather
than only by traffic noise.
"""

from repro.churn.processes import (
    ChurnKind,
    ChurnProcess,
    ChurnTarget,
    DriftProcess,
    MigrationProcess,
    TenantLifecycleProcess,
    build_processes,
    poisson_event_times,
)
from repro.churn.results import ChurnRunResult
from repro.churn.scheduler import ChurnScheduler, ChurnStats
from repro.churn.spec import ChurnSpec

__all__ = [
    "ChurnKind",
    "ChurnProcess",
    "ChurnRunResult",
    "ChurnScheduler",
    "ChurnSpec",
    "ChurnStats",
    "ChurnTarget",
    "DriftProcess",
    "MigrationProcess",
    "TenantLifecycleProcess",
    "build_processes",
    "poisson_event_times",
]
