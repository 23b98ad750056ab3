"""Workload-dynamics (churn) subsystem.

Pre-draws VM migrations, traffic-locality drift and tenant lifecycle events
as one time-sorted list that the trace replayer cuts its batches on, so
LazyCtrl's dynamic regrouping is exercised by *topology* dynamics rather
than only by traffic noise.
"""

from repro import _lazy_exports

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

__getattr__, __dir__ = _lazy_exports(
    __name__,
    {
        "repro.churn.processes": (
            "ChurnKind",
            "ChurnProcess",
            "ChurnTarget",
            "DriftProcess",
            "MigrationProcess",
            "TenantLifecycleProcess",
            "build_processes",
            "poisson_event_times",
        ),
        "repro.churn.results": ("ChurnRunResult",),
        "repro.churn.scheduler": ("ChurnScheduler", "ChurnStats"),
        "repro.churn.spec": ("ChurnSpec",),
    },
)
