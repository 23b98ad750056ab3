"""Failure detection (Table I) and failover/recovery actions."""

from repro import _lazy_exports

__all__ = [
    "DetectionResult",
    "FailoverManager",
    "FailureDetector",
    "FailureKind",
    "ProbeKind",
    "ProbeObservation",
    "RecoveryAction",
    "RecoveryRecord",
    "infer_failure",
]

__getattr__, __dir__ = _lazy_exports(
    __name__,
    {
        "repro.failover.detection": (
            "DetectionResult",
            "FailureDetector",
            "FailureKind",
            "ProbeKind",
            "ProbeObservation",
            "infer_failure",
        ),
        "repro.failover.recovery": ("FailoverManager", "RecoveryAction", "RecoveryRecord"),
    },
)
