"""Performance instrumentation: recorders, snapshots and baseline checks.

The package has three halves:

* :mod:`repro.perf.recorder` — the near-zero-cost instrumentation layer
  (:data:`NULL_RECORDER` by default, :class:`PerfRecorder` when profiling);
* :mod:`repro.perf.report` — the serializable :class:`PerfSnapshot` carried
  on run results and the ``repro profile`` rendering;
* :mod:`repro.perf.baseline` — the committed-baseline comparison behind
  ``repro bench --check``.
"""

from repro import _lazy_exports

__all__ = [
    "BaselineCheck",
    "NULL_RECORDER",
    "NullRecorder",
    "PerfRecorder",
    "PerfSnapshot",
    "StageStats",
    "check_against_baselines",
    "compare_payloads",
    "format_stage_breakdown",
    "peak_rss_bytes",
]

__getattr__, __dir__ = _lazy_exports(
    __name__,
    {
        "repro.perf.baseline": ("BaselineCheck", "check_against_baselines", "compare_payloads"),
        "repro.perf.recorder": ("NULL_RECORDER", "NullRecorder", "PerfRecorder", "peak_rss_bytes"),
        "repro.perf.report": ("PerfSnapshot", "StageStats", "format_stage_breakdown"),
    },
)
