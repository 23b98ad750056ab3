"""Benchmark-baseline comparison backing ``repro bench --check``.

A baseline is simply a committed ``BENCH_<scenario>.json`` (the file
``repro bench`` writes) checked into ``benchmarks/baselines/``.  The check
compares a freshly produced payload against the committed one:

* **deterministic counters** (flow counts, controller requests, grouping
  updates, churn events) must match exactly — any drift means the replay
  semantics changed and either a bug slipped in or the baselines must be
  regenerated deliberately; the per-bucket ``timeline`` count series get the
  same bit-for-bit treatment (each sums to one of the scalar counters);
* **deterministic floats** (mean/peak Krps, mean latency) must match to
  within a relative epsilon that only absorbs JSON round-off.

Nothing here is timed: wall-clock, throughput and memory are the stage
ledger's job (``benchmarks/ledger/``), which measures them in paired runs
with committed bounds instead of against a number from another host.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Tuple

#: Per-system keys that must match bit for bit.
EXACT_SYSTEM_KEYS = (
    "total_controller_requests",
    "grouping_updates",
    "churn_events",
    "churn_attributed_regroupings",
    "flows_handled",
    # Finite-flow-table pressure accounting: replay arithmetic, fully
    # deterministic (baselines predating the keys simply skip them).
    "table_overflows",
    "table_evictions",
    "table_timeouts",
    "table_reinstalls",
    "table_peak_occupancy",
    "flow_removed_messages",
    # Bandwidth/congestion accounting: flows that arrived on an uplink at
    # or over capacity, and the number of (link, window) cells offered at
    # least their capacity — pure replay arithmetic on capacitated runs.
    "congested_flows",
    "link_congested_cells",
)

#: Per-system deterministic floats (replay arithmetic, not wall-clock).
CLOSE_SYSTEM_KEYS = (
    "mean_krps",
    "peak_krps",
    "mean_latency_ms",
    # Peak offered-load fraction and whole-run latency percentiles: replay
    # arithmetic too, but float-folded (sums of per-flow contributions /
    # log-histogram bin midpoints), so they get the epsilon treatment.
    "link_peak_utilization",
    "latency_p50_ms",
    "latency_p95_ms",
    "latency_p99_ms",
)

#: Top-level keys that must match exactly.
EXACT_TOP_KEYS = ("scenario", "flows", "switches", "hosts")

#: Relative epsilon for deterministic floats (absorbs JSON round-off only).
CLOSE_RELATIVE_EPSILON = 1e-9


@dataclass(slots=True)
class BaselineCheck:
    """Outcome of checking one benchmark payload against its baseline."""

    scenario: str
    failures: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """Whether the payload is within baseline expectations."""
        return not self.failures


def _close(current: float, baseline: float) -> bool:
    return math.isclose(current, baseline, rel_tol=CLOSE_RELATIVE_EPSILON, abs_tol=1e-21)


def _timeline_series_drift(expected: Any, got: Any) -> str | None:
    """Describe how one timeline count series drifted, or ``None`` if it didn't.

    Pinpoints the drifted bucket indices instead of dumping both full series:
    a 12-bucket day is readable either way, but a fine-grained timeline has
    hundreds of buckets and the old whole-list dump buried the actual drift.
    Every drifted bucket is counted; the message previews the first few.
    """
    if got == expected:
        return None
    if got is None:
        return f"series missing from the fresh payload (baseline has {expected!r})"
    if not isinstance(expected, list) or not isinstance(got, list):
        return f"expected {expected!r}, got {got!r}"
    if len(got) != len(expected):
        return f"bucket count {len(got)} != baseline {len(expected)}"
    drifted = [index for index, pair in enumerate(zip(expected, got)) if pair[0] != pair[1]]
    preview = ", ".join(f"[{index}] {expected[index]!r}->{got[index]!r}" for index in drifted[:5])
    more = "" if len(drifted) <= 5 else f", ... {len(drifted) - 5} more"
    return f"{len(drifted)}/{len(expected)} buckets drifted: {preview}{more}"


def _compare_timeline(
    check: BaselineCheck,
    name: str,
    current: Dict[str, Any] | None,
    baseline: Dict[str, Any] | None,
) -> None:
    """Exact-check one system's per-bucket timeline counts.

    The count series are replay arithmetic (each sums to one of the scalar
    counters above), so they get the same bit-for-bit treatment.  Baselines
    predating the key skip the check.  Every drifted series (and every
    drifted bucket within it) is reported in the one pass.
    """
    if baseline is None:
        return
    if current is None:
        check.failures.append(
            f"{name}.timeline: baseline carries a timeline but the fresh payload does not"
        )
        return
    if not _close(
        float(current.get("bucket_seconds", 0.0)), float(baseline.get("bucket_seconds", 0.0))
    ):
        check.failures.append(
            f"{name}.timeline.bucket_seconds: expected {baseline.get('bucket_seconds')!r}, "
            f"got {current.get('bucket_seconds')!r}"
        )
    baseline_counts = baseline.get("counts", {})
    current_counts = current.get("counts", {})
    for series in sorted(baseline_counts):
        drift = _timeline_series_drift(baseline_counts[series], current_counts.get(series))
        if drift is not None:
            check.failures.append(f"{name}.timeline.{series}: {drift}")


def compare_payloads(current: Dict[str, Any], baseline: Dict[str, Any]) -> BaselineCheck:
    """Compare one freshly produced benchmark payload against its baseline."""
    check = BaselineCheck(scenario=str(current.get("scenario", "<unnamed>")))

    for key in EXACT_TOP_KEYS:
        if current.get(key) != baseline.get(key):
            check.failures.append(
                f"{key}: expected {baseline.get(key)!r}, got {current.get(key)!r}"
            )

    current_systems = current.get("systems", {})
    baseline_systems = baseline.get("systems", {})
    if sorted(current_systems) != sorted(baseline_systems):
        check.failures.append(
            f"systems: expected {sorted(baseline_systems)}, got {sorted(current_systems)}"
        )
    for name in sorted(set(current_systems) & set(baseline_systems)):
        cur, base = current_systems[name], baseline_systems[name]
        for key in EXACT_SYSTEM_KEYS:
            if key not in base:
                continue  # baseline predates the key; regenerating will add it
            if cur.get(key) != base.get(key):
                check.failures.append(
                    f"{name}.{key}: expected {base.get(key)!r}, got {cur.get(key)!r}"
                )
        for key in CLOSE_SYSTEM_KEYS:
            if key not in base:
                continue
            if not _close(float(cur.get(key, 0.0)), float(base[key])):
                check.failures.append(
                    f"{name}.{key}: expected {base[key]!r}, got {cur.get(key)!r} "
                    "(deterministic float drifted)"
                )
        _compare_timeline(check, name, cur.get("timeline"), base.get("timeline"))
    return check


def check_against_baselines(
    payloads: List[Dict[str, Any]], baseline_dir: str | Path
) -> Tuple[List[BaselineCheck], List[str], List[str]]:
    """Check freshly produced payloads against committed baseline files.

    Returns ``(checks, problems, stale)``: the per-scenario checks, global
    problems (missing baseline files — a payload without a committed
    baseline is a failure, the whole point of the scheme is that baselines
    live in-repo), and committed baseline files no fresh payload covered.
    Stale files are surfaced rather than failed, because partial runs
    (``--presets`` subsets) legitimately skip scenarios — but in a full run
    a stale file means the perf gate silently lost coverage.
    """
    directory = Path(baseline_dir)
    checks: List[BaselineCheck] = []
    problems: List[str] = []
    covered = set()
    for payload in payloads:
        scenario = str(payload.get("scenario", "<unnamed>"))
        path = directory / f"BENCH_{scenario}.json"
        covered.add(path.name)
        if not path.is_file():
            problems.append(
                f"no committed baseline {path} — run 'repro bench' and commit the "
                f"BENCH_{scenario}.json it writes"
            )
            continue
        baseline = json.loads(path.read_text(encoding="utf-8"))
        checks.append(compare_payloads(payload, baseline))
    stale = sorted(
        str(path)
        for path in directory.glob("BENCH_*.json")
        if path.name not in covered
    )
    return checks, problems, stale
