"""Benchmark-baseline comparison backing ``repro bench --check``.

A baseline is simply a committed ``BENCH_<scenario>.json`` (the file
``repro bench`` writes) checked into ``benchmarks/baselines/``.  The rule is
equality: the fresh payload, minus its ``execution`` block, must equal the
committed one key for key (:func:`repro.common.diff.payload_drift`, the one
comparison ``repro diff`` and the equivalence harness use too).  Any drift
means the replay semantics changed and either a bug slipped in or the
baselines must be regenerated deliberately.

Nothing here is timed: wall-clock, throughput and memory are the stage
ledger's job (``benchmarks/ledger/``), which measures them in paired runs
with committed bounds instead of against a number from another host.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Tuple

from repro.common.diff import payload_drift


@dataclass(slots=True)
class BaselineCheck:
    """Outcome of checking one benchmark payload against its baseline."""

    scenario: str
    failures: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """Whether the payload equals its baseline."""
        return not self.failures


def compare_payloads(current: Dict[str, Any], baseline: Dict[str, Any]) -> BaselineCheck:
    """Compare one freshly produced benchmark payload against its baseline."""
    return BaselineCheck(
        scenario=str(current.get("scenario", "<unnamed>")),
        failures=payload_drift(baseline, current),
    )


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
