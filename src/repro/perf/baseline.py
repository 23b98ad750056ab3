"""Benchmark-baseline comparison backing ``repro bench --check``.

A baseline is simply a committed ``BENCH_<scenario>.json`` (the file
``repro bench`` writes) checked into ``benchmarks/baselines/``.  The rule is
equality: the fresh payload, minus its ``execution`` block, must equal the
committed one key for key.  The ``execution`` block says how the run was
executed (workers, shard plan), not what it computed, so a pooled or
vectorized run is held to the serial baseline.  There is no epsilon: every
value is replay arithmetic, deterministic for the spec, and JSON floats
round-trip exactly (``json`` writes the shortest ``repr`` that reads back
as the same double).  Any drift means the replay semantics changed and
either a bug slipped in or the baselines must be regenerated deliberately.

Nothing here is timed: wall-clock, throughput and memory are the stage
ledger's job (``benchmarks/ledger/``), which measures them in paired runs
with committed bounds instead of against a number from another host.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Tuple

#: The payload block recording how a run was executed; never compared.
EXECUTION_KEY = "execution"

#: How many drifted list indices a failure line spells out before counting the rest.
PREVIEW_INDICES = 5


@dataclass(slots=True)
class BaselineCheck:
    """Outcome of checking one benchmark payload against its baseline."""

    scenario: str
    failures: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """Whether the payload equals its baseline."""
        return not self.failures


def payload_drift(expected: Any, got: Any, path: str = "") -> List[str]:
    """One ``path: ...`` line per JSON path at which ``got`` differs from ``expected``.

    Objects are walked key by key, so every drifted value is reported in one
    pass.  A list of the same length is reported as one line that names its
    drifted indices, the first few with both values: a fine-grained timeline
    has hundreds of buckets, and dumping both whole lists buries the drift.
    """
    if isinstance(expected, dict) and isinstance(got, dict):
        lines = []
        for key in [*expected, *(key for key in got if key not in expected)]:
            where = f"{path}.{key}" if path else key
            if key not in got:
                lines.append(f"{where}: missing from the fresh payload")
            elif key not in expected:
                lines.append(f"{where}: not in the baseline")
            else:
                lines.extend(payload_drift(expected[key], got[key], where))
        return lines
    if expected == got:
        return []
    if isinstance(expected, list) and isinstance(got, list):
        if len(expected) != len(got):
            return [f"{path}: expected {len(expected)} entries, got {len(got)}"]
        drifted = [index for index, pair in enumerate(zip(expected, got)) if pair[0] != pair[1]]
        preview = ", ".join(f"[{i}] {expected[i]!r}->{got[i]!r}" for i in drifted[:PREVIEW_INDICES])
        more = f", ... {len(drifted) - PREVIEW_INDICES} more" if len(drifted) > PREVIEW_INDICES else ""
        return [f"{path}: {len(drifted)}/{len(expected)} drifted: {preview}{more}"]
    return [f"{path}: expected {expected!r}, got {got!r}"]


def compare_payloads(current: Dict[str, Any], baseline: Dict[str, Any]) -> BaselineCheck:
    """Compare one freshly produced benchmark payload against its baseline."""

    def computed(payload: Dict[str, Any]) -> Dict[str, Any]:
        return {key: value for key, value in payload.items() if key != EXECUTION_KEY}

    # Through JSON, so the fresh payload is compared as the file it writes.
    fresh = json.loads(json.dumps(computed(current)))
    return BaselineCheck(
        scenario=str(current.get("scenario", "<unnamed>")),
        failures=payload_drift(computed(baseline), fresh),
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
