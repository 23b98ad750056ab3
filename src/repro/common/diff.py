"""The one comparison of two results: every JSON path at which they differ.

``repro bench --check`` holds a fresh benchmark payload to its committed
baseline, ``repro diff`` holds one results file to another, and the
equivalence harness (``tests/equivalence.py``) holds each execution shape's
result to its reference's; all three call :func:`payload_drift`.

A payload's top-level ``execution`` block records how a run was executed
(workers, shard plan, shard walls, perf snapshots), not what it computed, so
it is never compared: a pooled, streamed or vectorized run is held to the
serial one.  There is no epsilon: every compared value is replay arithmetic,
deterministic for the spec, and both sides are compared as the JSON they
write (``json`` writes the shortest ``repr`` that reads back as the same
double), so ``1`` and ``1.0`` differ and a tuple equals its list.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List

#: How many drifted list indices a line spells out before counting the rest.
PREVIEW_INDICES = 5


def payload_drift(expected: Dict[str, Any], got: Dict[str, Any]) -> List[str]:
    """One ``path: ...`` line per JSON path at which ``got`` differs from ``expected``.

    Objects are walked key by key, so every drifted value is reported in one
    pass.  A list of the same length is reported as one line that names its
    drifted indices, the first few with both values: a fine-grained timeline
    has hundreds of buckets, and dumping both whole lists buries the drift.
    """
    sides = (json.loads(json.dumps({k: v for k, v in side.items() if k != "execution"})) for side in (expected, got))
    return _drift(*sides, "")


def _same(expected: Any, got: Any) -> bool:
    return json.dumps(expected, sort_keys=True) == json.dumps(got, sort_keys=True)


def _drift(expected: Any, got: Any, path: str) -> List[str]:
    if isinstance(expected, dict) and isinstance(got, dict):
        lines = []
        for key in [*expected, *(key for key in got if key not in expected)]:
            where = f"{path}.{key}" if path else key
            if key not in got:
                lines.append(f"{where}: missing")
            elif key not in expected:
                lines.append(f"{where}: unexpected")
            else:
                lines.extend(_drift(expected[key], got[key], where))
        return lines
    if _same(expected, got):
        return []
    if isinstance(expected, list) and isinstance(got, list):
        if len(expected) != len(got):
            return [f"{path}: expected {len(expected)} entries, got {len(got)}"]
        drifted = [index for index, pair in enumerate(zip(expected, got)) if not _same(*pair)]
        preview = ", ".join(f"[{i}] {expected[i]!r}->{got[i]!r}" for i in drifted[:PREVIEW_INDICES])
        more = f", ... {len(drifted) - PREVIEW_INDICES} more" if len(drifted) > PREVIEW_INDICES else ""
        return [f"{path}: {len(drifted)}/{len(expected)} drifted: {preview}{more}"]
    return [f"{path}: expected {expected!r}, got {got!r}"]
