"""ASCII rendering of per-link utilization matrices and congestion reports.

The bandwidth subsystem attaches a :class:`~repro.bandwidth.usage.LinkUsageResult`
to every run of a capacitated scenario: one offered-load fraction per
(uplink, accounting window) cell.  This module turns that matrix into the
terminal artifacts of ``repro heatmap``:

* :func:`render_heatmap` — one shaded row per uplink, one column per
  (downsampled) accounting window, plus a legend.  Shades step at fixed
  utilization levels so the same cell looks the same across systems and
  runs — the whole point is eyeballing *where* OpenFlow and LazyCtrl push
  the same offered load through the same pipes;
* :func:`hot_links_report` — the worst uplinks as an aligned table
  (peak utilization, number of windows at/over capacity);
* :func:`latency_percentile_rows` — per-system p50/p95/p99 rows from the
  timeline's whole-run latency histogram, the tail the mean-latency series
  hides (congestion is a tail phenomenon: a hot link barely moves the mean
  while multiplying p99).

Everything is plain text: the repo has no plotting dependency by design.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

from repro.common.formatting import format_table
from repro.bandwidth.usage import LinkUsageResult
from repro.core.results import RunResult

#: Shade ramp for utilization cells; the last glyph marks >= 100% offered.
_SHADES = " ░▒▓█"
#: Upper bounds of the first four shades (fractions of capacity).
_SHADE_BOUNDS = (0.02, 0.25, 0.60, 1.0)


def _shade(value: float) -> str:
    """The glyph of one utilization cell."""
    for bound, glyph in zip(_SHADE_BOUNDS, _SHADES):
        if value < bound:
            return glyph
    return _SHADES[-1]


def _downsample_max(series: Sequence[float], columns: int) -> List[float]:
    """Collapse a series to ``columns`` cells, each the max of its slice.

    Max (not mean) because congestion is what the heatmap exists to show:
    averaging a 10-minute overload into a 2-hour column would hide it.
    """
    length = len(series)
    if length <= columns:
        return list(series)
    out = []
    for index in range(columns):
        start = index * length // columns
        end = max(start + 1, (index + 1) * length // columns)
        out.append(max(series[start:end]))
    return out


def render_heatmap(
    usage: LinkUsageResult,
    *,
    label: str = "",
    max_columns: int = 72,
    max_rows: int = 40,
) -> str:
    """Render one run's utilization matrix as an ASCII heatmap.

    Rows are uplinks sorted hottest-first (ties by switch id); columns are
    accounting windows, max-downsampled when the run has more windows than
    ``max_columns``.  When the topology has more uplinks than ``max_rows``
    only the hottest are drawn and the cut is announced rather than silent.
    """
    window_count = usage.window_count
    header = (
        f"{label or 'link utilization'} — {len(usage.utilization)} uplinks × "
        f"{window_count} windows of {usage.window_seconds:g}s"
    )
    lines = [header]
    if not usage.utilization or window_count == 0:
        lines.append("  (no capacitated links saw traffic)")
        return "\n".join(lines)

    ranked = sorted(
        usage.utilization.items(),
        key=lambda item: (-max(item[1], default=0.0), int(item[0])),
    )
    shown = ranked[:max_rows]
    columns = min(max_columns, window_count)
    for key, series in shown:
        cells = "".join(_shade(value) for value in _downsample_max(series, columns))
        peak = max(series, default=0.0)
        lines.append(f"  sw{int(key):>4} |{cells}| peak={peak:.2f}")
    if len(ranked) > len(shown):
        lines.append(f"  … {len(ranked) - len(shown)} cooler uplinks not shown")
    lines.append(
        "  legend: ' '<2%  ░<25%  ▒<60%  ▓<100%  █>=100% of capacity per window"
    )
    return "\n".join(lines)


def hot_links_report(usage: LinkUsageResult, *, threshold: float = 1.0, limit: int = 10) -> str:
    """The worst uplinks as an aligned table (empty-message when none)."""
    rows = usage.hot_links(threshold)[:limit]
    if not rows:
        return f"no uplink reached {threshold:.0%} of capacity in any window"
    return format_table(
        ("switch", "peak util", "hot windows"),
        [(f"sw{switch_id}", f"{peak:.2f}", hot) for switch_id, peak, hot in rows],
        title=f"uplinks at >= {threshold:.0%} capacity",
    )


def latency_percentile_rows(
    runs: Sequence[RunResult],
) -> List[Tuple[str, str, str, str]]:
    """``(label, p50, p95, p99)`` rows from each run's latency histogram.

    Runs without a timeline (or with an empty histogram) render "-" so the
    table shape stays stable across traced and untraced runs.
    """
    rows = []
    for run in runs:
        rows.append(
            (
                run.label,
                format_percentile(run, 0.50),
                format_percentile(run, 0.95),
                format_percentile(run, 0.99),
            )
        )
    return rows


def format_percentile(run: RunResult, fraction: float) -> str:
    """One formatted latency-percentile cell ("-" when the run carries no histogram)."""
    value = run.timeline.latency_percentile(fraction) if run.timeline is not None else None
    return "-" if value is None else f"{value:.3f}"
