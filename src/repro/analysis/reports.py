"""Plain-text report formatting for tables and figure series.

The benchmark harness prints the same rows/series the paper reports; these
helpers render them as aligned text tables so ``pytest benchmarks/ -s`` (or
the example scripts) produce readable output without any plotting
dependency.
"""

from __future__ import annotations

from typing import Iterable, List, Sequence


def format_table(headers: Sequence[str], rows: Iterable[Sequence[object]], *, title: str | None = None) -> str:
    """Render a list of rows as an aligned text table."""
    string_rows = [[str(cell) for cell in row] for row in rows]
    widths = [len(header) for header in headers]
    for row in string_rows:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))

    def render_row(cells: Sequence[str]) -> str:
        return "  ".join(cell.ljust(widths[index]) for index, cell in enumerate(cells))

    lines: List[str] = []
    if title:
        lines.append(title)
        lines.append("=" * len(title))
    lines.append(render_row(list(headers)))
    lines.append(render_row(["-" * width for width in widths]))
    lines.extend(render_row(row) for row in string_rows)
    return "\n".join(lines)


def format_percent(value: float, *, precision: int = 1) -> str:
    """Format a fraction in [0, 1] as a percentage string."""
    return f"{100.0 * value:.{precision}f}%"


def two_hour_bucket_labels(bucket_hours: float, bucket_count: int) -> List[str]:
    """Labels like "0-2", "2-4", ... matching the paper's x axes."""
    labels = []
    for index in range(bucket_count):
        start = int(index * bucket_hours)
        end = int((index + 1) * bucket_hours)
        labels.append(f"{start}-{end}")
    return labels
