"""Plain-text rendering of regenerated tables and figure series.

The benchmark harness prints each figure as the series of numbers the
paper plots, so a reader can diff shapes (who wins, by what factor,
where crossovers fall) against the published curves without a plotting
stack.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence


def _fmt(value) -> str:
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 1000 or abs(value) < 0.01:
            return f"{value:.3g}"
        return f"{value:.3f}".rstrip("0").rstrip(".")
    return str(value)


def format_table(
    headers: Sequence[str],
    rows: Iterable[Sequence],
    *,
    title: Optional[str] = None,
) -> str:
    """Render an aligned monospace table."""
    str_rows: List[List[str]] = [[_fmt(c) for c in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in str_rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines: List[str] = []
    if title:
        lines.append(title)
    lines.append("  ".join(h.ljust(w) for h, w in zip(headers, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for row in str_rows:
        lines.append("  ".join(c.rjust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)
