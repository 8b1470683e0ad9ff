"""End-of-run telemetry summary: a plain-text table of where time went.

Spans are aggregated by name and category (count, total and mean wall
time, and the most any one of them raised the process's peak resident
set), followed by the counters and gauges.  The table is what the CLI
prints to stderr after a run with ``--trace-out`` — the ten-second view,
with the full timeline in the exported Chrome trace.
"""

from __future__ import annotations

from .core import Telemetry


def _fmt_ms(ns: int) -> str:
    return f"{ns / 1e6:,.2f}"


def summary_table(tele: Telemetry) -> str:
    """Render the aggregated spans + counters + gauges as a table."""
    lines = ["== telemetry summary =="]
    rows = tele.span_stats()
    if rows:
        lines.append(f"{'span':<28}{'cat':<10}{'count':>7}{'total ms':>11}"
                     f"{'mean ms':>10}{'peak +MiB':>11}")
        for (name, cat), (n, total, rise) in sorted(
                rows.items(), key=lambda kv: -kv[1][1]):
            peak = "-" if rise is None else f"{rise / 1024:,.1f}"
            lines.append(f"{name:<28}{cat:<10}{n:>7}{_fmt_ms(total):>11}"
                         f"{_fmt_ms(total // n):>10}{peak:>11}")
    if tele.counters:
        lines.append("")
        lines.append(f"{'counter':<40}{'value':>14}")
        for name in sorted(tele.counters):
            lines.append(f"{name:<40}{tele.counters[name]:>14,}")
    if tele.gauges:
        lines.append("")
        lines.append(f"{'gauge':<40}{'value':>14}")
        for name in sorted(tele.gauges):
            v = tele.gauges[name]
            text = f"{v:,.0f}" if float(v).is_integer() else f"{v:,.3f}"
            lines.append(f"{name:<40}{text:>14}")
    if len(lines) == 1:
        lines.append("(no telemetry recorded)")
    return "\n".join(lines)
