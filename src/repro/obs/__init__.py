"""Run telemetry: spans, counters, gauges, Chrome trace export.

The process-wide singleton :data:`TELEMETRY` is what the engine, the VM's
superblock compiler, the QUAD drains and the corpus worker pool record
into by default; code that wants an isolated collection (tests, the
worker processes) builds its own :class:`Telemetry` and passes it down
explicitly.

Usage::

    from repro import obs

    obs.enable()
    ... run a profile ...
    obs.write_chrome_trace(obs.TELEMETRY, "run.json")   # open in Perfetto
    print(obs.summary_table(obs.TELEMETRY))
    obs.disable()

Module-level :func:`span` / :func:`count` / :func:`gauge` are bound
methods of the singleton — the call sites stay one name long and the
singleton is never replaced, only reset.
"""

from .core import NULL_SPAN, Telemetry
from .summary import summary_table
from .trace import MAIN_TID, to_chrome_trace, write_chrome_trace

#: The process-wide default collection (tracing disabled until
#: :func:`enable`; counters/gauges are always on).
TELEMETRY = Telemetry()

span = TELEMETRY.span
count = TELEMETRY.count
gauge = TELEMETRY.gauge
instant = TELEMETRY.instant


def enable() -> Telemetry:
    """Turn span tracing on for the process-wide collection."""
    TELEMETRY.enabled = True
    return TELEMETRY


def disable() -> None:
    TELEMETRY.enabled = False


def reset() -> None:
    TELEMETRY.reset()


__all__ = [
    "Telemetry", "TELEMETRY", "NULL_SPAN", "MAIN_TID",
    "span", "count", "gauge", "instant",
    "enable", "disable", "reset",
    "to_chrome_trace", "write_chrome_trace", "summary_table",
]
