"""Telemetry cost gate: traced against untraced profiling.

Profiles the ``small`` WFS case study with tQUAD, QUAD and gprof attached
to one :class:`~repro.pin.PinEngine`, alternating untraced runs with runs
under span tracing (``obs.enable()``, what ``--trace-out`` switches on).
It asserts that tracing changes no report byte, and bounds the enabled
tracing overhead — the disabled cost is strictly below the enabled cost,
so this also bounds the "<2 % disabled" budget of
``docs/observability.md``.  The last traced run is written as a Chrome
trace-event JSON (``BENCH_trace.json``, uploaded as a CI artifact; open
in Perfetto).  Results land in ``trace_overhead.txt`` (human) and
``BENCH_trace_overhead.json`` (machine-readable).
"""

import json
import time

from conftest import save_artifact
from repro import obs
from repro.apps.wfs import SMALL, make_workspace
from repro.core import TQuadOptions, TQuadTool
from repro.gprofsim import GprofTool
from repro.pin import PinEngine
from repro.quad import QuadTool
from repro.serialize import flat_to_json, quad_to_json, tquad_to_json

#: Gate on the *enabled*-tracing overhead.  Spans are phase-granular, so
#: the true cost is near zero — single-run wall-clock noise on shared CI
#: runners dominates, hence the generous ceiling.  It still catches the
#: regression class that matters: any accidental per-instruction
#: instrumentation shows up as 2x+, not 25%.  Disabled telemetry does
#: strictly less work than enabled (no-op spans), so the <2% disabled
#: budget is bounded by whatever this run measures.
TRACING_OVERHEAD_CEILING = 0.25

#: Interleaved (untraced, traced) pairs; each arm keeps its fastest run.
PAIRS = 3

#: Chrome trace-event JSON of the last traced run; the BENCH_ prefix puts
#: it in the existing CI artifact upload glob.
TRACE_ARTIFACT = "BENCH_trace.json"


def _profile(program):
    """One serial run with all three tools; returns (report bytes,
    seconds)."""
    t0 = time.perf_counter()
    engine = PinEngine(program, fs=make_workspace(SMALL))
    tquad = TQuadTool(TQuadOptions(slice_interval=5000)).attach(engine)
    quad = QuadTool().attach(engine)
    gprof = GprofTool().attach(engine)
    engine.run()
    reports = (tquad_to_json(tquad.report()), quad_to_json(quad.report()),
               flat_to_json(gprof.report()))
    return reports, time.perf_counter() - t0


def _traced_profile(program, trace_path):
    """The same run with span tracing on; writes the Chrome trace."""
    obs.reset()
    obs.enable()
    try:
        result = _profile(program)
        obs.write_chrome_trace(obs.TELEMETRY, str(trace_path))
    finally:
        obs.disable()
        obs.reset()
    return result


def _interleaved(program, trace_path):
    untraced, traced = [], []
    for _ in range(PAIRS):
        untraced.append(_profile(program))
        traced.append(_traced_profile(program, trace_path))
    return untraced, traced


def test_trace_overhead(benchmark, outdir, small_program):
    untraced, traced = benchmark.pedantic(
        lambda: _interleaved(small_program, outdir / TRACE_ARTIFACT),
        rounds=1, iterations=1)

    # --- exactness: tracing never changes a report byte -------------------
    reference = untraced[0][0]
    for reports, _ in untraced + traced:
        assert reports == reference

    # --- telemetry: overhead bound ----------------------------------------
    t_untraced = min(seconds for _, seconds in untraced)
    t_traced = min(seconds for _, seconds in traced)
    tracing_overhead = t_traced / t_untraced - 1.0
    assert tracing_overhead < TRACING_OVERHEAD_CEILING, (
        f"tracing-enabled run {tracing_overhead:+.1%} slower than the "
        f"untraced run ({t_traced:.2f}s vs {t_untraced:.2f}s)")
    events = json.loads((outdir / TRACE_ARTIFACT).read_text())
    assert any(e.get("name") == "drain" and e.get("cat") == "quad"
               for e in events["traceEvents"])

    lines = [f"{'configuration':<34}{'best s':>10}{'runs':>30}",
             f"{'serial, 3 tools, untraced':<34}{t_untraced:>10.2f}"
             f"{', '.join(f'{s:.2f}' for _, s in untraced):>30}",
             f"{'serial, 3 tools, traced':<34}{t_traced:>10.2f}"
             f"{', '.join(f'{s:.2f}' for _, s in traced):>30}",
             f"tracing overhead: {tracing_overhead:+.1%} "
             f"(ceiling {TRACING_OVERHEAD_CEILING:.0%}; disabled-telemetry "
             f"cost is strictly below this)"]
    save_artifact(outdir, "trace_overhead.txt", "\n".join(lines))
    payload = {
        "benchmark": "trace_overhead",
        "workload": "wfs(small), tquad+quad+gprof on one engine",
        "pairs": PAIRS,
        "seconds": {"untraced": [round(s, 3) for _, s in untraced],
                    "traced": [round(s, 3) for _, s in traced]},
        "tracing_overhead": round(tracing_overhead, 4),
        "trace_artifact": TRACE_ARTIFACT,
        "exact": True,
        "gate": {"tracing_overhead_ceiling": TRACING_OVERHEAD_CEILING},
    }
    (outdir / "BENCH_trace_overhead.json").write_text(
        json.dumps(payload, indent=2) + "\n")
