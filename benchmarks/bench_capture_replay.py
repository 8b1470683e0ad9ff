"""A6 — capture once, analyze many: replay speed and capture overhead.

The paper's Table IV method needs "several passes with different time
slices" (§V-B) — the motivating workload for the capture backend
(:mod:`repro.capture`).  This benchmark pins its three contracts on the
``tiny`` WFS case study:

* **replay speedup** — re-analyzing four slice intervals from an existing
  capture must be >= 5x faster than re-executing the guest four times;
* **capture overhead** — recording the capture during an instrumented
  tQUAD run must cost <= 15% over the plain run;
* **exactness** — every replayed report serialises byte-identically to
  its re-executed twin, always.

Results land in ``capture_replay.txt`` (human) and
``BENCH_capture_replay.json`` (machine-readable, tracked across PRs).
"""

import io
import json
import time

from conftest import save_artifact
from repro.apps.wfs import TINY, build_wfs_program, make_workspace
from repro.capture import CaptureReader, capture_run, replay_tquad
from repro.core import (MultiPassResult, TQuadOptions, profile_passes,
                        run_tquad)
from repro.serialize import tquad_to_json

#: The multipass sweep (grain = gcd = 500; a realistic Table IV ladder).
INTERVALS = [500, 1000, 2000, 4000]

SPEEDUP_FLOOR = 5.0
OVERHEAD_CEILING = 0.15
ROUNDS = 3  # best-of-N wall-clock for the short measurements


def _best_of(fn, rounds=ROUNDS):
    best, result = float("inf"), None
    for _ in range(rounds):
        t0 = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - t0)
    return best, result


def test_capture_replay(benchmark, outdir):
    program = build_wfs_program(TINY)
    options = TQuadOptions(slice_interval=INTERVALS[0])

    # --- capture overhead: instrumented run with vs without recording ----
    t_plain, _ = _best_of(lambda: run_tquad(
        program, fs=make_workspace(TINY), options=options))

    def capture():
        buf = io.BytesIO()
        capture_run(program, buf, fs=make_workspace(TINY),
                    options=options, tools=("tquad",), label="bench")
        return buf

    t_capture, buf = _best_of(capture)
    overhead = t_capture / t_plain - 1.0
    assert overhead <= OVERHEAD_CEILING, (
        f"capture-enabled run {overhead:+.1%} slower than plain "
        f"({t_capture:.3f}s vs {t_plain:.3f}s)")

    # --- replay speedup: analyze-many from the existing capture ---------
    def replay_all():
        buf.seek(0)
        with CaptureReader(buf) as reader:
            return {i: replay_tquad(reader,
                                    TQuadOptions(slice_interval=i))
                    for i in INTERVALS}

    t_replay, replayed = _best_of(replay_all)

    def build():
        return program, make_workspace(TINY)

    def reexecute():
        # one instrumented execution per interval
        return MultiPassResult(reports={
            i: run_tquad(program, fs=make_workspace(TINY),
                         options=TQuadOptions(slice_interval=i))
            for i in INTERVALS})

    t0 = time.perf_counter()
    legacy = benchmark.pedantic(reexecute, rounds=1, iterations=1)
    t_legacy = time.perf_counter() - t0

    speedup = t_legacy / t_replay
    assert speedup >= SPEEDUP_FLOOR, (
        f"{len(INTERVALS)}-interval replay only {speedup:.1f}x faster "
        f"than re-execution ({t_replay:.3f}s vs {t_legacy:.3f}s)")

    # --- exactness: every pass byte-identical, always --------------------
    for interval in INTERVALS:
        assert (tquad_to_json(replayed[interval])
                == tquad_to_json(legacy.reports[interval]))

    # the shipped multipass path (capture + replay in one call) also
    # matches, and its end-to-end cost stays below re-execution
    t0 = time.perf_counter()
    fast = profile_passes(build, INTERVALS)
    t_multipass = time.perf_counter() - t0
    assert fast.format_table() == legacy.format_table()
    end_to_end = t_legacy / t_multipass

    lines = [f"{'configuration':<38}{'seconds':>10}{'speedup':>10}",
             f"{'re-execute 4 intervals (legacy)':<38}"
             f"{t_legacy:>10.3f}{1.0:>10.2f}",
             f"{'replay 4 intervals from capture':<38}"
             f"{t_replay:>10.3f}{speedup:>10.2f}",
             f"{'multipass (capture + replay)':<38}"
             f"{t_multipass:>10.3f}{end_to_end:>10.2f}",
             f"plain instrumented run: {t_plain:.3f}s; with capture: "
             f"{t_capture:.3f}s ({overhead:+.1%}, ceiling "
             f"{OVERHEAD_CEILING:.0%})",
             f"capture size: {len(buf.getvalue())} bytes "
             f"({len(INTERVALS)} passes served)",
             "all replayed reports byte-identical to re-execution"]
    save_artifact(outdir, "capture_replay.txt", "\n".join(lines))
    payload = {
        "benchmark": "capture_replay",
        "workload": f"wfs(tiny), tquad multipass {INTERVALS}",
        "seconds": {"reexecute": round(t_legacy, 4),
                    "replay": round(t_replay, 4),
                    "multipass": round(t_multipass, 4),
                    "plain_run": round(t_plain, 4),
                    "capture_run": round(t_capture, 4)},
        "replay_speedup": round(speedup, 2),
        "end_to_end_speedup": round(end_to_end, 2),
        "capture_overhead": round(overhead, 4),
        "capture_bytes": len(buf.getvalue()),
        "exact": True,
        "gate": {"replay_speedup_floor": SPEEDUP_FLOOR,
                 "capture_overhead_ceiling": OVERHEAD_CEILING,
                 "report_equality": "always"},
    }
    (outdir / "BENCH_capture_replay.json").write_text(
        json.dumps(payload, indent=2) + "\n")
