"""The worker side of the benchmark: one process per workload.

A worker holds its workload's set-up state, runs one op per ``"op"``
command from the driver and replies with the op's wall time, the errors
of its correctness check, the worker's peak RSS and the bytes the op
wrote, read and rendered.  The set-up that writes files and every check
run in short-lived children, so the peak RSS covers only imports, the
loaded set-up state and ops.  On ``"trace"`` it
runs the traced ops and the per-layer probes and writes the spans to
``out/trace_<workload>.json``.
"""

from __future__ import annotations

import gc
import multiprocessing as mp
import resource
import shutil
import statistics
import time
import traceback
from pathlib import Path

import workloads
from repro import obs

OUT = Path(__file__).resolve().parent / "out"
#: Traced ops per workload; per-layer op values are their medians.
TRACED_OPS = 2


def _child_entry(conn, target, args) -> None:
    try:
        conn.send(("ok", target(*args)))
    except Exception:
        conn.send(("error", traceback.format_exc()))
    finally:
        conn.close()


def run_in_child(target, *args):
    """Run ``target(*args)`` in a short-lived child; return its result.

    The child is forked, so it starts with the caller's imports; what it
    allocates does not count toward the caller's ``ru_maxrss``."""
    ctx = mp.get_context("fork")
    rx, tx = ctx.Pipe(duplex=False)
    proc = ctx.Process(target=_child_entry, args=(tx, target, args))
    proc.start()
    tx.close()
    try:
        status, value = rx.recv()
    except EOFError:
        status, value = "error", f"child exited with code {proc.exitcode}"
    finally:
        rx.close()
        proc.join()
    if status == "error":
        raise RuntimeError(value)
    return value


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def timed_op(wl: workloads.Workload, check) -> tuple:
    gc.collect()
    t0 = time.perf_counter()
    try:
        artifacts = wl.op(workloads.untraced)
        seconds = time.perf_counter() - t0
        errors = check(artifacts)
        data_bytes = wl.data_bytes(artifacts)
    except Exception:
        seconds = time.perf_counter() - t0
        errors, data_bytes = [traceback.format_exc()], 0
    return "op", seconds, errors, peak_rss_mib(), data_bytes


def _adopt(tele: obs.Telemetry, events: list[tuple], op) -> None:
    """Add the program's own spans to the benchmark trace under ``op``."""
    tele.events.extend((name, cat, ts, dur, tid, {**args, "op": op})
                       for name, cat, ts, dur, tid, args in events)


def _covered_ns(intervals: list[tuple[int, int]]) -> int:
    total, end = 0, None
    for lo, hi in sorted(intervals):
        if end is None or lo > end:
            total += hi - lo
            end = hi
        elif hi > end:
            total += hi - end
            end = hi
    return total


def op_breakdown(events: list[tuple], op: int) -> dict:
    """Seconds per layer of one traced op, plus its dark (unspanned) share."""
    op_dur, = [e[3] for e in events if e[1] == "op" and e[5]["op"] == op]
    spans = [e for e in events if e[1] == "layer" and e[5]["op"] == op]
    layers: dict[str, float] = {}
    for name, _cat, _ts, dur, _tid, _args in spans:
        layer = name.split(":", 1)[0]
        layers[layer] = layers.get(layer, 0.0) + dur / 1e9
    covered = _covered_ns([(ts, ts + dur) for _n, _c, ts, dur, _t, _a
                           in spans])
    return {"op_s": op_dur / 1e9, "layers": layers,
            "dark": 1.0 - covered / op_dur}


def traced_op(wl: workloads.Workload, tele: obs.Telemetry,
              op: int) -> tuple[float, dict[str, str]]:
    """One op with its layer spans recorded into ``tele`` under ``op``,
    plus the program's own spans when ``obs`` is enabled."""
    def span(layer, call):
        return tele.span(f"{layer}:{call}", cat="layer", op=op)

    gc.collect()
    obs.TELEMETRY.take_events()
    t0 = time.perf_counter()
    with tele.span(f"op:{wl.name}", cat="op", op=op):
        artifacts = wl.op(span)
    seconds = time.perf_counter() - t0
    _adopt(tele, obs.TELEMETRY.take_events(), op)
    return seconds, artifacts


def trace_run(wl: workloads.Workload, check) -> tuple:
    """Traced ops plus the probes; returns per-layer metrics."""
    tele = obs.Telemetry(enabled=True)
    seconds, op_errors, breakdowns, sizes = [], [], [], []
    obs.enable()
    try:
        for i in range(TRACED_OPS):
            op_s, artifacts = traced_op(wl, tele, i)
            seconds.append(op_s)
            op_errors.append(check(artifacts))
            breakdowns.append(op_breakdown(tele.events, i))
            sizes.append(sum(len(t.encode()) for t in artifacts.values()))

        def probe_span(layer, call):
            return tele.span(f"{layer}:{call}", cat="probe", op="probe")

        metrics = wl.probe(probe_span)
        _adopt(tele, obs.TELEMETRY.take_events(), "probe")
    finally:
        obs.disable()
    OUT.mkdir(exist_ok=True)
    obs.write_chrome_trace(tele, str(OUT / f"trace_{wl.name}.json"))

    def med(fn):
        return statistics.median(fn(b) for b in breakdowns)

    metrics["render.s"] = med(lambda b: b["layers"].get("render", 0.0))
    metrics["render.bytes"] = statistics.median(sizes)
    metrics["render.share"] = med(
        lambda b: b["layers"].get("render", 0.0) / b["op_s"])
    if any("phases" in b["layers"] for b in breakdowns):
        metrics["phases.s"] = med(lambda b: b["layers"]["phases"])
    metrics["trace.dark_pct"] = 100 * med(lambda b: b["dark"])
    layers = {layer: med(lambda b: b["layers"].get(layer, 0.0)
                         / b["op_s"])
              for layer in breakdowns[0]["layers"]}
    return "trace", metrics, seconds, op_errors, layers


def worker_main(conn, name: str, scale: str, seed: int, workdir: str,
                expected) -> None:
    """Set up, warm up, report ready, then serve driver commands."""
    try:
        wl = workloads.make(name, scale, seed, workdir)
        run_in_child(wl.prepare)

        def check(artifacts):
            return run_in_child(wl.check, artifacts, expected)

        wl.setup()
        wl.op(workloads.untraced)                  # warm-up, not timed
        conn.send(("ready", wl.instructions))
        while (cmd := conn.recv()) != "stop":
            if cmd == "op":
                conn.send(timed_op(wl, check))
            elif cmd == "trace":
                conn.send(trace_run(wl, check))
    except Exception:
        try:
            conn.send(("error", traceback.format_exc()))
        except OSError:
            pass
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        conn.close()
