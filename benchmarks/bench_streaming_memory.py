"""A10 — streaming bounded-memory replay: RSS ceiling + throughput gates.

The streaming tier (``--mem-limit``) exists so a capture much larger
than memory can still be analyzed exactly; the sampled tier
(``--approx``) exists so a quick bounded-error answer costs a fraction
of the exact pass.  This benchmark pins both claims on one generated
pointer-chasing guest whose decoded trace dwarfs the streaming budget
(~200x here; the gate floor is 4x):

* **RSS ceiling** — four spawned child processes read the capture
  with the page-cache sidecar off (mmap would hide the working set):
  a *null* child that decodes a single page (the interpreter + numpy
  baseline), a *trace* child that holds every stream's decoded pages at
  once, an *in-memory* child running the unbounded fused pass, and a
  *streaming* child running the same pass under ``MEM_LIMIT``.  Peak
  RSS is read from ``ru_maxrss`` inside each child.  Gates: the
  streaming child's peak over the null baseline stays under
  ``RSS_CEILING`` (a constant covering the final reports + allocator
  overhead, independent of trace size), the trace child's delta is at
  least ``TRACE_FLOOR``x the streaming delta (a pass that held the
  decoded trace would fail the ceiling; the bounded one provably does
  not), and both replay children's reports hash byte-identical.  The
  in-memory child's delta is reported, not gated: every sweep groups
  page partials as they arrive, bounded or not, so the unbounded pass
  does not hold the trace either.
* **exact throughput** — the streaming fused pass must hold at least
  ``EXACT_FLOOR``x the warm fused throughput (sidecar present, min over
  timed reps, first interleaved rep discarded as warmup).
* **approx throughput + error** — ``approx_replay_tquad`` at ``RATE``
  must beat the warm fused pass by ``APPROX_FLOOR``x while every one of
  the four estimated byte totals lands within ``APPROX_ERR_CEILING``
  relative error of the exact ledger truth.

Results land in ``streaming_memory.txt`` (human) and
``BENCH_streaming.json`` (machine-readable, tracked across PRs).
"""

import hashlib
import json
import multiprocessing
import os
import resource
import tempfile
import time

from conftest import save_artifact
from repro.capture import (CaptureReader, approx_replay_tquad, capture_run,
                           replay_many)
from repro.capture.approx import TOTAL_KEYS
from repro.core import TQuadOptions
from repro.minic import build_program
from repro.serialize import (flat_to_json, quad_to_json, sweep_to_json,
                             tquad_to_json)
from repro.sweep import SweepGrid
from repro.testing.workloads import WorkloadSpec, generate_workload

#: Pointer-chasing guest sized so the decoded trace is hundreds of MiB —
#: far past any plausible streaming budget.
SPEC = WorkloadSpec(shape="pointer", seed=11, size=4096, kernels=8,
                    steps=12)
GRAIN = 2000
GRID = SweepGrid(intervals=(GRAIN, 2 * GRAIN))
#: The streaming byte ceiling handed to ``--mem-limit``.
MEM_LIMIT = 1 << 21
#: Allowed peak RSS of the streaming child *over the null baseline*:
#: final reports, sweep tables, and allocator slack — all independent of
#: trace size (the measured value sits around half of this).
RSS_CEILING = 80 << 20
#: The decoded trace must exceed ``TRACE_FLOOR * MEM_LIMIT``, and the
#: in-memory child's RSS delta must exceed ``TRACE_FLOOR``x streaming's.
TRACE_FLOOR = 4
#: Sampling rate for the approximate tier.
RATE = 0.05
#: Every estimated byte total must land within this relative error.
APPROX_ERR_CEILING = 0.02
#: Exact streaming must keep at least this fraction of warm throughput.
EXACT_FLOOR = 0.5
#: The sampled tier must beat the warm fused pass by at least this.
APPROX_FLOOR = 3.0
#: Interleaved warm/stream/approx reps; the first is warmup (it builds
#: the sidecar) and is discarded.
REPS = 4


def _bundle_digest(bundle):
    """One hash over every report a fused pass produces (sweep compared
    cell by cell — its stats legitimately carry streaming counters)."""
    cells = json.dumps(json.loads(sweep_to_json(bundle.sweep))["cells"],
                       sort_keys=True)
    blob = "\n".join([tquad_to_json(bundle.tquad),
                      flat_to_json(bundle.gprof),
                      quad_to_json(bundle.quad), cells])
    return hashlib.sha256(blob.encode()).hexdigest()


def _replay_child(path, mem_limit, conn):
    """Fused replay in a fresh process; reports peak RSS + report hash.

    The sidecar stays off: mmapped pages are file-backed and reclaimable,
    so they would mask the decode working set this gate is about.
    """
    opts = TQuadOptions(slice_interval=GRAIN)
    with CaptureReader(path, page_cache=False) as reader:
        bundle = replay_many(reader, options=opts, grid=GRID,
                             mem_limit=mem_limit)
        digest = _bundle_digest(bundle)
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024
    conn.send({"peak_rss": peak, "digest": digest})
    conn.close()


def _trace_child(path, conn):
    """What the RSS gate compares against: every stream's decoded pages
    held at once, as a pass that buffered the trace would."""
    with CaptureReader(path, page_cache=False) as reader:
        held = [list(reader.pages(stream)) for stream in reader.streams]
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024
    conn.send({"peak_rss": peak,
               "held_bytes": sum(p.nbytes for ps in held for p in ps)})
    conn.close()


def _null_child(path, conn):
    """The baseline: same interpreter, same imports, same open capture,
    one decoded page — everything except the replay working set."""
    with CaptureReader(path, page_cache=False) as reader:
        next(reader.pages("tquad.read"))
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024
    conn.send({"peak_rss": peak})
    conn.close()


def _in_child(target, *args):
    ctx = multiprocessing.get_context("spawn")
    rx, tx = ctx.Pipe(duplex=False)
    proc = ctx.Process(target=target, args=(*args, tx))
    proc.start()
    tx.close()
    out = rx.recv()
    proc.join()
    assert proc.exitcode == 0
    return out


def test_streaming_memory(benchmark, outdir):
    program = build_program(generate_workload(SPEC))
    opts = TQuadOptions(slice_interval=GRAIN)
    warm_s, stream_s, approx_s = [], [], []
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "guest.capture")
        capture_run(program, path, tools=("tquad", "gprof", "quad"),
                    options=opts)
        with CaptureReader(path, page_cache=False) as reader:
            decoded = sum(s["rows"] * s["stride"] * 8
                          for s in reader.streams.values())

        # ------------------------------------------- RSS, child-measured
        null = _in_child(_null_child, path)
        trace = _in_child(_trace_child, path)
        inmem = _in_child(_replay_child, path, None)
        stream = _in_child(_replay_child, path, MEM_LIMIT)
        trace_delta = trace["peak_rss"] - null["peak_rss"]
        inmem_delta = inmem["peak_rss"] - null["peak_rss"]
        stream_delta = stream["peak_rss"] - null["peak_rss"]

        # ------------------------------------------- throughput, in-proc
        for _ in range(REPS):
            t0 = time.perf_counter()
            with CaptureReader(path) as r:
                warm = replay_many(r, options=opts, grid=GRID)
            warm_s.append(time.perf_counter() - t0)

            t0 = time.perf_counter()
            with CaptureReader(path) as r:
                bounded = replay_many(r, options=opts, grid=GRID,
                                      mem_limit=MEM_LIMIT)
            stream_s.append(time.perf_counter() - t0)

            t0 = time.perf_counter()
            with CaptureReader(path) as r:
                est = approx_replay_tquad(r, opts, rate=RATE, seed=0)
            approx_s.append(time.perf_counter() - t0)

    # ------------------------------------------------- equality, always
    warm_digest = _bundle_digest(warm)
    assert _bundle_digest(bounded) == warm_digest
    assert inmem["digest"] == warm_digest
    assert stream["digest"] == warm_digest

    # exact ledger truth for the four byte totals, straight off the
    # unbounded report
    truth = dict.fromkeys(TOTAL_KEYS, 0)
    for name in warm.tquad.kernels():
        for counters in warm.tquad.ledger.history[name].values():
            for j, key in enumerate(TOTAL_KEYS):
                truth[key] += counters[j]
    rel_err = {key: abs(est.totals[key] - truth[key]) / max(truth[key], 1)
               for key in TOTAL_KEYS}
    worst_err = max(rel_err.values())

    # ----------------------------------------------------------- gates
    assert decoded >= TRACE_FLOOR * MEM_LIMIT, (
        f"trace too small to exercise streaming: {decoded:,} B decoded "
        f"vs --mem-limit {MEM_LIMIT:,} B (floor {TRACE_FLOOR}x)")
    assert stream_delta <= RSS_CEILING, (
        f"streaming child peaked {stream_delta / 2**20:.1f} MiB over the "
        f"baseline (ceiling {RSS_CEILING / 2**20:.0f} MiB) with "
        f"--mem-limit {MEM_LIMIT:,} B")
    assert trace["held_bytes"] == decoded
    assert trace_delta >= TRACE_FLOOR * max(stream_delta, 1), (
        f"holding the decoded trace costs only {trace_delta / 2**20:.1f} "
        f"MiB vs streaming {stream_delta / 2**20:.1f} MiB — the RSS gate "
        f"is vacuous")

    warm_min = min(warm_s[1:])
    stream_min = min(stream_s[1:])
    approx_min = min(approx_s[1:])
    exact_ratio = warm_min / stream_min
    approx_ratio = warm_min / approx_min
    assert exact_ratio >= EXACT_FLOOR, (
        f"exact streaming at {exact_ratio:.2f}x warm fused throughput "
        f"(floor {EXACT_FLOOR}x): warm={warm_min:.3f}s "
        f"stream={stream_min:.3f}s")
    assert approx_ratio >= APPROX_FLOOR, (
        f"approx tier at {approx_ratio:.2f}x warm fused throughput "
        f"(floor {APPROX_FLOOR}x): warm={warm_min:.3f}s "
        f"approx={approx_min:.3f}s")
    assert worst_err <= APPROX_ERR_CEILING, (
        f"approx totals off by {worst_err:.4%} (ceiling "
        f"{APPROX_ERR_CEILING:.0%}) at rate {RATE}: {rel_err}")

    lines = [
        "streaming bounded-memory replay",
        f"  guest: {SPEC.shape} seed={SPEC.seed} size={SPEC.size} "
        f"kernels={SPEC.kernels} steps={SPEC.steps}, grain {GRAIN}",
        f"  decoded trace: {decoded / 2**20:.1f} MiB "
        f"({decoded / MEM_LIMIT:.0f}x the {MEM_LIMIT / 2**20:.0f} MiB "
        f"--mem-limit)",
        f"  peak RSS over baseline (sidecar off, child-measured):",
        f"    decoded trace held: {trace_delta / 2**20:.1f} MiB",
        f"    in-memory fused: {inmem_delta / 2**20:.1f} MiB",
        f"    streaming fused: {stream_delta / 2**20:.1f} MiB "
        f"(ceiling {RSS_CEILING / 2**20:.0f} MiB)",
        f"  warm fused: {warm_min:.3f}s "
        f"(reps {', '.join(f'{s:.2f}' for s in warm_s)})",
        f"  exact streaming: {stream_min:.3f}s — {exact_ratio:.2f}x warm "
        f"(floor {EXACT_FLOOR}x)",
        f"  approx rate={RATE:g}: {approx_min:.3f}s — "
        f"{approx_ratio:.2f}x warm (floor {APPROX_FLOOR}x), worst total "
        f"error {worst_err:.4%} (ceiling {APPROX_ERR_CEILING:.0%})",
        "  equality: in-memory, streaming, and both child replays hash "
        "byte-identical",
    ]
    text = "\n".join(lines)
    print()
    print(text)
    save_artifact(outdir, "streaming_memory.txt", text)
    (outdir / "BENCH_streaming.json").write_text(json.dumps({
        "decoded_bytes": decoded,
        "mem_limit_bytes": MEM_LIMIT,
        "rss": {"null_bytes": null["peak_rss"],
                "trace_bytes": trace["peak_rss"],
                "inmem_bytes": inmem["peak_rss"],
                "stream_bytes": stream["peak_rss"],
                "trace_delta_bytes": trace_delta,
                "inmem_delta_bytes": inmem_delta,
                "stream_delta_bytes": stream_delta,
                "ceiling_bytes": RSS_CEILING},
        "warm_seconds": [round(s, 3) for s in warm_s],
        "stream_seconds": [round(s, 3) for s in stream_s],
        "approx_seconds": [round(s, 3) for s in approx_s],
        "exact_ratio": round(exact_ratio, 2),
        "exact_floor": EXACT_FLOOR,
        "approx_ratio": round(approx_ratio, 2),
        "approx_floor": APPROX_FLOOR,
        "approx": {"rate": RATE, "seed": 0,
                   "rel_err": {k: round(v, 6) for k, v in rel_err.items()},
                   "rel_err_ceiling": APPROX_ERR_CEILING,
                   "reported_rel_err_95": {k: round(v, 6) for k, v in
                                           est.rel_err_95.items()}},
        "grain": GRAIN,
        "grid_intervals": list(GRID.intervals),
        "workload": {"shape": SPEC.shape, "seed": SPEC.seed,
                     "size": SPEC.size, "kernels": SPEC.kernels,
                     "steps": SPEC.steps},
    }, indent=2, sort_keys=True) + "\n")
    benchmark.pedantic(lambda: None, rounds=1)
