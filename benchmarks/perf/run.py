#!/usr/bin/env python3
"""The repo's benchmark: four workloads through the profiler pipeline.

    python3 benchmarks/perf/run.py [--workload NAME] [--seed 7]
        [--seconds 8] [--trace [0|1]] [--json PATH] [--smoke]
        [--record-expected]

Run from the root of a checkout (``src/`` is put on the path).  The load
is a closed loop with one client: this driver keeps one spawned worker
per workload and dispatches ops to them round-robin, one at a time,
rotating the workload order every round.  Each workload first sets up
``Scale.setups`` times (a fresh worker each time; ``setup_s`` is the
median) and runs one untimed warm-up op.  Then ops run until each
workload has ``--seconds`` of timed ops and at least ``MIN_OPS`` of them.
Every op's outputs are checked against the digests in ``expected.json``;
for a seed that file does not hold, the references are computed first,
in a child, and reported as ``reference_s``.

``host.probe_s``, a fixed loop that imports nothing from the program, is
measured just before each set-up and each op.  The gated times are
medians in host-normalized seconds: each time divided by the probe before
it, scaled by ``PROBE_REF_S`` (see ``Slot.end_to_end``).  The raw op times
(fastest, quartiles) are printed beside them.

Tracing is off for every end-to-end number.  ``--trace`` adds, after the
timed rounds, ``worker.TRACED_OPS`` traced ops and the per-layer probes
per workload, and prints the per-layer metrics.  The last line of output
is one JSON object: ``correct``, ``attempted``, ``failed`` and the
end-to-end metrics (or, with ``--trace``, the per-layer metrics) named in
``BENCHMARK.json``.  The exit code is 0 when every op was correct.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import multiprocessing as mp
import os
import platform
import shutil
import statistics
import sys
import tempfile
import time
import zlib
from dataclasses import dataclass, field
from multiprocessing import resource_tracker
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
for _p in (ROOT / "src", HERE):
    if str(_p) not in sys.path:
        sys.path.insert(0, str(_p))

OUT = HERE / "out"
EXPECTED = HERE / "expected.json"
WORK = OUT / "work"
WORKLOAD_NAMES = ("wfs-live", "pointer-capture", "pointer-warm-replay",
                  "pointer-bounded-cold")
#: Seeds ``--record-expected`` records: the default and a held-out one.
RECORD_SEEDS = (7, 1009)
MIN_OPS = 5
#: A set whose host probe spreads more than this is flagged as drifted.
DRIFT_SPREAD = 0.10
#: ``host.probe_s`` on the measurement host (2-core 2.0 GHz Xeon VM) when
#: no other tenant slows it; the unit of host-normalized seconds.
PROBE_REF_S = 0.095


def host_probe() -> float:
    """Wall time of a fixed loop that imports nothing from the program, so
    it tracks host speed only: pure-Python arithmetic, a small
    dispatch-loop interpreter over a 1M-slot memory (the shape of the
    program's own VM, and as sensitive to cache contention), NumPy and
    deflate."""
    data = np.random.default_rng(0).integers(0, 16, 1 << 21,
                                             dtype=np.uint8).tobytes()
    mem = [0] * (1 << 20)
    code = ("push", "load", "add", "store", "jump")
    t0 = time.perf_counter()
    acc = 0
    for i in range(100_000):
        acc = (acc * 31 + i) & 0xFFFFFFFF
    stack: list[int] = []
    x = 1
    for i in range(150_000):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        op = code[i % 5]
        if op == "push":
            stack.append(i)
        elif op == "load":
            stack.append(mem[x & 0xFFFFF])
        elif op == "add":
            stack.append(stack.pop() + stack.pop())
        elif op == "store":
            mem[x & 0xFFFFF] = stack.pop() & 0xFFFF
        else:
            acc += len(stack)
    a = np.arange(200_000, dtype=np.int64)
    for _ in range(10):
        a = (a * 7 + 3) % 1_000_003
    zlib.compress(data, 1)
    return time.perf_counter() - t0


def normalized(times: list[float], probes: list[float]) -> float:
    """The median of ``times`` in host-normalized seconds: each time is
    divided by the probe taken just before it and scaled by
    ``PROBE_REF_S``."""
    return PROBE_REF_S * statistics.median(t / p
                                           for t, p in zip(times, probes))


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def spread(values: list[float]) -> float:
    """Interquartile range as a share of the median."""
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / med


@dataclass
class Slot:
    """The driver's view of one workload and its worker."""

    name: str
    expected: dict | None = None
    proc: object = None
    conn: object = None
    setup_s: list[float] = field(default_factory=list)
    op_s: list[float] = field(default_factory=list)
    #: ``host_probe`` just before each set-up and each op
    setup_probe_s: list[float] = field(default_factory=list)
    op_probe_s: list[float] = field(default_factory=list)
    reference_s: float = 0.0
    instructions: int = 0
    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)
    rss_mib: float = 0.0
    #: bytes each op wrote, read and rendered (``Workload.data_bytes``)
    op_bytes: list[int] = field(default_factory=list)
    layers: dict = field(default_factory=dict)
    op_shares: dict = field(default_factory=dict)
    traced_s: list[float] = field(default_factory=list)

    def record(self, errors: list[str]) -> None:
        self.attempted += 1
        if errors:
            self.failed += 1
            self.errors.extend(errors)

    def recv(self):
        msg = self.conn.recv()
        if msg[0] == "error":
            raise RuntimeError(f"{self.name} worker failed:\n{msg[1]}")
        return msg

    def start(self, ctx, args, index: int) -> None:
        """Spawn a worker; its set-up time runs until it reports ready."""
        import worker

        self.setup_probe_s.append(host_probe())
        parent, child = ctx.Pipe()
        t0 = time.perf_counter()
        self.proc = ctx.Process(
            target=worker.worker_main, name=f"bench-{self.name}",
            args=(child, self.name, args.scale, args.seed,
                  str(WORK / f"{self.name}-{index}"), self.expected))
        self.proc.start()
        child.close()
        self.conn = parent
        _, self.instructions = self.recv()
        self.setup_s.append(time.perf_counter() - t0)

    def stop(self) -> None:
        if self.proc is None:
            return
        try:
            self.conn.send("stop")
        except OSError:
            pass
        self.proc.join(timeout=60)
        if self.proc.is_alive():
            self.proc.terminate()
            self.proc.join()
        self.conn.close()
        self.proc = self.conn = None

    def end_to_end(self) -> dict[str, float]:
        """The gated metrics, times in host-normalized seconds.

        Other tenants of a shared host slow its cores by up to 2x for
        stretches of seconds to minutes, often longer than a run (CPU time
        stays equal to wall time: the core is slower, the process does not
        wait).  A probe taken just before an op mostly sees the same
        slowdown as the op, so the median op-to-probe ratio moves far less
        from run to run than any statistic of the raw times."""
        op_s = normalized(self.op_s, self.op_probe_s)
        return {"setup_s": normalized(self.setup_s, self.setup_probe_s),
                "minstr_per_s": self.instructions / op_s / 1e6,
                "peak_rss_mib": self.rss_mib,
                "bytes_per_kinstr": statistics.median(self.op_bytes)
                / (self.instructions / 1e3)}

    def probes(self) -> list[float]:
        return self.setup_probe_s + self.op_probe_s


def measure(slots: list[Slot], seconds: float) -> None:
    """Timed rounds: each workload still short of ``seconds`` of timed ops
    (or of ``MIN_OPS`` ops) runs one op per round, after a host probe."""
    rnd = 0
    while pending := [s for s in slots
                      if sum(s.op_s) < seconds or len(s.op_s) < MIN_OPS]:
        k = rnd % len(pending)
        parts = []
        for slot in pending[k:] + pending[:k]:
            probe = host_probe()
            slot.conn.send("op")
            _, op_s, errors, slot.rss_mib, data_bytes = slot.recv()
            slot.op_s.append(op_s)
            slot.op_bytes.append(data_bytes)
            slot.op_probe_s.append(probe)
            slot.record(errors)
            parts.append(f"{slot.name} {op_s:.4f} s, host.probe_s "
                         f"{probe:.4f}" + (" FAILED" if errors else ""))
        rnd += 1
        print(f"round {rnd}: " + " | ".join(parts), flush=True)


def trace(slot: Slot) -> None:
    slot.conn.send("trace")
    _, metrics, traced_s, op_errors, shares = slot.recv()
    for errors in op_errors:
        slot.record(errors)
    slot.traced_s = traced_s
    metrics["trace.overhead_pct"] = 100 * (min(traced_s) / min(slot.op_s)
                                           - 1)
    slot.layers = metrics
    slot.op_shares = shares


def _line(slot: Slot, name: str, value, unit: str) -> None:
    print(f"{slot.name:<21} {name:<28} {value:>14.6g} {unit}")


def report(slots: list[Slot], args, bench: dict) -> dict:
    """Print every metric by name and unit; return the result object."""
    wanted = bench["per_layer"] if args.trace else bench["end_to_end"]
    metrics: dict[str, dict] = {}
    for slot in slots:
        e2e = slot.end_to_end()
        q1, med, q3 = quartiles(slot.op_s)
        print(f"\n== {slot.name} (seed {args.seed}, scale {args.scale})")
        for m in bench["end_to_end"]:
            _line(slot, m["name"], e2e[m["name"]], m["unit"])
        _line(slot, "op_s.normalized", normalized(slot.op_s, slot.op_probe_s),
              "s")
        _line(slot, "op_s.n", len(slot.op_s), "count")
        _line(slot, "op_s.min", min(slot.op_s), "s")
        _line(slot, "op_s.q1", q1, "s")
        _line(slot, "op_s.median", med, "s")
        _line(slot, "op_s.q3", q3, "s")
        _line(slot, "fail_rate", slot.failed / slot.attempted, "fraction")
        _line(slot, "reference_s", slot.reference_s, "s")
        if args.trace:
            for m in bench["per_layer"]:
                _line(slot, m["name"], slot.layers[m["name"]], m["unit"])
            print(f"{slot.name:<21} op layers: " + ", ".join(
                f"{layer} {100 * share:.1f}%" for layer, share in
                sorted(slot.op_shares.items(), key=lambda kv: -kv[1])))
        for err in slot.errors[:5]:
            print(f"{slot.name}: ERROR {err}", file=sys.stderr)
        values = slot.layers if args.trace else e2e
        prefix = "" if len(slots) == 1 else f"{slot.name}/"
        for m in wanted:
            metrics[prefix + m["name"]] = {"value": values[m["name"]],
                                           "unit": m["unit"]}
    probes = [p for slot in slots for p in slot.probes()]
    probe_spread = spread(probes)
    print(f"\nhost.probe_s min {min(probes):.4f} s, median "
          f"{statistics.median(probes):.4f} s, spread "
          f"{100 * probe_spread:.1f}% over {len(probes)} probes")
    if probe_spread > DRIFT_SPREAD:
        print(f"HOST DRIFT: probe spread {100 * probe_spread:.1f}% > "
              f"{100 * DRIFT_SPREAD:.0f}%; compare this set with care")
    failed = sum(s.failed for s in slots)
    return {"correct": failed == 0,
            "attempted": sum(s.attempted for s in slots),
            "failed": failed, "metrics": metrics}


def git_sha() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return None
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    if (git / ref).exists():
        return (git / ref).read_text().strip()
    if (git / "packed-refs").exists():
        for line in (git / "packed-refs").read_text().splitlines():
            sha, _, name = line.partition(" ")
            if name == ref:
                return sha
    return None


def write_json(path: Path, slots: list[Slot], args, result: dict) -> None:
    probes = [p for slot in slots for p in slot.probes()]
    out = {
        "host": {"nproc": os.cpu_count(), "python": platform.python_version(),
                 "numpy": np.__version__, "git_sha": git_sha(),
                 "machine": platform.machine()},
        "seed": args.seed, "scale": args.scale, "seconds": args.seconds,
        "trace": bool(args.trace),
        "host_probe_s": probes, "host_probe_spread": spread(probes),
        "result": result,
        "workloads": {},
    }
    for slot in slots:
        out["workloads"][slot.name] = {
            "op_s": slot.op_s, "n": len(slot.op_s),
            "op_s_quartiles": list(quartiles(slot.op_s)),
            "op_probe_s": slot.op_probe_s,
            "setup_s": slot.setup_s, "setup_probe_s": slot.setup_probe_s,
            "reference_s": slot.reference_s,
            "end_to_end": slot.end_to_end(),
            "op_bytes": slot.op_bytes,
            "attempted": slot.attempted, "failed": slot.failed,
            "errors": slot.errors[:20],
            "per_layer": slot.layers, "traced_op_s": slot.traced_s,
            "op_layer_shares": slot.op_shares,
        }
    path.write_text(json.dumps(out, indent=1) + "\n")


def record_expected(names: list[str], args) -> int:
    """Record reference digests for ``RECORD_SEEDS`` into ``EXPECTED``
    (only the current scale's section changes)."""
    import worker
    import workloads

    data = (json.loads(EXPECTED.read_text())
            if EXPECTED.exists() else {"format": 1})
    section = data.setdefault("scales", {}).setdefault(args.scale, {})
    for name in names:
        fixed = workloads.WORKLOADS[name].fixed
        for key in ("any",) if fixed else map(str, RECORD_SEEDS):
            t0 = time.perf_counter()
            section.setdefault(name, {})[key] = worker.run_in_child(
                workloads.reference_digests, name, args.scale,
                0 if fixed else int(key), str(WORK / f"ref-{name}"))
            print(f"recorded {name} seed {key} "
                  f"({time.perf_counter() - t0:.1f} s)", flush=True)
    EXPECTED.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    return 0


def run(names: list[str], args, bench: dict) -> int:
    import worker
    import workloads

    data = json.loads(EXPECTED.read_text()) if EXPECTED.exists() else {}
    recorded = data.get("scales", {}).get(args.scale, {})
    slots = [Slot(name) for name in names]
    ctx = mp.get_context("spawn")
    try:
        for slot in slots:
            fixed = workloads.WORKLOADS[slot.name].fixed
            slot.expected = recorded.get(slot.name, {}).get(
                "any" if fixed else str(args.seed))
            if slot.expected is None:
                t0 = time.perf_counter()
                slot.expected = worker.run_in_child(
                    workloads.reference_digests, slot.name, args.scale,
                    args.seed, str(WORK / f"ref-{slot.name}"))
                slot.reference_s = time.perf_counter() - t0
        for slot in slots:
            for index in range(workloads.SCALES[args.scale].setups):
                slot.stop()
                slot.start(ctx, args, index)
            print(f"{slot.name}: set-up "
                  + ", ".join(f"{s:.3f}" for s in slot.setup_s) + " s"
                  + (f", reference {slot.reference_s:.3f} s"
                     if slot.reference_s else ""), flush=True)
        measure(slots, args.seconds)
        if args.trace:
            for slot in slots:
                trace(slot)
    finally:
        for slot in slots:
            slot.stop()
    result = report(slots, args, bench)
    if args.json:
        write_json(args.json, slots, args, result)
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", "--only", choices=WORKLOAD_NAMES,
                   help="run one workload (default: all four)")
    p.add_argument("--seed", type=int, default=7,
                   help="seed of the generated guests (default 7)")
    p.add_argument("--seconds", type=float, default=8.0,
                   help="timed op seconds per workload (default 8)")
    p.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                   choices=(0, 1), help="add the traced run and report "
                   "per-layer metrics")
    p.add_argument("--json", type=Path, metavar="PATH",
                   help="write samples, quartiles and host info to PATH")
    p.add_argument("--smoke", dest="scale", action="store_const",
                   const="smoke", default="full",
                   help="tiny guests and one set-up (for the self-test)")
    p.add_argument("--record-expected", action="store_true",
                   help=f"record reference digests for seeds "
                   f"{RECORD_SEEDS} and exit")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    spec = importlib.util.find_spec("repro")
    if spec is None or not Path(spec.origin).is_relative_to(ROOT / "src"):
        print(f"run.py: the program's sources are missing "
              f"({ROOT / 'src'}); run from the root of a full checkout",
              file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [args.workload] if args.workload else list(WORKLOAD_NAMES)
    (WORK / "tmp").mkdir(parents=True, exist_ok=True)
    # spill files and sidecar temporaries stay inside the checkout
    os.environ["TMPDIR"] = str(WORK / "tmp")
    tempfile.tempdir = None
    try:
        if args.record_expected:
            return record_expected(names, args)
        return run(names, args, bench)
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
        # spawning started multiprocessing's resource-tracker process;
        # stop it and wait for it, so no process outlives the benchmark
        resource_tracker._resource_tracker._stop()


if __name__ == "__main__":
    sys.exit(main())
