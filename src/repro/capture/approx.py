"""The approximate replay tier: sampled streams with error bounds.

Where the exact streaming tier (:mod:`~repro.capture.streaming`) pays
full decode cost under a memory ceiling, this tier trades accuracy for
throughput: each tQUAD record page is Bernoulli-sampled at a caller-set
rate (deterministically — :func:`~repro.capture.streaming.sample_mask`
keys on ``(seed, stream, page)``), the surviving rows build a normal
:class:`~repro.core.report.TQuadReport` with Horvitz-Thompson ``1/rate``
scaling, and a count-min sketch tracks per-kernel byte totals for the
heavy-hitter table.  Every estimate ships with its bound: sampled totals
carry a 95% confidence relative error derived from the sample variance,
sketch counters carry the classic ``eps * total`` overestimate bound.

The math, for the record: a Bernoulli(r) sample S of rows with values
``x_i`` estimates the true total ``T`` as ``T̂ = (Σ_S x_i) / r`` —
unbiased, with ``Var(T̂) = Σ_S x_i² · (1 − r) / r²`` estimated from the
sample itself, giving the reported ``1.96 · √Var / T̂`` bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..core.options import TQuadOptions
from ..core.report import TQuadReport
from ..obs import TELEMETRY
from .format import require_tool
from .reader import CaptureReader
from .replay import _resolve_tquad_options
from .streaming import MemBudget

#: The four estimated totals, in ledger counter order.
TOTAL_KEYS = ("read_incl", "read_excl", "write_incl", "write_excl")

#: Kernels kept in the count-min heavy-hitter ranking.
HEAVY_HITTERS = 8


class CountMinSketch:
    """Count-min sketch over non-negative int64 keys.

    ``depth`` multiply-shift hash rows of ``width`` (rounded up to a
    power of two) counters; a query returns the row minimum, which
    overestimates the true count by at most ``epsilon * total`` with
    probability ``1 - delta``.  Weights are int64 so byte totals stay
    exact up to the hashing collisions the bound accounts for.
    """

    def __init__(self, width: int = 2048, depth: int = 4, seed: int = 0):
        self.width = 1 << max(int(width) - 1, 1).bit_length()
        self.depth = int(depth)
        self._shift = np.uint64(64 - self.width.bit_length() + 1)
        rng = np.random.default_rng((int(seed), 0xC0FFEE))
        # odd multipliers: multiply-shift needs them for 2-universality
        self._a = (rng.integers(0, 1 << 63, size=self.depth,
                                dtype=np.uint64) << np.uint64(1)) \
            | np.uint64(1)
        self._b = rng.integers(0, 1 << 63, size=self.depth,
                               dtype=np.uint64)
        self.table = np.zeros((self.depth, self.width), np.int64)
        self.total = 0

    def _hash(self, d: int, keys: np.ndarray) -> np.ndarray:
        x = keys.astype(np.uint64)
        return ((x * self._a[d] + self._b[d]) >> self._shift) \
            .astype(np.int64)

    def update(self, keys: np.ndarray, weights: np.ndarray) -> None:
        keys = np.asarray(keys)
        if keys.size == 0:
            return
        weights = np.asarray(weights, np.int64)
        self.total += int(weights.sum())
        for d in range(self.depth):
            np.add.at(self.table[d], self._hash(d, keys), weights)

    def query(self, keys: np.ndarray) -> np.ndarray:
        keys = np.asarray(keys)
        if keys.size == 0:
            return np.empty(0, np.int64)
        est = self.table[0][self._hash(0, keys)].copy()
        for d in range(1, self.depth):
            np.minimum(est, self.table[d][self._hash(d, keys)], out=est)
        return est

    @property
    def epsilon(self) -> float:
        return math.e / self.width

    @property
    def delta(self) -> float:
        return math.exp(-self.depth)


@dataclass
class ApproxTQuadReplay:
    """An approximate replay: the scaled report plus every bound.

    ``report`` is a normal :class:`TQuadReport` (all per-slice counters
    Horvitz-Thompson scaled by ``1/rate`` and rounded); ``totals`` /
    ``rel_err_95`` carry the four estimated byte totals with their 95%
    confidence relative errors; ``heavy_hitters`` is the count-min
    per-kernel byte ranking with the sketch's overestimate bound in
    ``sketch``.
    """

    report: TQuadReport
    rate: float
    seed: int
    rows_walked: int
    sampled_rows: int
    totals: dict[str, int]
    rel_err_95: dict[str, float]
    heavy_hitters: list[tuple[str, int]]
    sketch: dict[str, float]
    mem: dict[str, int]

    def summary_lines(self) -> list[str]:
        pct = 100.0 * self.sampled_rows / max(self.rows_walked, 1)
        lines = [
            f"approx replay: rate={self.rate:g} seed={self.seed} — kept "
            f"{self.sampled_rows:,} of {self.rows_walked:,} rows "
            f"({pct:.2f}%)"]
        for key in TOTAL_KEYS:
            lines.append(
                f"  est {key:<10} {self.totals[key]:>16,} B  "
                f"(±{100.0 * self.rel_err_95[key]:.2f}% @95%)")
        if self.heavy_hitters:
            hh = ", ".join(f"{name}={est:,}B"
                           for name, est in self.heavy_hitters[:5])
            lines.append(
                f"  heavy hitters (count-min, "
                f"+{int(self.sketch['bound_bytes']):,}B worst-case "
                f"overcount): {hh}")
        if self.mem.get("spilled_bytes"):
            lines.append(
                f"  spilled {self.mem['spilled_bytes']:,} B of carry "
                f"state to disk")
        return lines


def approx_replay_tquad(reader: CaptureReader,
                        options: TQuadOptions | None = None, *,
                        rate: float, seed: int = 0,
                        mem_limit: int | None = None,
                        telemetry=TELEMETRY) -> ApproxTQuadReplay:
    """Sampled tQUAD replay at ``rate`` with reported error bounds.

    The sweep engine's sampled pass for one cell, always bounded (an
    unlimited budget without ``mem_limit``, so ``mem`` reports the
    pass's resident peak either way): pages sample down before any
    per-row work, the sampled rows aggregate through the spill-capable
    sorted-table accumulators, and the counters scale by ``1/rate``.
    The post-pass here turns the pass's per-counter sums and sums of
    squares into the four totals and their bounds, and feeds the sketch
    once with per-kernel sampled bytes (the sketch is linear, so this is
    the table a row-by-row feed builds).  Deterministic for a fixed
    (capture, rate, seed) triple.  ``options`` behaves exactly as in
    :func:`~repro.capture.replay.replay_tquad`.
    """
    from ..sweep.engine import _one_cell

    manifest = reader.manifest
    require_tool(manifest, "tquad")
    options = _resolve_tquad_options(manifest, options)
    names = manifest["kernels"]
    budget = MemBudget(mem_limit)
    with telemetry.span("replay", cat="capture", tool="tquad_approx",
                        interval=options.slice_interval, rate=rate):
        report, stats, sample = _one_cell(reader, options, telemetry,
                                          budget, (rate, seed))
    telemetry.count("capture/approx_replays")

    totals = {key: int(np.rint(sample.sums[j] / rate))
              for j, key in enumerate(TOTAL_KEYS)}
    rel_err = {}
    for j, key in enumerate(TOTAL_KEYS):
        s = sample.sums[j]
        rel_err[key] = (1.96 * math.sqrt(sample.sumsqs[j] * (1.0 - rate)) / s
                        if s > 0 else 0.0)

    sketch = CountMinSketch(seed=seed)
    kids = np.arange(len(names), dtype=np.int64)
    sketch.update(kids, sample.kernel_bytes)
    est = np.rint(sketch.query(kids) / rate).astype(np.int64) \
        if kids.size else np.empty(0, np.int64)
    ranked = sorted(((names[int(k)], int(est[int(k)])) for k in kids
                     if est[int(k)] > 0),
                    key=lambda kv: (-kv[1], kv[0]))
    return ApproxTQuadReplay(
        report=report, rate=float(rate), seed=int(seed),
        rows_walked=stats["rows_walked"],
        sampled_rows=stats["sampled_rows"],
        totals=totals, rel_err_95=rel_err,
        heavy_hitters=ranked[:HEAVY_HITTERS],
        sketch={"width": sketch.width, "depth": sketch.depth,
                "epsilon": sketch.epsilon, "delta": sketch.delta,
                "bound_bytes": int(np.rint(
                    sketch.epsilon * sketch.total / rate))},
        mem={"peak_resident_bytes": budget.peak,
             "spilled_bytes": budget.spilled_bytes})
