"""Merging per-shard analysis payloads into whole-run reports.

Each merge is a fold over the shard results *in shard order* and produces
a report object equal (field for field, and byte-identical once rendered
or serialised) to what the serial tool builds:

* **tQUAD** — each shard's ledger table joins the merged ledger as one
  chunk, and the fold is commutative addition per ``(kernel, slice)``;
  slice indices are computed from absolute icounts, so a slice split
  across a shard boundary merges back exactly.
* **QUAD** — consumer-side counters and UnMA bitmaps sum/union directly.
  Producer attribution of cross-shard reads was deferred by the workers;
  each shard's deferred reads are resolved against the *composed shadow*
  of all earlier shards (which is exactly the serial tool's shadow at the
  shard's start for every address the shard did not overwrite), then the
  shard's own shadow is layered on top — the fold is
  :func:`repro.quad.shadow.merge_shards`, next to the sink whose state
  it folds.
* **gprof** — self/cumulative/call/edge counts sum; shard-boundary self
  time was settled by ``flush_shard`` such that the two halves of each
  lazily-attributed span add up to the serial charge.  Dicts are merged in
  shard order, which reproduces the serial first-touch insertion order —
  so even tie-breaking in the (stable) report sort matches.
"""

from __future__ import annotations

from ..core.ledger import BandwidthLedger
from ..core.report import TQuadReport
from ..gprofsim.report import FlatProfile, FlatRow
from ..quad.report import QuadReport
from ..quad.shadow import merge_shards
from .worker import (GprofPayload, GprofSpec, QuadSpec, ShardResult,
                     TQuadPayload, TQuadSpec)


def merge_tquad(results: list[ShardResult], spec: TQuadSpec,
                images: dict[str, str],
                total_instructions: int) -> tuple[TQuadReport, int]:
    """Fold shard ledgers into one report; returns (report, prefetches)."""
    ledger = BandwidthLedger(spec.options.slice_interval)
    prefetches = 0
    for res in results:
        payload: TQuadPayload = res.payloads[spec.key]
        prefetches += payload.prefetches_skipped
        ledger.merge(payload.ledger)
    report = TQuadReport(ledger=ledger, options=spec.options,
                         total_instructions=total_instructions,
                         images=dict(images), complete=True)
    return report, prefetches


def merge_quad(results: list[ShardResult], spec: QuadSpec,
               images: dict[str, str],
               total_instructions: int) -> QuadReport:
    return merge_shards([res.payloads[spec.key] for res in results],
                        track_bindings=spec.track_bindings, images=images,
                        total_instructions=total_instructions)


def merge_gprof(results: list[ShardResult], spec: GprofSpec,
                images: dict[str, str],
                total_instructions: int) -> FlatProfile:
    self_instructions: dict[str, int] = {}
    cumulative: dict[str, int] = {}
    calls: dict[str, int] = {}
    edges: dict[tuple[str, str], int] = {}
    for res in results:
        payload: GprofPayload = res.payloads[spec.key]
        for name, v in payload.self_instructions.items():
            self_instructions[name] = self_instructions.get(name, 0) + v
        for name, v in payload.cumulative_instructions.items():
            cumulative[name] = cumulative.get(name, 0) + v
        for name, v in payload.calls.items():
            calls[name] = calls.get(name, 0) + v
        for key, v in payload.edges.items():
            edges[key] = edges.get(key, 0) + v
    # Mirror GprofTool.report: same filtering, defaults, and stable sort.
    rows = []
    for name, self_instr in self_instructions.items():
        if spec.main_image_only and images.get(name, "main") != "main":
            continue
        rows.append(FlatRow(
            name=name,
            self_instructions=self_instr,
            cumulative_instructions=cumulative.get(name, self_instr),
            calls=calls.get(name, 0)))
    rows.sort(key=lambda r: r.self_instructions, reverse=True)
    return FlatProfile(rows=rows, total_instructions=total_instructions,
                       edges=edges)
