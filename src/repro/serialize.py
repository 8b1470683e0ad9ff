"""JSON (de)serialisation of profiling results.

Profiling a large guest is expensive; analyses (phases, figures, clustering)
are cheap.  Serialising the reports lets a run be archived and re-analysed
without re-executing the guest — the same reason the original tools dump
their data to files the DWB framework consumes.

Round-trippable: :class:`~repro.core.report.TQuadReport`,
:class:`~repro.gprofsim.report.FlatProfile`, and
:class:`~repro.quad.report.QuadReport` (whose UnMA fields are
cardinalities — Table II needs only the sizes).
"""

from __future__ import annotations

import json
from typing import Any

from .core.ledger import BandwidthLedger
from .core.machine_model import MachineModel
from .core.options import StackPolicy, TQuadOptions
from .core.report import TQuadReport
from .gprofsim.report import FlatProfile, FlatRow
from .quad.report import KernelIO, QuadReport

FORMAT_VERSION = 1


# --------------------------------------------------------------- tQUAD
def tquad_to_dict(report: TQuadReport) -> dict[str, Any]:
    ledger = report.ledger
    return {
        "format": FORMAT_VERSION,
        "kind": "tquad",
        "options": {
            "slice_interval": report.options.slice_interval,
            "stack": report.options.stack.value,
            "exclude_libraries": report.options.exclude_libraries,
            "kernels": (list(report.options.kernels)
                        if report.options.kernels is not None else None),
        },
        "total_instructions": report.total_instructions,
        "complete": report.complete,
        "images": report.images,
        # canonical ordering (kernels, then slice index): the in-memory dict
        # order depends on flush batching / shard merging, the archive must
        # not — equal profiles serialise byte-identically
        "history": {
            name: {str(s): list(ledger.history[name][s])
                   for s in sorted(ledger.history[name])}
            for name in sorted(ledger.history)
        },
    }


def tquad_from_dict(data: dict[str, Any]) -> TQuadReport:
    if data.get("kind") != "tquad":
        raise ValueError("not a serialised tQUAD report")
    opt = data["options"]
    options = TQuadOptions(
        slice_interval=opt["slice_interval"],
        stack=StackPolicy(opt["stack"]),
        exclude_libraries=opt["exclude_libraries"],
        kernels=tuple(opt["kernels"]) if opt["kernels"] is not None else None)
    ledger = BandwidthLedger(options.slice_interval)
    ledger.history = {
        name: {int(s): tuple(c) for s, c in slices.items()}
        for name, slices in data["history"].items()
    }
    return TQuadReport(ledger=ledger, options=options,
                       total_instructions=data["total_instructions"],
                       images=dict(data.get("images", {})),
                       complete=data.get("complete", True))


def tquad_to_json(report: TQuadReport, **json_kwargs) -> str:
    return json.dumps(tquad_to_dict(report), **json_kwargs)


def tquad_from_json(text: str) -> TQuadReport:
    return tquad_from_dict(json.loads(text))


# --------------------------------------------------------------- sweeps
def sweep_to_dict(result) -> dict[str, Any]:
    """Serialise a :class:`~repro.sweep.engine.SweepResult`: the grid
    axes plus every cell's full tQUAD report, in canonical cell order —
    one artifact for the whole config grid."""
    return {
        "format": FORMAT_VERSION,
        "kind": "tquad_sweep",
        "grid": {
            "intervals": list(result.grid.intervals),
            "stacks": [s.value for s in result.grid.stacks],
            "library_modes": [bool(m) for m in result.grid.library_modes],
            "kernels": (list(result.grid.kernels)
                        if result.grid.kernels is not None else None),
        },
        "grain": result.grain,
        "total_instructions": result.total_instructions,
        "stats": dict(result.stats),
        "cells": [
            {"interval": cell.interval, "stack": cell.stack.value,
             "exclude_libraries": cell.exclude_libraries,
             "report": tquad_to_dict(report)}
            for cell, report in result
        ],
    }


def sweep_from_dict(data: dict[str, Any]):
    """Rebuild a :class:`~repro.sweep.engine.SweepResult`; every cell
    comes back as a full, queryable :class:`TQuadReport`."""
    if data.get("kind") != "tquad_sweep":
        raise ValueError("not a serialised tQUAD sweep")
    from .sweep.engine import SweepResult
    from .sweep.grid import SweepCell, SweepGrid

    g = data["grid"]
    kernels = tuple(g["kernels"]) if g.get("kernels") is not None else None
    grid = SweepGrid(intervals=tuple(g["intervals"]),
                     stacks=tuple(StackPolicy(s) for s in g["stacks"]),
                     library_modes=tuple(bool(m)
                                         for m in g["library_modes"]),
                     kernels=kernels)
    reports = {}
    for c in data["cells"]:
        cell = SweepCell(interval=c["interval"],
                         stack=StackPolicy(c["stack"]),
                         exclude_libraries=bool(c["exclude_libraries"]),
                         kernels=kernels)
        reports[cell] = tquad_from_dict(c["report"])
    return SweepResult(grid=grid, reports=reports,
                       total_instructions=data["total_instructions"],
                       grain=data["grain"], stats=dict(data.get("stats", {})))


def sweep_to_json(result, **json_kwargs) -> str:
    return json.dumps(sweep_to_dict(result), **json_kwargs)


def sweep_from_json(text: str):
    return sweep_from_dict(json.loads(text))


# --------------------------------------------------------- approx tQUAD
def approx_to_dict(result) -> dict[str, Any]:
    """Serialise an :class:`~repro.capture.approx.ApproxTQuadReplay`:
    the ``1/rate``-scaled report plus every estimate *with its bound* —
    an approximate artifact must never be mistaken for an exact one, so
    the sampling parameters, confidence intervals and sketch error
    budget travel with the data."""
    return {
        "format": FORMAT_VERSION,
        "kind": "tquad_approx",
        "rate": result.rate,
        "seed": result.seed,
        "rows_walked": result.rows_walked,
        "sampled_rows": result.sampled_rows,
        "totals": dict(result.totals),
        "rel_err_95": {k: round(v, 6)
                       for k, v in result.rel_err_95.items()},
        "heavy_hitters": [[name, est]
                          for name, est in result.heavy_hitters],
        "sketch": dict(result.sketch),
        "mem": dict(result.mem),
        "report": tquad_to_dict(result.report),
    }


def approx_from_dict(data: dict[str, Any]):
    """Rebuild an :class:`~repro.capture.approx.ApproxTQuadReplay` —
    the report comes back fully queryable, the bounds verbatim."""
    if data.get("kind") != "tquad_approx":
        raise ValueError("not a serialised approximate tQUAD replay")
    from .capture.approx import ApproxTQuadReplay

    return ApproxTQuadReplay(
        report=tquad_from_dict(data["report"]),
        rate=data["rate"], seed=data["seed"],
        rows_walked=data["rows_walked"],
        sampled_rows=data["sampled_rows"],
        totals=dict(data["totals"]),
        rel_err_95=dict(data["rel_err_95"]),
        heavy_hitters=[(n, e) for n, e in data["heavy_hitters"]],
        sketch=dict(data["sketch"]), mem=dict(data.get("mem", {})))


def approx_to_json(result, **json_kwargs) -> str:
    return json.dumps(approx_to_dict(result), **json_kwargs)


def approx_from_json(text: str):
    return approx_from_dict(json.loads(text))


# ---------------------------------------------------------------- gprof
def flat_to_dict(profile: FlatProfile) -> dict[str, Any]:
    return {
        "format": FORMAT_VERSION,
        "kind": "flat",
        "total_instructions": profile.total_instructions,
        "machine": {
            "frequency_hz": profile.machine.frequency_hz,
            "ipc": profile.machine.ipc,
            "name": profile.machine.name,
        },
        "rows": [
            {"name": r.name, "self": r.self_instructions,
             "cumulative": r.cumulative_instructions, "calls": r.calls}
            for r in profile.rows
        ],
        "edges": [
            {"caller": caller, "callee": callee, "count": count}
            for (caller, callee), count in sorted(profile.edges.items())
        ],
    }


def flat_from_dict(data: dict[str, Any]) -> FlatProfile:
    if data.get("kind") != "flat":
        raise ValueError("not a serialised flat profile")
    machine = MachineModel(frequency_hz=data["machine"]["frequency_hz"],
                           ipc=data["machine"]["ipc"],
                           name=data["machine"]["name"])
    rows = [FlatRow(name=r["name"], self_instructions=r["self"],
                    cumulative_instructions=r["cumulative"],
                    calls=r["calls"]) for r in data["rows"]]
    edges = {(e["caller"], e["callee"]): e["count"]
             for e in data.get("edges", [])}
    return FlatProfile(rows=rows,
                       total_instructions=data["total_instructions"],
                       machine=machine, edges=edges)


def flat_to_json(profile: FlatProfile, **json_kwargs) -> str:
    return json.dumps(flat_to_dict(profile), **json_kwargs)


def flat_from_json(text: str) -> FlatProfile:
    return flat_from_dict(json.loads(text))


# ----------------------------------------------------------------- QUAD
def quad_to_dict(report: QuadReport) -> dict[str, Any]:
    return {
        "format": FORMAT_VERSION,
        "kind": "quad",
        "total_instructions": report.total_instructions,
        "images": report.images,
        "kernels": {
            name: {
                "in_incl": io.in_bytes_incl, "in_excl": io.in_bytes_excl,
                "out_incl": io.out_bytes_incl, "out_excl": io.out_bytes_excl,
                "in_unma_incl": io.in_unma_incl,
                "in_unma_excl": io.in_unma_excl,
                "out_unma_incl": io.out_unma_incl,
                "out_unma_excl": io.out_unma_excl,
                "reads": io.reads, "writes": io.writes,
                "reads_nonstack": io.reads_nonstack,
                "writes_nonstack": io.writes_nonstack,
            }
            for name, io in sorted(report.kernels.items())
        },
        "bindings": [
            {"producer": p, "consumer": c, "bytes_incl": v[0],
             "bytes_excl": v[1]}
            for (p, c), v in sorted(report.bindings.items())
        ],
    }


def quad_from_dict(data: dict[str, Any]) -> QuadReport:
    """Rebuild a :class:`QuadReport`; it carries no ``shadow_stats``."""
    if data.get("kind") != "quad":
        raise ValueError("not a serialised QUAD report")
    kernels = {
        name: KernelIO(
            in_bytes_incl=k["in_incl"], in_bytes_excl=k["in_excl"],
            out_bytes_incl=k["out_incl"], out_bytes_excl=k["out_excl"],
            in_unma_incl=k["in_unma_incl"], in_unma_excl=k["in_unma_excl"],
            out_unma_incl=k["out_unma_incl"],
            out_unma_excl=k["out_unma_excl"],
            reads=k["reads"], writes=k["writes"],
            reads_nonstack=k["reads_nonstack"],
            writes_nonstack=k["writes_nonstack"])
        for name, k in data["kernels"].items()
    }
    bindings = {(b["producer"], b["consumer"]):
                [b["bytes_incl"], b["bytes_excl"]]
                for b in data.get("bindings", [])}
    return QuadReport(kernels=kernels, bindings=bindings,
                      images=dict(data.get("images", {})),
                      total_instructions=data["total_instructions"])


def quad_to_json(report: QuadReport, **json_kwargs) -> str:
    return json.dumps(quad_to_dict(report), **json_kwargs)


def quad_from_json(text: str) -> QuadReport:
    return quad_from_dict(json.loads(text))
