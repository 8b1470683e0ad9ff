"""Hostile ``quad.raw`` records on any page of a many-page capture.

The QUAD drain checks every record against the manifest as it decodes a
batch (:meth:`repro.quad.shadow.PagedQuadSink._decode`), and the replay
re-cuts the capture's pages into batches: one batch may hold several
pages, and one page may straddle two batches.  One record of a drawn
page is edited so the manifest cannot place it, and the page is sealed
again:

* a kernel-id field past the QUAD kernel table;
* a size the ISA never records (not 1, 2, 4 or 8);
* an access whose ``ea + size`` passes ``mem_size``;
* the same on a dropped access (kernel-id field 0).

Every QUAD route — ``replay_quad`` and ``replay_many(tools=("quad",))``,
each also under a 64 KiB ``mem_limit`` (4,096-record batches that
straddle pages), with and without the page-cache sidecar — must raise
:class:`CaptureFormatError` whose text names the edited page and value,
and its ``tracemalloc`` peak must stay within a MiB of the clean
replay's on the same route (no unchecked field sizes scratch).

Budget: 60 examples; the nightly job sets ``TQUAD_NIGHTLY=1`` for 1,000.
"""

from __future__ import annotations

import functools
import io
import json
import os
import tempfile
import tracemalloc
import zipfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.capture import (CaptureFormatError, CaptureReader, capture_run,
                           replay_many, replay_quad)
from repro.capture.format import (STREAM_QUAD, decode_page, encode_page,
                                  page_name)
from repro.minic import build_program
from repro.quad import tracker
from repro.quad.shadow import (ADDR_MASK, KID_SHIFT, TAIL_SHIFT,
                               CapturingPagedQuadSink)
from repro.testing.workloads import WorkloadSpec, generate_workload

NIGHTLY = os.environ.get("TQUAD_NIGHTLY", "") == "1"
EXAMPLES = 1000 if NIGHTLY else 60
FUZZ = settings(max_examples=EXAMPLES, deadline=None,
                suppress_health_check=[HealthCheck.too_slow])

#: Records per ``quad.raw`` page: below the 4,096-record batches of a
#: 64 KiB ``mem_limit``, so batches straddle pages.
RAW_CAP = 2500
#: What a hostile record may add to the clean replay's tracemalloc peak
#: (``TestReplayScratch.SLACK`` in ``tests/unit/test_capture.py``).
SLACK = 1 << 20

ROUTES = {
    "replay_quad": lambda r: replay_quad(r),
    "replay_quad/64K": lambda r: replay_quad(r, mem_limit=64 << 10),
    "replay_many": lambda r: replay_many(r, tools=("quad",)).quad,
    "replay_many/64K": lambda r: replay_many(r, tools=("quad",),
                                             mem_limit=64 << 10).quad,
}

EDITS = ("kernel", "size", "end", "dropped_end")
_SIZE_BITS = 31 << (TAIL_SHIFT + 1)
_KID_BITS = ((1 << 63) - 1) & ~((1 << KID_SHIFT) - 1)


@pytest.fixture(scope="module")
def clean() -> bytes:
    """A QUAD capture of a pointer chase whose ``quad.raw`` stream spans
    many pages (the raw sink's cap patched down)."""
    source = generate_workload(WorkloadSpec("pointer", seed=7, size=256,
                                            kernels=6, steps=1))
    buf = io.BytesIO()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(tracker, "CapturingPagedQuadSink",
                   functools.partial(CapturingPagedQuadSink, cap=RAW_CAP))
        capture_run(build_program(source), buf, tools=("quad",))
    raw = buf.getvalue()
    assert _manifest(raw)["streams"][STREAM_QUAD]["pages"] >= 3
    return raw


def _manifest(raw: bytes) -> dict:
    with zipfile.ZipFile(io.BytesIO(raw)) as zf:
        return json.loads(zf.read("manifest.json"))


def _peak(route, open_reader) -> tuple[int, BaseException | None]:
    """The tracemalloc peak of ``route`` on a fresh reader, and the
    :class:`CaptureFormatError` it raised (``None`` if none)."""
    exc = None
    with open_reader() as reader:
        tracemalloc.start()
        try:
            route(reader)
        except CaptureFormatError as err:
            exc = err
        finally:
            peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
    return peak, exc


def _readers(raw: bytes, tmp: str) -> dict:
    """Reader factories for ``raw``: in memory without a sidecar, and
    path-backed with one (built on the first open)."""
    path = Path(tmp) / "run.capture"
    path.write_bytes(raw)
    return {"no-cache": lambda: CaptureReader(io.BytesIO(raw)),
            "sidecar": lambda: CaptureReader(str(path), page_cache=True)}


@pytest.fixture(scope="module")
def clean_peaks(clean) -> dict:
    with tempfile.TemporaryDirectory() as tmp:
        readers = _readers(clean, tmp)
        peaks = {}
        for cache, open_reader in readers.items():
            for name, route in ROUTES.items():
                peak, exc = _peak(route, open_reader)
                assert exc is None
                peaks[cache, name] = peak
        return peaks


def _edit(raw: bytes, index: int, edit) -> tuple[bytes, str]:
    """``raw`` with page ``index`` of ``quad.raw`` passed through
    ``edit`` (which returns the expected error's text) and sealed
    again."""
    name = page_name(STREAM_QUAD, index)
    rows = _manifest(raw)["streams"][STREAM_QUAD]["page_rows"][index]
    out = io.BytesIO()
    with zipfile.ZipFile(io.BytesIO(raw)) as src, \
            zipfile.ZipFile(out, "w") as dst:
        for info in src.infolist():
            data = src.read(info)
            if info.filename == name:
                page = decode_page(data, STREAM_QUAD, rows).copy().ravel()
                why = edit(page)
                data = encode_page(page.tobytes(), STREAM_QUAD)
            dst.writestr(info, data)
    return out.getvalue(), why


@FUZZ
@given(kind=st.sampled_from(EDITS), data=st.data())
def test_hostile_record_on_any_page(clean, clean_peaks, kind, data):
    manifest = _manifest(clean)
    info = manifest["streams"][STREAM_QUAD]
    n_kernels = len(manifest["quad_kernels"])
    mem_size = manifest["mem_size"]
    index = data.draw(st.integers(0, info["pages"] - 1), label="page")

    def edit(page: np.ndarray) -> str:
        records = np.flatnonzero(page >= 0)
        at = int(records[data.draw(st.integers(0, records.size - 1),
                                   label="record")])
        rec = int(page[at])
        size = (rec >> (TAIL_SHIFT + 1)) & 31
        if kind == "kernel":
            kid1 = data.draw(st.integers(n_kernels + 1, (1 << 20) - 1),
                             label="kernel field")
            page[at] = rec & ~_KID_BITS | kid1 << KID_SHIFT
            why = (f"kernel id {kid1 - 1} is outside the manifest's "
                   f"{n_kernels}-entry QUAD kernel table")
        elif kind == "size":
            size = data.draw(st.integers(0, 31).filter(
                lambda s: s not in (1, 2, 4, 8)), label="size")
            page[at] = rec & ~_SIZE_BITS | size << (TAIL_SHIFT + 1)
            why = f"an access of {size} bytes; the ISA records 1, 2, 4 or 8"
        else:
            ea = data.draw(st.integers(mem_size - size + 1, ADDR_MASK),
                           label="address")
            rec = rec & ~ADDR_MASK | ea
            if kind == "dropped_end":
                rec &= ~_KID_BITS
            page[at] = rec
            why = (f"an access ends at {ea + size:#x}, past the "
                   f"manifest's mem_size {mem_size:#x}")
        return f"corrupt capture page {STREAM_QUAD}[{index}]: {why}"

    bad, want = _edit(clean, index, edit)
    with tempfile.TemporaryDirectory() as tmp:
        for cache, open_reader in _readers(bad, tmp).items():
            for name, route in ROUTES.items():
                peak, exc = _peak(route, open_reader)
                assert exc is not None, (cache, name)
                assert str(exc) == want, (cache, name)
                assert peak < clean_peaks[cache, name] + SLACK, (cache, name)
