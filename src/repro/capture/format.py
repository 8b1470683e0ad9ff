"""The capture container format: streams, page codec, manifest.

A *capture* is one guest execution recorded as flat columnar event
streams, persisted so analyses can be re-run without re-executing the VM
(the same split Examem and the BSC tools make between instrumentation
and offline analysis).  The container is a single ZIP file:

* ``manifest.json`` — run identity and stream directory (written last, so
  a truncated capture is detectably corrupt);
* ``pages/<stream>/<nnnnnn>`` — one member per sealed page, encoded by
  :func:`encode_page` and deflate-compressed (level 1) by the ZIP layer.
  Each member's own CRC-32 trailer detects corruption (see *Pages*).

Streams (every decoded row is ``int64`` columns):

``tquad.read`` / ``tquad.write``
    stride 4: ``(icount, incl_bytes, excl_bytes, kernel_id)`` quads — the
    exact buffers of :class:`repro.core.recording.RecordingSink`, spilled
    before aggregation.  ``kernel_id`` indexes the manifest's ``kernels``
    table; -1 = dropped access, and ``-2 - id`` marks an access made inside
    a library frame attributed to kernel ``id`` (``options.library_rows``
    says whether a capture carries such markers).
``calls``
    stride 2: ``(icount, routine_id)`` for routine entries and
    ``(icount, -1)`` for returns.  ``routine_id`` indexes the manifest's
    ``routines`` table of ``(name, image)`` pairs.
``quad.raw``
    stride 1: the packed records of
    :class:`repro.quad.shadow.PagedQuadSink` (kernel-interned accesses
    plus negative SP markers), one page per sink drain.

Pages (format 2).  Every page member is an 8-byte header (the layout
code, then, for the delta layout, one width code per column, then
zeros), a body, and a 4-byte trailer: the CRC-32 of header and body.
The page CRC checks what the writer encoded, so a member rewritten with
a fresh ZIP CRC still fails.  Readers check it instead of the ZIP
CRC-32, which covers the same inflated bytes (:func:`read_page`).

* ``LAYOUT_DELTAS`` (``tquad.*``, ``calls``): the first row as ``int64``,
  then each column's row-to-row deltas (int64 wraparound), column after
  column, each in the narrowest of ``int8``/``int16``/``int32``/``int64``
  that holds that column's deltas on this page.  Icounts grow by a few
  instructions per row and byte counts and ids barely move, so most
  columns take one byte a row where a raw row takes eight.
* ``LAYOUT_RECORDS`` (``quad.raw``): the packed records as recorded.  A
  pointer chase revisits the same addresses, which deflate finds as
  repeats; their deltas look random and deflate worse.

A page's row count is not in the member: the manifest's stream directory
lists it (``page_rows``), so a member's exact size follows from its rows
and its widths, and :func:`decode_page` checks it before allocating.

Invalidation: the manifest records the program digest and the recording
options; readers must reject replays whose program or options are
incompatible (see :func:`check_program`, and the per-tool validation in
:mod:`repro.capture.replay`).
"""

from __future__ import annotations

import hashlib
import struct
import zipfile
import zlib
from typing import Any

import numpy as np

from ..obs import TELEMETRY

#: Container format version (bumped on incompatible layout changes).
CAPTURE_VERSION = 2

#: Manifest member name inside the ZIP container.
MANIFEST_NAME = "manifest.json"

STREAM_TQUAD_READ = "tquad.read"
STREAM_TQUAD_WRITE = "tquad.write"
STREAM_CALLS = "calls"
STREAM_QUAD = "quad.raw"

#: Row width (int64 columns) per stream.
STREAM_STRIDES = {
    STREAM_TQUAD_READ: 4,
    STREAM_TQUAD_WRITE: 4,
    STREAM_CALLS: 2,
    STREAM_QUAD: 1,
}

#: Page layouts (the first header byte of every page member).
LAYOUT_RECORDS = 0
LAYOUT_DELTAS = 1

#: The layout each stream's pages are written in.
STREAM_LAYOUTS = {
    STREAM_TQUAD_READ: LAYOUT_DELTAS,
    STREAM_TQUAD_WRITE: LAYOUT_DELTAS,
    STREAM_CALLS: LAYOUT_DELTAS,
    STREAM_QUAD: LAYOUT_RECORDS,
}

#: Bytes of the page header: layout code, width codes, zero padding.
PAGE_HEADER = 8
#: Bytes of the page trailer: the CRC-32 of every byte before it.
PAGE_TRAILER = 4

#: Width code -> the little-endian type of one column's deltas.
DELTA_TYPES = (np.dtype("<i1"), np.dtype("<i2"), np.dtype("<i4"),
               np.dtype("<i8"))
_DELTA_RANGES = [(int(np.iinfo(t).min), int(np.iinfo(t).max))
                 for t in DELTA_TYPES]


class CaptureError(Exception):
    """Base class for capture failures."""


class CaptureFormatError(CaptureError):
    """The file is not a capture, is truncated, or is a wrong version."""


class CaptureMismatchError(CaptureError):
    """The capture exists but cannot serve the requested replay
    (different program, incompatible options, missing stream)."""


def page_name(stream: str, index: int) -> str:
    return f"pages/{stream}/{index:06d}"


# ------------------------------------------------------------- page codec
def _width_code(lo: int, hi: int) -> int:
    """The narrowest width code whose type holds ``[lo, hi]``."""
    return next(code for code, (low, high) in enumerate(_DELTA_RANGES)
                if low <= lo and hi <= high)


def _sealed(parts: list[bytes]) -> bytes:
    """``parts`` joined, then the CRC-32 of the joined bytes."""
    crc = 0
    for part in parts:
        crc = zlib.crc32(part, crc)
    return b"".join([*parts, crc.to_bytes(PAGE_TRAILER, "little")])


def encode_page(data: bytes, stream: str) -> bytes:
    """One sealed page (the raw little-endian ``int64`` rows of
    ``stream``) as a format-2 page member; see the module docstring."""
    layout = STREAM_LAYOUTS[stream]
    if layout == LAYOUT_RECORDS:
        return _sealed([bytes(PAGE_HEADER), data])
    stride = STREAM_STRIDES[stream]
    rows = np.frombuffer(data, dtype="<i8").reshape(-1, stride)
    # column-major deltas, so each column's min, max and narrowing read
    # contiguous memory; int64 subtraction wraps, and so does the cumsum
    # that inverts it
    deltas = np.empty((stride, max(len(rows) - 1, 0)), dtype=np.int64)
    np.subtract(rows[1:].T, rows[:-1].T, out=deltas)
    codes = [0] * stride
    if deltas.size:
        codes = [_width_code(int(lo), int(hi)) for lo, hi in
                 zip(deltas.min(axis=1), deltas.max(axis=1))]
    parts = [bytes([layout, *codes]).ljust(PAGE_HEADER, b"\0"),
             rows[:1].tobytes()]
    parts += [column.astype(DELTA_TYPES[code]).tobytes()
              for column, code in zip(deltas, codes)]
    return _sealed(parts)


def decode_page(blob: bytes, stream: str, rows: int) -> np.ndarray:
    """Invert :func:`encode_page`: the page's ``(rows, stride)`` int64
    array, ``rows`` being its ``page_rows`` entry.

    The header, the member's length (against the stream's layout,
    ``rows`` and the width codes) and the page CRC are checked before
    anything sized from them is allocated.  A records page decodes to a
    read-only view of ``blob``.
    """
    stride = STREAM_STRIDES[stream]
    layout = STREAM_LAYOUTS[stream]
    header = blob[:PAGE_HEADER]
    ncodes = stride if layout == LAYOUT_DELTAS else 0
    codes = header[1:1 + ncodes]
    if (len(header) < PAGE_HEADER or header[0] != layout
            or any(header[1 + ncodes:])):
        raise CaptureFormatError(
            f"unknown page header {header.hex()} (a {stream} page starts "
            f"with layout {layout})")
    if any(code >= len(DELTA_TYPES) for code in codes):
        raise CaptureFormatError(
            f"unknown delta width code in page header {header.hex()}")
    size = _member_size(stream, rows,
                        [DELTA_TYPES[code].itemsize for code in codes])
    if rows < 0 or len(blob) != size:
        raise CaptureFormatError(
            f"page holds {len(blob)} bytes, not the {size} of its {rows} "
            f"rows at widths {list(codes)}")
    end = size - PAGE_TRAILER
    if zlib.crc32(memoryview(blob)[:end]) != int.from_bytes(
            blob[end:], "little"):
        raise CaptureFormatError("page CRC does not match its bytes")
    if layout == LAYOUT_RECORDS:
        return np.frombuffer(blob, dtype="<i8", count=rows * stride,
                             offset=PAGE_HEADER).reshape(rows, stride)
    out = np.empty((rows, stride), dtype=np.int64)
    if not rows:
        return out
    out[0] = np.frombuffer(blob, dtype="<i8", count=stride,
                           offset=PAGE_HEADER)
    offset = PAGE_HEADER + 8 * stride
    for column, code in enumerate(codes):
        dtype = DELTA_TYPES[code]
        out[1:, column] = np.frombuffer(blob, dtype=dtype, count=rows - 1,
                                        offset=offset)
        offset += (rows - 1) * dtype.itemsize
    return np.cumsum(out, axis=0, out=out)


def _member_size(stream: str, rows: int, widths: list[int]) -> int:
    """Bytes of a ``rows``-row page member of ``stream`` whose columns
    take ``widths`` bytes a delta (a records page ignores them)."""
    stride = STREAM_STRIDES[stream]
    if STREAM_LAYOUTS[stream] == LAYOUT_RECORDS:
        body = 8 * stride * rows
    else:
        body = 8 * stride + (rows - 1) * sum(widths) if rows else 0
    return PAGE_HEADER + body + PAGE_TRAILER


def page_size_range(stream: str, rows: int) -> tuple[int, int]:
    """The smallest and largest member size of a ``rows``-row page of
    ``stream`` (every column at one byte a delta, or at eight)."""
    stride = STREAM_STRIDES[stream]
    return (_member_size(stream, rows, [1] * stride),
            _member_size(stream, rows, [8] * stride))


#: A ZIP local file header, as :mod:`zipfile` lays it out: signature,
#: versions, flags, method, time, date, CRC-32, sizes, then the lengths
#: of the file name and the extra field that follow it.
_LOCAL_HEADER = struct.Struct("<4s2B4HL2L2H")
_LOCAL_MAGIC = b"PK\x03\x04"


def _inflate(zf: zipfile.ZipFile, info: zipfile.ZipInfo) -> bytes:
    """A deflated member's bytes, inflated straight from the archive.

    The local header is checked as :meth:`zipfile.ZipFile.open` checks
    it (signature, file name), but the ZIP CRC-32 is not computed: the
    page trailer's CRC covers the same inflated bytes, and
    :func:`decode_page` checks it.  At most ``file_size + 1`` bytes are
    inflated, and the stream must end at exactly ``file_size``."""
    fp = zf.fp
    fp.seek(info.header_offset)
    head = fp.read(_LOCAL_HEADER.size)
    if len(head) != _LOCAL_HEADER.size:
        raise zipfile.BadZipFile("Truncated file header")
    fields = _LOCAL_HEADER.unpack(head)
    if fields[0] != _LOCAL_MAGIC:
        raise zipfile.BadZipFile("Bad magic number for file header")
    name = fp.read(fields[10])
    if name != info.orig_filename.encode():
        raise zipfile.BadZipFile(
            f"File name in directory {info.orig_filename!r} and header "
            f"{name!r} differ.")
    fp.seek(fields[11], 1)
    inflater = zlib.decompressobj(-15)
    blob = inflater.decompress(fp.read(info.compress_size),
                               info.file_size + 1)
    if not inflater.eof or len(blob) != info.file_size:
        raise CaptureFormatError(
            f"member does not inflate to its {info.file_size} bytes")
    return blob


def read_page(zf: zipfile.ZipFile, stream: str, index: int,
              rows: int) -> np.ndarray:
    """Inflate and decode one page member; every way a member can be
    missing or damaged is a :class:`CaptureFormatError`.  A deflated
    member is inflated by :func:`_inflate`, any other through
    :mod:`zipfile`."""
    try:
        info = zf.getinfo(page_name(stream, index))
        with TELEMETRY.span("page", cat="capture", stream=stream,
                            index=index, bytes=info.file_size):
            if info.compress_type == zipfile.ZIP_DEFLATED:
                blob = _inflate(zf, info)
            else:
                blob = zf.read(info)
            page = decode_page(blob, stream, rows)
    except (KeyError, zipfile.BadZipFile, zlib.error, EOFError,
            CaptureFormatError) as exc:
        raise CaptureFormatError(
            f"corrupt capture page {stream}[{index}]: {exc}") from None
    TELEMETRY.count("capture/inflated_bytes", len(blob))
    return page


# ----------------------------------------------------------- run identity
def program_digest(program) -> str:
    """A stable content hash of a guest binary (code, data, routine
    table, entry point) — the capture invalidation key."""
    h = hashlib.sha256()
    h.update(program.code_bytes)
    h.update(len(program.data).to_bytes(8, "little"))
    h.update(bytes(program.data))
    for r in program.routines:
        h.update(f"{r.name}\x00{r.image}\x00{r.start}\x00{r.end}\n"
                 .encode())
    h.update(program.entry.to_bytes(8, "little"))
    return h.hexdigest()


def make_manifest(*, program_sha: str, label: str, grain: int, stack: str,
                  exclude_libraries: bool, total_instructions: int,
                  exit_code: int, images: dict[str, str],
                  kernels: list[str], mem_size: int,
                  tools: list[str] | tuple[str, ...] = (),
                  quad_kernels: list[str] | None = None,
                  routines: list[tuple[str, str]] | None = None,
                  prefetches_skipped: int = 0,
                  library_rows: str | None = None) -> dict[str, Any]:
    """Assemble the manifest (stream directory is added by the writer).

    ``library_rows`` describes how library-frame accesses appear in the
    tQUAD streams: ``"marked"`` (kernel ids carry the ``-2 - id`` library
    marker, so replays can serve either library-inclusion view),
    ``"dropped"`` (recorded under ``--exclude-libs``; the rows are gone),
    or ``"merged"`` (pre-marker captures: library rows are indistinguishable
    from their caller's own).  Defaults from ``exclude_libraries`` to what
    the current recording sinks produce.
    """
    if library_rows is None:
        library_rows = "dropped" if exclude_libraries else "marked"
    return {
        "format": CAPTURE_VERSION,
        "kind": "capture",
        "program_sha256": program_sha,
        "label": label,
        "tools": sorted(tools),
        "options": {
            "grain": grain,
            "stack": stack,
            "exclude_libraries": exclude_libraries,
            "library_rows": library_rows,
        },
        "total_instructions": total_instructions,
        "exit_code": exit_code,
        "images": dict(images),
        "kernels": list(kernels),
        "quad_kernels": list(quad_kernels or []),
        "routines": [list(r) for r in (routines or [])],
        "mem_size": mem_size,
        "prefetches_skipped": prefetches_skipped,
    }


def library_rows_of(manifest: dict[str, Any]) -> str:
    """How library-frame accesses appear in a capture's tQUAD streams
    (``"marked"`` / ``"dropped"`` / ``"merged"``; pre-marker captures
    default to ``"merged"``)."""
    return manifest.get("options", {}).get("library_rows", "merged")


def require_tool(manifest: dict[str, Any], tool: str) -> None:
    """Reject a replay for a tool whose streams were never captured."""
    tools = manifest.get("tools", [])
    if tool not in tools:
        have = ", ".join(tools) or "none"
        raise CaptureMismatchError(
            f"capture does not include the {tool!r} streams (captured "
            f"tools: {have}); re-record with {tool} enabled")


def check_program(manifest: dict[str, Any], program) -> None:
    """Reject a replay against a different binary than was captured."""
    want = manifest.get("program_sha256")
    got = program_digest(program)
    if want != got:
        raise CaptureMismatchError(
            f"capture was recorded for a different program "
            f"(captured {str(want)[:12]}…, requested {got[:12]}…); "
            f"re-record the capture")


def check_label(manifest: dict[str, Any], expected: str) -> None:
    """Reject a replay whose capture was recorded for a different
    workload identity.

    The program digest covers only the binary; guest presets that differ
    solely in workspace *data* (equal sizes, different seeds) compile to
    the same ``program_sha256``, so a label mismatch is the only signal
    that a capture belongs to a different preset.  Unlabelled captures
    (and empty expectations) are accepted for compatibility.
    """
    recorded = manifest.get("label", "")
    if expected and recorded and recorded != expected:
        raise CaptureMismatchError(
            f"capture was recorded for workload {recorded!r}, not "
            f"{expected!r} (same binary, different input data); "
            f"re-record the capture for {expected!r}")
