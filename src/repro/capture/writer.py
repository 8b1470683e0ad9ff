"""The capture sink: the on-disk page writer.

It exposes the one-method protocol the capturing recording sinks talk
to — ``add(stream, data)`` with ``data`` the raw little-endian ``int64``
bytes of one sealed page, encoded (:func:`~repro.capture.format.encode_page`)
straight into a ZIP member, one ``page.write`` span per page.
"""

from __future__ import annotations

import zipfile
from typing import Any, BinaryIO

from ..obs import TELEMETRY
from .format import (MANIFEST_NAME, STREAM_STRIDES, encode_page, page_name)

import json


class CaptureWriter:
    """Streams sealed pages into a ZIP container as they arrive.

    The manifest is written by :meth:`finalize` as the *last* member, so
    an interrupted capture never masquerades as a complete one.  Deflate
    level 1 keeps the write cost inside the capture-overhead budget; the
    page codec (see :mod:`repro.capture.format`) does the heavy lifting
    for ratio.  Narrow per-column deltas hand deflate an eighth of the
    bytes of a tQUAD or call page where a column's deltas fit one byte,
    and a QUAD page's deltas, split into byte planes, deflate to about
    half of what its records did.
    """

    def __init__(self, file: str | BinaryIO, *, compresslevel: int = 1,
                 telemetry=TELEMETRY):
        self._zf = zipfile.ZipFile(file, "w", zipfile.ZIP_DEFLATED,
                                   compresslevel=compresslevel)
        #: Rows of every page written, per stream.
        self._page_rows: dict[str, list[int]] = {}
        self._tele = telemetry
        self.raw_bytes = 0
        self.compressed_bytes = 0
        self.finalized = False

    def add(self, stream: str, data: bytes) -> None:
        if not data:
            return
        page_rows = self._page_rows.setdefault(stream, [])
        index, rows = len(page_rows), len(data) // (8 * STREAM_STRIDES[stream])
        name = page_name(stream, index)
        with self._tele.span("page.write", cat="capture", stream=stream,
                             index=index, rows=rows) as span:
            self._zf.writestr(name, encode_page(data, stream))
            compressed = self._zf.getinfo(name).compress_size
            span.note(compressed_bytes=compressed)
        page_rows.append(rows)
        self.raw_bytes += len(data)
        self.compressed_bytes += compressed
        self._tele.count("capture/pages_written")
        self._tele.count("capture/raw_bytes", len(data))

    def stream_directory(self) -> dict[str, dict[str, Any]]:
        return {
            stream: {"pages": len(page_rows),
                     "rows": sum(page_rows),
                     "stride": STREAM_STRIDES[stream],
                     "page_rows": list(page_rows)}
            for stream, page_rows in sorted(self._page_rows.items())
        }

    def finalize(self, manifest: dict[str, Any]) -> dict[str, Any]:
        """Attach the stream directory, write the manifest, close."""
        manifest = dict(manifest)
        manifest["streams"] = self.stream_directory()
        # key order is preserved deliberately: the images mapping must
        # round-trip in routine-declaration order for byte-identical
        # replayed reports
        self._zf.writestr(MANIFEST_NAME, json.dumps(manifest, indent=1))
        self._zf.close()
        self.finalized = True
        self._tele.count("capture/compressed_bytes", self.compressed_bytes)
        if self.raw_bytes:
            self._tele.gauge("capture/compression_ratio",
                             round(self.raw_bytes
                                   / max(1, self.compressed_bytes), 3))
        return manifest

    def close(self) -> None:
        """Abandon an unfinalized capture (leaves no valid manifest)."""
        if not self.finalized:
            self._zf.close()

