"""The capture sink: the on-disk page writer.

It exposes the one-method protocol the capturing recording sinks talk
to — ``add(stream, data)`` with ``data`` the raw little-endian ``int64``
bytes of one sealed page, written straight to a ZIP member.
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
    level 1 keeps the write cost inside the capture-overhead budget;
    delta encoding (see :mod:`repro.capture.format`) does the heavy
    lifting for ratio.
    """

    def __init__(self, file: str | BinaryIO, *, compresslevel: int = 1,
                 telemetry=TELEMETRY):
        self._zf = zipfile.ZipFile(file, "w", zipfile.ZIP_DEFLATED,
                                   compresslevel=compresslevel)
        self._pages: dict[str, int] = {}
        self._rows: dict[str, int] = {}
        self._tele = telemetry
        self.raw_bytes = 0
        self.compressed_bytes = 0
        self.finalized = False

    def add(self, stream: str, data: bytes) -> None:
        if not data:
            return
        stride = STREAM_STRIDES[stream]
        index = self._pages.get(stream, 0)
        name = page_name(stream, index)
        self._zf.writestr(name, encode_page(data, stride))
        self._pages[stream] = index + 1
        self._rows[stream] = (self._rows.get(stream, 0)
                              + len(data) // (8 * stride))
        self.raw_bytes += len(data)
        self.compressed_bytes += self._zf.getinfo(name).compress_size
        self._tele.count("capture/pages_written")
        self._tele.count("capture/raw_bytes", len(data))

    def stream_directory(self) -> dict[str, dict[str, int]]:
        return {
            stream: {"pages": self._pages[stream],
                     "rows": self._rows[stream],
                     "stride": STREAM_STRIDES[stream]}
            for stream in sorted(self._pages)
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

