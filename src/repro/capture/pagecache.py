"""Persistent decoded-page sidecars: the warm-replay fast path.

Replaying a capture pays inflate + decode (widening each column's
narrow deltas and their ``cumsum``) for every page on every pass.  That
cost is pure waste the second time around — the decoded arrays are a
deterministic function of the capture file — so the first open of a
path-backed capture writes a *sidecar* next to it
(``<name>.capture.pages``) holding every stream's decoded pages as raw
little-endian ``int64`` rows.  Later opens ``mmap`` the sidecar and serve
zero-copy read-only NumPy views: no inflate, no cumsum, and the OS page
cache (plus copy-on-write ``fork``) shares one physical copy across all
worker processes replaying the same capture.

Layout::

    MAGIC (8 bytes, b"TQPAGES1")
    header length (uint64 LE, space-padded JSON to an 8-byte boundary)
    header JSON: {"digest": ..., "streams": {name:
        {"stride": s, "pages": [[offset, rows], ...]}}}
    page data: concatenated raw int64 rows, offsets relative to data start

Invalidation is content-addressed: the header digest hashes the capture's
``program_sha256``, label, stream directory (``page_rows`` included), and
every page's ZIP CRC + sizes.  Re-capturing over the same path
(different program, different data, different options) changes the
digest, and the next open deletes and rebuilds the sidecar.  A truncated
or corrupt sidecar fails validation the same way, as does a header whose
page directory is not the capture's — the sidecar is a pure cache,
always safe to delete.  Its data region carries no checksum.

Writes are atomic (temp file in the same directory + ``os.replace``), so
concurrent builders race benignly: both produce identical bytes and the
last rename wins.
"""

from __future__ import annotations

import hashlib
import json
import mmap
import os
import tempfile
import zipfile
from pathlib import Path
from typing import Any

import numpy as np

from .format import read_page

#: Sidecar magic, bumped with the layout.
MAGIC = b"TQPAGES1"

#: Sidecar filename suffix (appended to the capture path).
SUFFIX = ".pages"

_HEADER_LEN_BYTES = 8


class PageCacheError(Exception):
    """The sidecar is missing, truncated, corrupt, or stale."""


def sidecar_path(capture_path: str | os.PathLike) -> Path:
    return Path(str(capture_path) + SUFFIX)


def capture_digest(zf: zipfile.ZipFile, manifest: dict[str, Any]) -> str:
    """Content address of the decoded pages.

    Hashes the run identity (program digest + label), the stream
    directory (each page's row count included), and each page member's
    CRC/sizes — anything that changes the decoded arrays or where a page
    ends changes the digest, so a sidecar built for a different capture
    (re-captured path, edited options) never serves.
    """
    h = hashlib.sha256()
    h.update(str(manifest.get("program_sha256", "")).encode())
    h.update(b"\x00")
    h.update(str(manifest.get("label", "")).encode())
    for name, info in sorted(manifest.get("streams", {}).items()):
        h.update(f"\n{name}:{info['stride']}:{info['pages']}:"
                 f"{info['rows']}:{info['page_rows']}".encode())
    for zi in sorted(zf.infolist(), key=lambda i: i.filename):
        if zi.filename.startswith("pages/"):
            h.update(f"\n{zi.filename}:{zi.CRC}:{zi.compress_size}:"
                     f"{zi.file_size}".encode())
    return h.hexdigest()


def _layout(manifest: dict[str, Any]) -> dict[str, dict]:
    """Per-stream ``[offset, rows]`` page directory, from the stream
    directory's ``page_rows`` (checked when the reader opened the
    capture) — the whole layout is known without decoding."""
    streams: dict[str, dict] = {}
    offset = 0
    for name, info in sorted(manifest.get("streams", {}).items()):
        stride = int(info["stride"])
        pages = []
        for rows in info["page_rows"]:
            pages.append([offset, rows])
            offset += rows * stride * 8
        streams[name] = {"stride": stride, "pages": pages}
    return streams


def build_sidecar(zf: zipfile.ZipFile, manifest: dict[str, Any],
                  dest: str | os.PathLike, digest: str) -> Path:
    """Decode every page once and write the sidecar atomically."""
    dest = Path(dest)
    streams = _layout(manifest)
    header = json.dumps({"digest": digest, "streams": streams},
                        sort_keys=True).encode()
    pad = (-(len(MAGIC) + _HEADER_LEN_BYTES + len(header))) % 8
    header += b" " * pad
    fd, tmp = tempfile.mkstemp(prefix=dest.name + ".",
                               dir=str(dest.parent or "."))
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(MAGIC)
            fh.write(len(header).to_bytes(_HEADER_LEN_BYTES, "little"))
            fh.write(header)
            for name, info in sorted(streams.items()):
                for index, (_, rows) in enumerate(info["pages"]):
                    arr = read_page(zf, name, index, rows)
                    fh.write(np.ascontiguousarray(arr, dtype="<i8")
                             .tobytes())
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, dest)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
    return dest


class MappedPages:
    """Read-only zero-copy views into one mmapped sidecar."""

    def __init__(self, path: Path, fh, mm: mmap.mmap, data_start: int,
                 streams: dict[str, dict]):
        self.path = path
        self._fh = fh
        self._mm = mm
        self._data_start = data_start
        self._streams = streams

    def get(self, stream: str, index: int,
            stride: int) -> np.ndarray | None:
        """The decoded page as an ``(n, stride)`` view, or ``None`` when
        the sidecar does not carry it (foreign stream/stride)."""
        info = self._streams.get(stream)
        if info is None or stride != info["stride"]:
            return None
        pages = info["pages"]
        if not 0 <= index < len(pages):
            return None
        offset, rows = pages[index]
        arr = np.frombuffer(self._mm, dtype="<i8", count=rows * stride,
                            offset=self._data_start + offset)
        return arr.reshape(rows, stride)

    def close(self) -> None:
        try:
            self._mm.close()
        except BufferError:
            # live views still reference the buffer; the map is released
            # when they are garbage-collected
            pass
        self._fh.close()


def load_sidecar(path: str | os.PathLike, digest: str,
                 layout: dict[str, dict]) -> MappedPages:
    """Map and validate a sidecar; raises :class:`PageCacheError` on any
    mismatch (wrong magic, torn or extended file, stale digest, a page
    directory other than ``layout``, the capture's :func:`_layout`)."""
    path = Path(path)
    try:
        fh = open(path, "rb")
    except OSError as exc:
        raise PageCacheError(f"cannot open sidecar: {exc}") from None
    try:
        size = os.fstat(fh.fileno()).st_size
        head = fh.read(len(MAGIC) + _HEADER_LEN_BYTES)
        if head[:len(MAGIC)] != MAGIC:
            raise PageCacheError("bad sidecar magic")
        hlen = int.from_bytes(head[len(MAGIC):], "little")
        data_start = len(MAGIC) + _HEADER_LEN_BYTES + hlen
        if not 0 < hlen or data_start > size:
            raise PageCacheError("implausible sidecar header length")
        try:
            header = json.loads(fh.read(hlen))
        except (ValueError, UnicodeDecodeError) as exc:
            raise PageCacheError(f"corrupt sidecar header: {exc}") from None
        if not isinstance(header, dict) or header.get("digest") != digest:
            raise PageCacheError("sidecar is stale (capture re-recorded)")
        if header.get("streams") != layout:
            raise PageCacheError(
                "sidecar page directory disagrees with the capture")
        expected = data_start + sum(
            rows * info["stride"] * 8
            for info in layout.values() for _, rows in info["pages"])
        if size != expected:
            raise PageCacheError("sidecar is truncated")
        try:
            mm = mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ)
        except (ValueError, OSError) as exc:  # zero-size/odd fs
            raise PageCacheError(f"cannot map sidecar: {exc}") from None
        return MappedPages(path, fh, mm, data_start, layout)
    except BaseException:
        fh.close()
        raise


def attach(capture_path: str | os.PathLike, zf: zipfile.ZipFile,
           manifest: dict[str, Any]) -> tuple[MappedPages | None, str]:
    """Ensure + map the sidecar for ``capture_path``.

    Returns ``(mapped, state)`` where state is ``"warm"`` (valid sidecar
    reused), ``"built"`` (first decode persisted), ``"rebuilt"`` (stale or
    corrupt sidecar deleted and rebuilt), or ``"off"`` (unbuildable —
    e.g. read-only directory; the reader falls back to ZIP decode).
    """
    side = sidecar_path(capture_path)
    digest = capture_digest(zf, manifest)
    layout = _layout(manifest)
    state = "built"
    if side.exists():
        try:
            return load_sidecar(side, digest, layout), "warm"
        except PageCacheError:
            try:
                side.unlink()
            except OSError:
                pass
            state = "rebuilt"
    try:
        build_sidecar(zf, manifest, side, digest)
        return load_sidecar(side, digest, layout), state
    except (OSError, PageCacheError):
        return None, "off"
