"""Reading captures back: manifest validation and column access."""

from __future__ import annotations

import json
import os
import zipfile
import zlib
from typing import Any, BinaryIO, Iterator

import numpy as np

from ..obs import TELEMETRY
from .format import (CAPTURE_VERSION, CaptureFormatError,
                     CaptureMismatchError, MANIFEST_NAME, STREAM_STRIDES,
                     page_name, page_size_range, read_page)


def _check_name_tables(manifest: dict[str, Any]) -> None:
    """Reject a repeated name in the ``kernels`` table or a repeated
    (name, image) pair in ``routines``.  Page rows key those tables by
    id, so a repeat would silently move one id's rows onto another
    entry's name (two routines may share a name across images)."""
    for key, entries in (("kernels", manifest.get("kernels", [])),
                         ("routines", map(tuple,
                                          manifest.get("routines", [])))):
        seen = set()
        for entry in entries:
            if entry in seen:
                raise CaptureFormatError(
                    f"corrupt capture manifest: {entry!r} appears twice "
                    f"in its {key!r} table")
            seen.add(entry)


def _check_stream_directory(zf: zipfile.ZipFile,
                            manifest: dict[str, Any]) -> None:
    """Reject a ``streams`` directory its ZIP members contradict.

    Readers and the sidecar builder size every page from the directory's
    ``stride`` and ``page_rows``, so each stream must be one
    :class:`~repro.capture.writer.CaptureWriter` writes, at its fixed
    stride, with exactly ``pages`` members, ``pages`` non-negative
    ``page_rows`` entries summing to ``rows``, and members whose
    uncompressed sizes lie within what their rows can encode to
    (:func:`~repro.capture.format.page_size_range`; the exact size also
    depends on the width codes inside each member, which
    :func:`~repro.capture.format.decode_page` checks).  Read from the
    central directory alone — no page is inflated."""
    streams = manifest.get("streams", {})
    if not isinstance(streams, dict):
        raise CaptureFormatError(
            "corrupt capture manifest: 'streams' is not a directory")
    sizes = {info.filename: info.file_size for info in zf.infolist()
             if info.filename.startswith("pages/")}
    for name, info in streams.items():
        if name not in STREAM_STRIDES:
            raise CaptureFormatError(
                f"corrupt capture manifest: unknown stream {name!r}")
        stride = STREAM_STRIDES[name]
        fields = info if isinstance(info, dict) else {}
        if fields.get("stride") != stride:
            raise CaptureFormatError(
                f"corrupt capture manifest: stream {name!r} stride "
                f"{fields.get('stride')!r} (its rows are {stride} wide)")
        for key in ("pages", "rows"):
            value = fields.get(key)
            if type(value) is not int or value < 0:
                raise CaptureFormatError(
                    f"corrupt capture manifest: stream {name!r} {key} "
                    f"{value!r} is not a count")
        held = [n for n in sizes if n.rpartition("/")[0] == f"pages/{name}"]
        if len(held) != fields["pages"] or set(held) != {
                page_name(name, i) for i in range(len(held))}:
            raise CaptureFormatError(
                f"corrupt capture manifest: stream {name!r} declares "
                f"{fields['pages']} pages, the archive holds {len(held)}")
        page_rows = fields.get("page_rows")
        if (not isinstance(page_rows, list)
                or len(page_rows) != fields["pages"]
                or any(type(r) is not int or r < 0 for r in page_rows)
                or sum(page_rows) != fields["rows"]):
            raise CaptureFormatError(
                f"corrupt capture manifest: stream {name!r} page_rows "
                f"do not list its {fields['pages']} pages of "
                f"{fields['rows']} rows in all")
        for index, rows in enumerate(page_rows):
            lo, hi = page_size_range(name, rows)
            if not lo <= sizes[page_name(name, index)] <= hi:
                raise CaptureFormatError(
                    f"corrupt capture manifest: stream {name!r} page "
                    f"{index} cannot hold its {rows} rows of {stride} "
                    f"columns")


class CaptureReader:
    """Random access to a capture's manifest and page streams.

    The manifest is parsed and validated exactly once, at construction,
    and the ZIP handle stays open for the reader's lifetime — replaying
    the same reader many times (multipass, sweeps) re-reads pages, never
    re-validates the container.

    Pages decode lazily — :meth:`pages` yields one ``(rows, stride)``
    array at a time so replays stay bounded in memory even for long
    runs; :meth:`column` concatenates them for streams known to be
    small (call events).  With ``cache_pages=True`` every decoded page
    is kept and served back on later passes (the analyze-many pattern:
    multipass ladders and sweep grids trade bounded memory for
    decode-once).

    Path-backed captures additionally get a *persistent* decoded-page
    sidecar (:mod:`repro.capture.pagecache`): the first open decodes
    every page once into ``<file>.pages``, and every later open —
    including forked workers — serves zero-copy read-only mmap views,
    skipping inflate + cumsum entirely.  ``page_cache`` controls it:
    ``None`` (default) auto-enables for path-backed files, ``False``
    disables (the ``--no-page-cache`` escape hatch), ``True`` requires a
    path.  ``page_cache_state`` reports what happened (``off`` / ``warm``
    / ``built`` / ``rebuilt``).  ``stats`` counts ``decoded_pages``,
    ``page_cache_hits`` (in-memory) and ``disk_cache_hits`` (sidecar),
    and each count also goes to the ``capture/*`` counter of that name.
    """

    def __init__(self, file: str | BinaryIO, *, cache_pages: bool = False,
                 page_cache: bool | None = None):
        if isinstance(file, (str, os.PathLike)) and not os.path.exists(file):
            raise CaptureFormatError(f"capture file not found: {file}")
        try:
            self._zf = zipfile.ZipFile(file, "r")
        except (zipfile.BadZipFile, OSError) as exc:
            raise CaptureFormatError(
                f"not a capture file (bad container): {exc}") from None
        self.cache_pages = cache_pages
        self._page_cache: dict[tuple[str, int], np.ndarray] = {}
        self.stats: dict[str, int] = {"decoded_pages": 0,
                                      "page_cache_hits": 0,
                                      "disk_cache_hits": 0}
        self._disk = None
        self.page_cache_state = "off"
        try:
            self.manifest: dict[str, Any] = self._read_manifest()
            path_backed = isinstance(file, (str, os.PathLike))
            if page_cache is None:
                page_cache = path_backed
            elif page_cache and not path_backed:
                raise ValueError(
                    "page_cache=True needs a path-backed capture (in-memory "
                    "captures have nowhere to persist a sidecar)")
            if page_cache:
                from . import pagecache

                self._disk, self.page_cache_state = pagecache.attach(
                    file, self._zf, self.manifest)
        except BaseException:
            self._zf.close()
            raise

    def _read_manifest(self) -> dict[str, Any]:
        """The parsed manifest, once it is a capture this build reads
        whose name tables and stream directory hold."""
        try:
            manifest = json.loads(self._zf.read(MANIFEST_NAME))
        except KeyError:
            raise CaptureFormatError(
                "not a capture file (no manifest — truncated or foreign "
                "archive)") from None
        except (ValueError, zipfile.BadZipFile, zlib.error,
                EOFError) as exc:
            raise CaptureFormatError(
                f"corrupt capture manifest: {exc}") from None
        if not isinstance(manifest, dict):
            raise CaptureFormatError(
                "corrupt capture manifest: not a JSON object")
        if manifest.get("kind") != "capture":
            raise CaptureFormatError("not a capture file (wrong kind)")
        if manifest.get("format") != CAPTURE_VERSION:
            raise CaptureFormatError(
                f"unsupported capture format version "
                f"{manifest.get('format')!r} "
                f"(this build reads version {CAPTURE_VERSION}); "
                f"re-record the capture")
        _check_name_tables(manifest)
        _check_stream_directory(self._zf, manifest)
        return manifest

    # ------------------------------------------------------------- access
    @property
    def streams(self) -> dict[str, dict[str, int]]:
        return self.manifest.get("streams", {})

    def has_stream(self, stream: str) -> bool:
        return stream in self.streams

    def require_stream(self, stream: str) -> dict[str, int]:
        info = self.streams.get(stream)
        if info is None:
            have = ", ".join(sorted(self.streams)) or "none"
            raise CaptureMismatchError(
                f"capture has no {stream!r} stream (captured streams: "
                f"{have}); re-record with the matching tool enabled")
        return info

    def page(self, stream: str, index: int, stride: int) -> np.ndarray:
        """One decoded page (cached when ``cache_pages`` is set).

        Cached arrays are shared between callers and marked read-only, so
        one decode can safely serve many grid cells.
        """
        arr = self._disk_page(stream, index, stride)
        if arr is not None:
            return arr
        key = (stream, index)
        cached = self._page_cache.get(key)
        if cached is not None:
            self.stats["page_cache_hits"] += 1
            TELEMETRY.count("capture/page_cache_hits")
            return cached
        arr = self._decode(stream, index)
        if self.cache_pages:
            arr.flags.writeable = False
            self._page_cache[key] = arr
        return arr

    def _disk_page(self, stream: str, index: int,
                   stride: int) -> np.ndarray | None:
        """The page from the sidecar, or ``None`` without one."""
        if self._disk is None:
            return None
        arr = self._disk.get(stream, index, stride)
        if arr is not None:
            self.stats["disk_cache_hits"] += 1
            TELEMETRY.count("capture/disk_cache_hits")
        return arr

    def _decode(self, stream: str, index: int) -> np.ndarray:
        """Inflate and decode one page from the ZIP, uncached."""
        arr = read_page(self._zf, stream, index,
                        self.streams[stream]["page_rows"][index])
        self.stats["decoded_pages"] += 1
        TELEMETRY.count("capture/decoded_pages")
        return arr

    def pages(self, stream: str) -> Iterator[np.ndarray]:
        info = self.require_stream(stream)
        stride = info["stride"]
        for index in range(info["pages"]):
            yield self.page(stream, index, stride)

    def column(self, stream: str) -> np.ndarray:
        """All rows of a stream as one ``(n, stride)`` array."""
        info = self.require_stream(stream)
        parts = list(self.pages(stream))
        if not parts:
            return np.empty((0, info["stride"]), dtype=np.int64)
        return np.concatenate(parts, axis=0)

    def format_stats(self) -> str:
        return (f"capture reader: {self.stats['decoded_pages']} pages "
                f"decoded, {self.stats['page_cache_hits']} cache hits, "
                f"{self.stats['disk_cache_hits']} disk hits "
                f"(page cache {self.page_cache_state}; mem cache "
                f"{'on' if self.cache_pages else 'off'})")

    def close(self) -> None:
        self._page_cache.clear()
        if self._disk is not None:
            self._disk.close()
            self._disk = None
        self._zf.close()

    def __enter__(self) -> "CaptureReader":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class PageCursor:
    """Decode-once iteration over one stream for many consumers.

    The sweep engine walks each tQUAD stream exactly once; every page it
    yields is decoded/undeltaed a single time and handed out as a
    read-only array that all grid cells slice views from.  Unlike
    ``reader.pages``, a cursor never re-reads the ZIP on later passes
    over the same page — it pins the reader's page cache on for the
    streams it serves.
    """

    def __init__(self, reader: CaptureReader, stream: str):
        self.reader = reader
        self.stream = stream

    def __iter__(self) -> Iterator[np.ndarray]:
        reader = self.reader
        if not reader.has_stream(self.stream):
            return
        info = reader.require_stream(self.stream)
        stride = info["stride"]
        for index in range(info["pages"]):
            arr = reader.page(self.stream, index, stride)
            if arr.flags.writeable:
                arr.flags.writeable = False
            yield arr

    @property
    def n_pages(self) -> int:
        if not self.reader.has_stream(self.stream):
            return 0
        return self.reader.require_stream(self.stream)["pages"]


class StreamingCursor:
    """Bounded-memory iteration over one stream's decoded pages.

    The streaming counterpart of :class:`PageCursor`: where a cursor
    pins every decoded page for decode-once reuse, a streaming cursor
    never materialises the stream.  Sidecar-backed captures yield
    zero-copy mmap views (the OS pages them in and out beneath the
    ceiling); otherwise each page decodes fresh and is touched against
    the ``budget`` as a transient that lives for one step only —
    deliberately bypassing the reader's unbounded in-memory page cache.
    """

    def __init__(self, reader: CaptureReader, stream: str, *,
                 budget=None):
        self.reader = reader
        self.stream = stream
        self.budget = budget

    def __iter__(self) -> Iterator[np.ndarray]:
        reader = self.reader
        if not reader.has_stream(self.stream):
            return
        info = reader.require_stream(self.stream)
        stride = info["stride"]
        for index in range(info["pages"]):
            arr = reader._disk_page(self.stream, index, stride)
            if arr is not None:
                yield arr
                continue
            arr = reader._decode(self.stream, index)
            arr.flags.writeable = False
            if self.budget is not None:
                self.budget.touch(arr.nbytes)
            yield arr

    @property
    def n_pages(self) -> int:
        if not self.reader.has_stream(self.stream):
            return 0
        return self.reader.require_stream(self.stream)["pages"]
