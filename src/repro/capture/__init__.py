"""Capture once, analyze many: persistent columnar execution captures.

One instrumented execution records compressed, delta-encoded columnar
event pages (:mod:`~repro.capture.format`); every later analysis —
re-slicing tQUAD at a new interval, the gprof-sim flat profile, QUAD's
communication bindings — replays from the capture with vectorized NumPy
passes instead of re-running the VM (:mod:`~repro.capture.replay`), and
is byte-identical to a direct run.

Typical use::

    from repro.capture import CaptureReader, capture_run, replay_tquad

    capture_run(program, "run.capture", fs=fs,
                options=TQuadOptions(slice_interval=500))
    with CaptureReader("run.capture") as reader:
        report = replay_tquad(reader,
                              TQuadOptions(slice_interval=4000))
"""

#: The one chunk-size tunable for every batched replay path: the QUAD
#: drain re-batches captured record pages to this many packed records,
#: and the streaming sweep/bucket passes compact their pending page
#: chunks at the same row count.  Sourced from the paged shadow's drain
#: cap because that is the binding constraint — ``_drain``'s sort keys
#: hold a record's sequence number in a field sized for fewer than 2**18
#: records per drain — so no consumer may batch beyond it.
from ..quad.shadow import DEFAULT_RAW_CAP as PAGE_BATCH_ROWS

from .format import (CAPTURE_VERSION, CaptureError, CaptureFormatError,
                     CaptureMismatchError, STREAM_CALLS, STREAM_QUAD,
                     STREAM_TQUAD_READ, STREAM_TQUAD_WRITE, check_label,
                     check_program, library_rows_of, make_manifest,
                     program_digest)
from .pagecache import (MappedPages, PageCacheError, build_sidecar,
                        capture_digest, load_sidecar, sidecar_path)
from .reader import CaptureReader, PageCursor, StreamingCursor
from .record import CallEventRecorder, capture_run
from .replay import (REPLAY_TOOLS, ReplayBundle, replay_gprof, replay_many,
                     replay_quad, replay_tquad)
from .streaming import (MemBudget, SpillPool, cleanup_spill_dirs,
                        merge_sorted_runs, parse_mem_limit, sample_mask)
from .approx import (ApproxTQuadReplay, CountMinSketch,
                     approx_replay_tquad)
from .writer import CaptureWriter

__all__ = [
    "CAPTURE_VERSION", "CaptureError", "CaptureFormatError",
    "CaptureMismatchError", "MappedPages", "PageCacheError",
    "PAGE_BATCH_ROWS", "REPLAY_TOOLS", "ReplayBundle", "STREAM_CALLS",
    "STREAM_QUAD", "STREAM_TQUAD_READ", "STREAM_TQUAD_WRITE",
    "ApproxTQuadReplay", "CaptureReader", "CaptureWriter",
    "CallEventRecorder", "CountMinSketch", "MemBudget", "PageCursor",
    "SpillPool", "StreamingCursor",
    "approx_replay_tquad", "build_sidecar", "capture_digest",
    "capture_run", "check_label", "check_program", "cleanup_spill_dirs",
    "library_rows_of", "load_sidecar", "make_manifest",
    "merge_sorted_runs", "parse_mem_limit", "program_digest",
    "replay_gprof", "replay_many", "replay_quad", "replay_tquad",
    "sample_mask", "sidecar_path",
]
