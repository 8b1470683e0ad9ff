"""Internal call stack, rebuilt dynamically during execution.

Run-time instrumentation has no static call graph, so tQUAD maintains its own
call stack (paper §IV-A: "an internal call stack data structure is dynamically
created and maintained").  Frames are pushed by routine-entry analysis calls
and popped when a ``ret`` instruction is observed.

tQUAD "ignores the functions which are not in the main image file": a library
frame does not become a kernel of its own — its memory accesses are
attributed to the innermost main-image caller — but it still occupies a stack
slot so that call/return pairing stays intact.  The *exclude libraries*
option additionally drops accesses made while inside a library frame.
"""

from __future__ import annotations

from ..vm.program import MAIN_IMAGE


class CallStack:
    """Attribution call stack.

    Attributes kept O(1)-fresh for the per-access hot path:

    * ``current_kernel`` — the main-image function accesses attribute to
      (or the library routine's own name when nothing from the main image
      is below it, e.g. ``_start``);
    * ``in_library`` — whether the topmost frame is library code.
    """

    __slots__ = ("_frames", "current_kernel", "in_library",
                 "max_depth", "underflows", "exclude_library_accesses",
                 "mark_library", "rec_id", "_intern_ids", "interned_names")

    def __init__(self, *, exclude_library_accesses: bool = False,
                 mark_library: bool = False) -> None:
        # each frame: (attributed kernel name, frame-is-library, rec_id at
        # the time this frame is on top) — carrying rec_id in the frame lets
        # enter/ret restore it without re-interning the kernel name
        self._frames: list[tuple[str, bool, int]] = []
        self.current_kernel: str | None = None
        self.in_library = False
        self.max_depth = 0
        self.underflows = 0
        # Recording support: ``rec_id`` is the interned integer id of the
        # kernel that a memory access *right now* should attribute to, or -1
        # when it should be dropped (no kernel yet, or inside a library frame
        # with ``exclude_library_accesses`` set).  Recording profilers embed
        # ``rec_id`` into flat buffers instead of the name, keeping the hot
        # path string-free; ``interned_names[id]`` recovers the name at
        # flush time.
        #
        # With ``mark_library`` set, accesses made inside library frames
        # carry ``-2 - kernel_id`` instead of the bare kernel id: the flush
        # (and capture replay) folds them back into the caller's kernel, but
        # the marker survives in captured pages, so one capture can serve
        # both library-inclusion views by a column mask (see
        # :mod:`repro.capture.replay`).  -1 keeps meaning "drop".
        self.exclude_library_accesses = exclude_library_accesses
        self.mark_library = mark_library
        self.rec_id = -1
        self._intern_ids: dict[str, int] = {}
        self.interned_names: list[str] = []

    def intern(self, name: str) -> int:
        """The stable integer id for ``name`` (allocating on first use)."""
        i = self._intern_ids.get(name)
        if i is None:
            i = self._intern_ids[name] = len(self.interned_names)
            self.interned_names.append(name)
        return i

    def enter(self, name: str, image: str) -> None:
        """Routine-entry event (the paper's ``EnterFC`` analysis routine)."""
        frames = self._frames
        is_lib = image != MAIN_IMAGE
        if is_lib and frames:
            # a library frame attributes to the caller's kernel, whose id
            # the caller's frame already carries (unless excluded)
            kernel = frames[-1][0]
            if self.exclude_library_accesses:
                rid = -1
            else:
                rid = frames[-1][2]
                if self.mark_library and rid >= 0:
                    rid = -2 - rid
        else:
            kernel = name
            if is_lib and self.exclude_library_accesses:
                rid = -1
            elif is_lib and self.mark_library:
                rid = -2 - self.intern(name)
            else:
                rid = self.intern(name)
        frames.append((kernel, is_lib, rid))
        self.current_kernel = kernel
        self.in_library = is_lib
        self.rec_id = rid
        depth = len(frames)
        if depth > self.max_depth:
            self.max_depth = depth

    def on_ret(self) -> None:
        """Return-instruction event: pop the top frame."""
        frames = self._frames
        if not frames:
            self.underflows += 1
            return
        frames.pop()
        if frames:
            self.current_kernel, self.in_library, self.rec_id = frames[-1]
        else:
            self.current_kernel = None
            self.in_library = False
            self.rec_id = -1

    @property
    def depth(self) -> int:
        return len(self._frames)

    def frames(self) -> list[tuple[str, bool]]:
        """Snapshot of (kernel, is_library) frames, bottom first."""
        return [(kernel, is_lib) for kernel, is_lib, _ in self._frames]
