"""Pinned capture pages: the exact rows and page boundaries of every stream.

Replays only see a capture's rows, so a change that moves a row or a page
boundary can keep every replayed report identical and still change what
page-sampled replays (``approx_replay_tquad`` samples rows by seed, stream
and page) and the fused page cache read.  Each digest below is a SHA-256
over (stream, page index, decoded page bytes) of one capture, and any
change to them is a change to the capture format.

Regenerate (only for a deliberate format change), from ``tests/unit``::

    PYTHONPATH=../../src python test_capture_pages.py
"""

from __future__ import annotations

import hashlib
import io

import pytest

from repro.asmkit import assemble
from repro.capture import CaptureReader, capture_run
from repro.core import TQuadOptions
from repro.core.options import StackPolicy
from repro.minic import build_program
from repro.testing.workloads import WorkloadSpec, generate_workload

from test_capture import APP

#: An assembly guest pinning the superblock optimiser's edge cases: an
#: 8-byte access through a misaligned base that is live into its trace,
#: negative sp offsets (so excl bytes occur), a base register rewritten
#: mid-trace (``t0``) and a call whose routine-entry analysis runs
#: mid-trace.
EDGES = """
.data
buf: .space 512
.text
.func main
main:
    addi sp, sp, -32
    la s0, buf
    addi s1, s0, 3
    li s2, 0
    li s3, 40
    j test
body:
    sd s2, 0(s1)
    ld t1, 8(s1)
    lw t5, 17(s1)
    sd t1, -8(sp)
    ld t2, -8(sp)
    sw t2, -12(sp)
    lbu t3, 5(s0)
    addi t0, s0, 64
    sd t2, 0(t0)
    sh t3, 9(t0)
    ld t0, 0(t0)
    jal helper
    sd t2, 24(s0)
    sb t0, -20(sp)
    addi s2, s2, 1
test:
    blt s2, s3, body
    addi sp, sp, 32
    halt
.endfunc
.func helper
helper:
    addi sp, sp, -16
    sd ra, 8(sp)
    ld t4, 32(s0)
    add t4, t4, t1
    sd t4, 40(s0)
    sd t4, -8(sp)
    ld ra, 8(sp)
    addi sp, sp, 16
    ret
.endfunc
"""

GUESTS = {
    "app": APP,
    "pointer": generate_workload(WorkloadSpec("pointer", seed=7, size=256,
                                              kernels=8, steps=2)),
    "edges": EDGES,
}
#: How each guest's source becomes a program (MiniC unless named here).
BUILD = {"edges": assemble}
TOOLS = {"all": ("tquad", "gprof", "quad"), "tquad": ("tquad",)}
GRAINS = (64, 5000)
STACKS = (StackPolicy.BOTH, StackPolicy.EXCLUDE)

CASES = [(guest, tools, grain, stack)
         for guest in GUESTS for tools in TOOLS for grain in GRAINS
         for stack in STACKS]


def _key(guest: str, tools: str, grain: int, stack: StackPolicy) -> str:
    return f"{guest}/{tools}/{grain}/{stack.value}"


def page_digest(guest: str, tools: str, grain: int,
                stack: StackPolicy) -> str:
    """SHA-256 over every stream's decoded pages, in stream and page
    order, each prefixed by its stream name, index and row count."""
    buf = io.BytesIO()
    program = BUILD.get(guest, build_program)(GUESTS[guest])
    capture_run(program, buf, tools=TOOLS[tools],
                options=TQuadOptions(slice_interval=grain, stack=stack))
    buf.seek(0)
    h = hashlib.sha256()
    with CaptureReader(buf, page_cache=False) as reader:
        for stream in sorted(reader.streams):
            for index, page in enumerate(reader.pages(stream)):
                h.update(f"{stream}:{index}:{page.shape[0]}\n".encode())
                h.update(page.tobytes())
    return h.hexdigest()


DIGESTS = {
    'app/all/64/both':
        'eb12ec4f17f4978d683d8259c3e16da039329f882e8085dd014b7de338e55a2b',
    'app/all/64/exclude':
        '6348b7d47e01629e8334df60b2e9ca0ab63aa2c2b42eeb244c5c713d0fde39f9',
    'app/all/5000/both':
        'eb12ec4f17f4978d683d8259c3e16da039329f882e8085dd014b7de338e55a2b',
    'app/all/5000/exclude':
        '6348b7d47e01629e8334df60b2e9ca0ab63aa2c2b42eeb244c5c713d0fde39f9',
    'app/tquad/64/both':
        '7613649d0993dae95bdaaa6f3376feb236cdac269a117221711a11c3e5b49ac0',
    'app/tquad/64/exclude':
        'ac97a14183ade14ec72484d83c8b4de5e07560ac26f9c9e353e507c3e43cc5ba',
    'app/tquad/5000/both':
        '0c7c5e277565ad7ed47d808a548610b5b51044023073687280915d7e54021032',
    'app/tquad/5000/exclude':
        '204a245a8b555635793320d8dc2408a1ba5529c994764f8c5433724352a9131f',
    'pointer/all/64/both':
        '4a2d56147ea78477d9cf38f5b9107166bdf6d073350c1823e70547aca9364c6e',
    'pointer/all/64/exclude':
        'd77ececd8d2b30fc8ee691718faf2d0b82d9ca1689ce0f95d585959ae87ed23a',
    'pointer/all/5000/both':
        '4a2d56147ea78477d9cf38f5b9107166bdf6d073350c1823e70547aca9364c6e',
    'pointer/all/5000/exclude':
        'd77ececd8d2b30fc8ee691718faf2d0b82d9ca1689ce0f95d585959ae87ed23a',
    'pointer/tquad/64/both':
        '2019e9acff964a225842bdf09206ed324cdc1ed8b285179f7afd04d3d3396585',
    'pointer/tquad/64/exclude':
        '61986159549e3f3e08d1116aa85f8805d6bb3703a7843f7c972440c0e42523c0',
    'pointer/tquad/5000/both':
        'fe5a98b41f03cae4ed1891d83006eb2ef72019d46ec66ade12825d4c56a63186',
    'pointer/tquad/5000/exclude':
        'a58407a18bb0b0f77d6ca3e76a518527e967ec61d6ecb15279525afb03563f4a',
    'edges/all/64/both':
        '3ed88ae7f1b735d77dc37576988d3b6485bb9b63d5d4c8ffa4e49abacfc10976',
    'edges/all/64/exclude':
        'c76557c64948bfd9aaab21704c4096cf33a137008d3b4679400ec8020d3837c6',
    'edges/all/5000/both':
        '3ed88ae7f1b735d77dc37576988d3b6485bb9b63d5d4c8ffa4e49abacfc10976',
    'edges/all/5000/exclude':
        'c76557c64948bfd9aaab21704c4096cf33a137008d3b4679400ec8020d3837c6',
    'edges/tquad/64/both':
        'd4f0f52bdeca5009f79462adda040671ccf121682ec146383e9227f388fbf20b',
    'edges/tquad/64/exclude':
        '5b7855bff0a022b753f2765e4ef663ccb9dc05549a5a591a0ab5ad876d7edc07',
    'edges/tquad/5000/both':
        '3875e6b22f3f925bc387de0aed4adfbf167862ec4273fe20b6e544c0f63a2b3d',
    'edges/tquad/5000/exclude':
        '4af7f226d9cbc3b5ccda9c10ac8780c9de7ae4f5c341efe178e7394ec5d188f6',
}


@pytest.mark.parametrize("case", CASES, ids=lambda c: _key(*c))
def test_capture_pages_unchanged(case):
    assert page_digest(*case) == DIGESTS[_key(*case)]


if __name__ == "__main__":
    for case in CASES:
        print(f"    {_key(*case)!r}:\n        {page_digest(*case)!r},")
