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

from repro.capture import CaptureReader, capture_run
from repro.core import TQuadOptions
from repro.core.options import StackPolicy
from repro.minic import build_program
from repro.testing.workloads import WorkloadSpec, generate_workload

from test_capture import APP

GUESTS = {
    "app": APP,
    "pointer": generate_workload(WorkloadSpec("pointer", seed=7, size=256,
                                              kernels=8, steps=2)),
}
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
    capture_run(build_program(GUESTS[guest]), buf, tools=TOOLS[tools],
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
}


@pytest.mark.parametrize("case", CASES, ids=lambda c: _key(*c))
def test_capture_pages_unchanged(case):
    assert page_digest(*case) == DIGESTS[_key(*case)]


if __name__ == "__main__":
    for case in CASES:
        print(f"    {_key(*case)!r}:\n        {page_digest(*case)!r},")
