"""Guest address-space layout.

The machine is Harvard-style: instructions live in their own segment and are
addressed by *byte* program counters (``CODE_BASE + 16 * index``) so that the
profilers see realistic instruction pointers, while loads and stores address a
single flat data memory::

    0x0000_0000 .. 0x0000_0FFF   null guard page (any access faults)
    0x0000_1000 ..               code addresses (not readable as data)
    0x0010_0000 ..               globals / static data
    0x0080_0000 ..               heap (grows up via the sbrk syscall)
    mem_size    ..               stack top (stack grows down)
"""

from __future__ import annotations

NULL_GUARD = 0x1000
CODE_BASE = 0x1000
DATA_BASE = 0x0010_0000
HEAP_BASE = 0x0080_0000

#: Default size of the flat data memory (also the initial stack top).
DEFAULT_MEM_SIZE = 1 << 25  # 32 MiB

#: Largest accepted data memory: QUAD's packed records keep an address in
#: 37 bits (``repro.quad.shadow.ADDR_MASK``), and capture replay rejects a
#: manifest ``mem_size`` above it.
MAX_MEM_SIZE = 1 << 37

#: Gap kept between the heap break and the lowest expected stack extent.
HEAP_STACK_GUARD = 1 << 16


def pc_to_index(pc: int) -> int:
    """Convert a byte program counter to an instruction index."""
    return (pc - CODE_BASE) >> 4


def index_to_pc(index: int) -> int:
    """Convert an instruction index to a byte program counter."""
    return CODE_BASE + (index << 4)
