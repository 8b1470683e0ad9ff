"""Syscall layer (the "emulator" of the Pin architecture diagram).

System calls are requested with ``ecall``: the syscall number goes in ``a0``
and arguments in ``a1``–``a3`` (float arguments in ``fa0``).  Results come
back in ``a0``.  The set is deliberately minimal — just enough to run the
off-line WFS application and assorted test guests.
"""

from __future__ import annotations

import math
import struct
from typing import TYPE_CHECKING

from ..isa.registers import A_REGS
from .errors import MemoryFault, SyscallError
from .filesystem import FD_STDERR, FD_STDOUT
from .layout import NULL_GUARD

if TYPE_CHECKING:  # pragma: no cover
    from .machine import Machine

A0, A1, A2, A3 = A_REGS[0], A_REGS[1], A_REGS[2], A_REGS[3]

SYS_EXIT = 0
SYS_OPEN = 1
SYS_CLOSE = 2
SYS_READ = 3
SYS_WRITE = 4
SYS_SBRK = 5
SYS_PRINT_INT = 6
SYS_PRINT_FLOAT = 7
SYS_PRINT_STR = 8
SYS_CLOCK = 9
SYS_SEEK = 10
SYS_FSIZE = 11

_MAX_CSTR = 4096


def read_cstring(machine: "Machine", addr: int) -> str:
    """Read a NUL-terminated string from guest memory.

    A start a load could not read from (negative, in the null page, at
    or past ``mem_size``) is a :class:`MemoryFault`, as a load's would
    be; the search for the NUL stops at ``mem_size``."""
    size = machine.mem_size
    if not NULL_GUARD <= addr < size:
        # the run loop attaches the icount, as it does to a load's fault
        raise MemoryFault(f"bad access [{addr:#x}, +1)",
                          pc=machine.pc_byte())
    mem = machine.mem
    end = mem.find(b"\0", addr, min(addr + _MAX_CSTR, size))
    if end < 0:
        raise SyscallError("unterminated guest string", pc=machine.pc_byte())
    return bytes(mem[addr:end]).decode("latin-1")


class SyscallHandler:
    """Dispatches guest ``ecall`` instructions."""

    def __init__(self, machine: "Machine"):
        self.machine = machine
        self.count = 0  #: total syscalls serviced

    def call(self, index: int) -> bool:
        """Service the syscall of the ``ecall`` at instruction ``index``.
        Returns False when the guest exited."""
        m = self.machine
        # faults and errors raised below name the ecall's pc
        m.pc_index = index
        x = m.x
        num = x[A0]
        self.count += 1
        if num == SYS_EXIT:
            m.exit_code = x[A1]
            return False
        if num == SYS_WRITE:
            fd, buf, n = x[A1], x[A2], x[A3]
            m.check_range(buf, n)
            data = bytes(m.mem[buf:buf + n])
            if fd in (FD_STDOUT, FD_STDERR):
                m.stdout.extend(data)
                x[A0] = n
            else:
                x[A0] = m.fs.write(fd, data)
            return True
        if num == SYS_READ:
            fd, buf, n = x[A1], x[A2], x[A3]
            m.check_range(buf, n)
            chunk = m.fs.read(fd, n)
            if chunk is None:
                x[A0] = -1
            else:
                m.mem[buf:buf + len(chunk)] = chunk
                x[A0] = len(chunk)
            return True
        if num == SYS_OPEN:
            path = read_cstring(m, x[A1])
            x[A0] = m.fs.open(path, x[A2])
            return True
        if num == SYS_CLOSE:
            x[A0] = m.fs.close(x[A1])
            return True
        if num == SYS_SBRK:
            x[A0] = m.sbrk(x[A1])
            return True
        if num == SYS_PRINT_INT:
            m.stdout.extend(str(x[A1]).encode())
            return True
        if num == SYS_PRINT_FLOAT:
            v = m.f[0]
            text = f"{v:.6f}" if math.isfinite(v) else str(v)
            m.stdout.extend(text.encode())
            return True
        if num == SYS_PRINT_STR:
            m.stdout.extend(read_cstring(m, x[A1]).encode("latin-1"))
            return True
        if num == SYS_CLOCK:
            x[A0] = m.icount
            return True
        if num == SYS_SEEK:
            x[A0] = m.fs.seek(x[A1], x[A2])
            return True
        if num == SYS_FSIZE:
            x[A0] = m.fs.size(x[A1])
            return True
        raise SyscallError(f"unknown syscall {num}", pc=m.pc_byte())


def pack_f64(value: float) -> bytes:
    """Host helper: encode a float the way the guest stores it."""
    return struct.pack("<d", value)
