"""VM error types."""

from __future__ import annotations


class VMError(Exception):
    """Base class for guest execution faults."""

    def __init__(self, message: str, *, pc: int | None = None,
                 icount: int | None = None):
        super().__init__(message)
        self.pc = pc
        self.icount = icount

    def __str__(self) -> str:
        # rendered when read: ``Machine.run`` fills in the icount of a
        # fault raised without one
        ctx = ""
        if self.pc is not None:
            ctx += f" at pc={self.pc:#x}"
        if self.icount is not None:
            ctx += f" icount={self.icount}"
        return f"{self.args[0]}{ctx}"


class MemoryFault(VMError):
    """Out-of-range or null-page data access."""


class IllegalInstruction(VMError):
    """Jump outside the code segment or malformed instruction."""


class ArithmeticFault(VMError):
    """Division by zero and friends."""


class SyscallError(VMError):
    """Malformed syscall (bad number or arguments)."""


class InstructionBudgetExceeded(VMError):
    """The run exceeded ``max_instructions`` (runaway-guest backstop)."""
