"""The guest virtual machine: memory layout, program container, syscalls,
in-memory filesystem and the closure-compiling interpreter."""

from .errors import (ArithmeticFault, IllegalInstruction,
                     InstructionBudgetExceeded, MemoryFault, SyscallError,
                     VMError)
from .filesystem import (FD_STDERR, FD_STDIN, FD_STDOUT, O_RDONLY, O_WRONLY,
                         GuestFS)
from .layout import (CODE_BASE, DATA_BASE, DEFAULT_MEM_SIZE, HEAP_BASE,
                     NULL_GUARD, index_to_pc, pc_to_index)
from .machine import Machine, run_program
from .program import MAIN_IMAGE, Program, Routine

__all__ = [
    "Machine", "run_program", "Program", "Routine", "MAIN_IMAGE",
    "GuestFS", "O_RDONLY", "O_WRONLY", "FD_STDIN", "FD_STDOUT", "FD_STDERR",
    "VMError", "MemoryFault", "IllegalInstruction", "ArithmeticFault",
    "SyscallError", "InstructionBudgetExceeded",
    "CODE_BASE", "DATA_BASE", "HEAP_BASE", "NULL_GUARD", "DEFAULT_MEM_SIZE",
    "index_to_pc", "pc_to_index",
]
