"""Two-pass assembler producing :class:`~repro.vm.program.Program` objects.

Pass 1 walks the token stream assigning addresses (instruction indices in
``.text``, byte offsets in ``.data``) and collecting labels, routine extents
(``.func``/``.endfunc``) and image annotations (``.image``).  Pass 2 resolves
operands against the symbol table and emits decoded instructions plus the
initialised data image.

Pseudo-instructions expanded here: ``mv``, ``neg``, ``not``, ``la``,
``call``, ``beqz``, ``bnez``, ``subi``.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

from ..isa import opcodes as oc
from ..isa.instruction import NO_PRED, Instr
from ..isa.opcodes import BY_NAME, Fmt
from ..isa.registers import RA, FREG_NAMES, XREG_NAMES
from ..vm.layout import DATA_BASE, index_to_pc
from ..vm.program import MAIN_IMAGE, Program, Routine
from .errors import AsmError
from .lexer import Line, tokenize

_PSEUDO = {"mv", "neg", "not", "la", "call", "beqz", "bnez", "subi"}

_DATA_DIRECTIVES = {".space", ".i64", ".f64", ".byte", ".i32", ".asciz",
                    ".align"}


@dataclass
class _Func:
    name: str
    start: int
    image: str


class Assembler:
    """One assembly unit.  Use :func:`assemble` for the common case."""

    def __init__(self, source: str):
        self.source = source
        self.lines = tokenize(source)
        self.symbols: dict[str, int] = {}
        self.routines: list[Routine] = []
        self.instrs: list[Instr] = []
        self.data = bytearray()
        self.entry_name: str | None = None

    # ------------------------------------------------------------- pass 1
    def _layout(self) -> None:
        section = ".text"
        text_index = 0
        image = MAIN_IMAGE
        open_func: _Func | None = None
        self._line_index: dict[int, int] = {}  # line number -> instr index
        for line in self.lines:
            if line.label is not None:
                value = (index_to_pc(text_index) if section == ".text"
                         else DATA_BASE + len(self.data))
                # `.func f` pre-registers `f`; a following `f:` label at the
                # same address is fine, anything else is a duplicate.
                if line.label in self.symbols and self.symbols[line.label] != value:
                    raise AsmError(f"duplicate label {line.label!r}",
                                   line=line.number, text=line.text)
                self.symbols[line.label] = value
            op = line.op
            if op is None:
                continue
            if op.startswith("."):
                if op in (".text", ".data"):
                    section = op
                elif op == ".global":
                    if not line.operands:
                        raise AsmError(".global needs a name",
                                       line=line.number, text=line.text)
                    if self.entry_name is None:
                        self.entry_name = line.operands[0]
                elif op == ".image":
                    image = line.operands[0] if line.operands else MAIN_IMAGE
                elif op == ".func":
                    if open_func is not None:
                        raise AsmError("nested .func", line=line.number,
                                       text=line.text)
                    if not line.operands:
                        raise AsmError(".func needs a name",
                                       line=line.number, text=line.text)
                    name = line.operands[0]
                    open_func = _Func(name=name, start=text_index, image=image)
                    if name not in self.symbols:
                        self.symbols[name] = index_to_pc(text_index)
                elif op == ".endfunc":
                    if open_func is None:
                        raise AsmError(".endfunc without .func",
                                       line=line.number, text=line.text)
                    self.routines.append(Routine(
                        name=open_func.name, start=open_func.start,
                        end=text_index, image=open_func.image))
                    open_func = None
                elif op in _DATA_DIRECTIVES:
                    if section != ".data":
                        raise AsmError(f"{op} outside .data",
                                       line=line.number, text=line.text)
                    self._emit_data(line, define_label=False)
                else:
                    raise AsmError(f"unknown directive {op}",
                                   line=line.number, text=line.text)
                continue
            # instruction: count expansion size (all pseudos expand to 1)
            self._line_index[line.number] = text_index
            text_index += 1
        if open_func is not None:
            raise AsmError(f"unterminated .func {open_func.name}",
                           line=self.lines[-1].number)

    def _emit_data(self, line: Line, *, define_label: bool) -> None:
        op = line.op
        ops = line.operands
        if op == ".align":
            n = self._int_literal(ops[0], line)
            while len(self.data) % n:
                self.data.append(0)
            if line.label is not None:
                # alignment moved the label; re-pin it
                self.symbols[line.label] = DATA_BASE + len(self.data)
            return
        if op == ".space":
            n = self._int_literal(ops[0], line)
            self.data.extend(b"\0" * n)
            return
        if op == ".i64":
            for item in ops:
                self.data.extend(struct.pack(
                    "<q", self._int_literal(item, line)))
            return
        if op == ".i32":
            for item in ops:
                self.data.extend(struct.pack(
                    "<i", self._int_literal(item, line)))
            return
        if op == ".byte":
            for item in ops:
                self.data.append(self._int_literal(item, line) & 0xFF)
            return
        if op == ".f64":
            for item in ops:
                self.data.extend(struct.pack("<d", float(item)))
            return
        if op == ".asciz":
            self.data.extend(self._string_literal(ops[0], line))
            self.data.append(0)
            return
        raise AsmError(f"unhandled data directive {op}", line=line.number)

    # ------------------------------------------------------------- pass 2
    def _emit_text(self) -> None:
        for line in self.lines:
            op = line.op
            if op is None or op.startswith("."):
                continue
            index = self._line_index[line.number]
            assert index == len(self.instrs), "pass1/pass2 drift"
            self.instrs.append(self._encode_line(line, index))

    def _encode_line(self, line: Line, index: int) -> Instr:
        op = line.op
        operands = list(line.operands)
        pred = NO_PRED
        if operands:
            # `?reg` may arrive as its own operand ("ld a0, x, ?t1") or glued
            # to the last one by whitespace ("ld a0, 0(sp) ?t1").
            if operands[-1].startswith("?"):
                pred = self._xreg(operands.pop()[1:], line)
            elif " ?" in operands[-1]:
                body, _, tail = operands[-1].rpartition(" ?")
                pred = self._xreg(tail, line)
                operands[-1] = body.strip()
        if op in _PSEUDO:
            op, operands = self._expand_pseudo(op, operands, line)
        info = BY_NAME.get(op)
        if info is None:
            raise AsmError(f"unknown mnemonic {op!r}", line=line.number,
                           text=line.text)
        try:
            ins = self._encode_operands(info, operands, line, pred)
        except (ValueError, IndexError) as err:
            raise AsmError(f"bad operands for {op}: {err}",
                           line=line.number, text=line.text) from None
        return ins

    def _expand_pseudo(self, op: str, ops: list[str],
                       line: Line) -> tuple[str, list[str]]:
        if op == "mv":
            return "addi", [ops[0], ops[1], "0"]
        if op == "neg":
            return "sub", [ops[0], "zero", ops[1]]
        if op == "not":
            return "xori", [ops[0], ops[1], "-1"]
        if op == "la":
            return "li", ops
        if op == "call":
            return "jal", ["ra", ops[0]]
        if op == "beqz":
            return "beq", [ops[0], "zero", ops[1]]
        if op == "bnez":
            return "bne", [ops[0], "zero", ops[1]]
        if op == "subi":
            neg = str(-self._int_or_symbol(ops[2], line))
            return "addi", [ops[0], ops[1], neg]
        raise AsmError(f"unknown pseudo {op}", line=line.number)

    def _encode_operands(self, info, ops: list[str], line: Line,
                         pred: int) -> Instr:
        fmt = info.fmt
        code = info.code
        src = line.text.strip()
        if fmt is Fmt.RRR:
            return Instr(code, self._xreg(ops[0], line),
                         self._xreg(ops[1], line), self._xreg(ops[2], line),
                         pred=pred, src=src)
        if fmt is Fmt.RRI:
            return Instr(code, self._xreg(ops[0], line),
                         self._xreg(ops[1], line),
                         imm=self._int_or_symbol(ops[2], line),
                         pred=pred, src=src)
        if fmt is Fmt.RI:
            return Instr(code, self._xreg(ops[0], line),
                         imm=self._li_imm(ops[1], line),
                         pred=pred, src=src)
        if fmt is Fmt.FRI:
            return Instr(code, self._freg(ops[0], line),
                         imm=float(ops[1]), pred=pred, src=src)
        if fmt is Fmt.FFF:
            return Instr(code, self._freg(ops[0], line),
                         self._freg(ops[1], line), self._freg(ops[2], line),
                         pred=pred, src=src)
        if fmt is Fmt.FF:
            return Instr(code, self._freg(ops[0], line),
                         self._freg(ops[1], line), pred=pred, src=src)
        if fmt is Fmt.RFF:
            return Instr(code, self._xreg(ops[0], line),
                         self._freg(ops[1], line), self._freg(ops[2], line),
                         pred=pred, src=src)
        if fmt is Fmt.FR:
            return Instr(code, self._freg(ops[0], line),
                         self._xreg(ops[1], line), pred=pred, src=src)
        if fmt is Fmt.RF:
            return Instr(code, self._xreg(ops[0], line),
                         self._freg(ops[1], line), pred=pred, src=src)
        if fmt is Fmt.MEM:
            data_reg = (self._freg(ops[0], line) if info.is_float
                        else self._xreg(ops[0], line))
            offset, base = self._mem_operand(ops[1], line)
            return Instr(code, data_reg, base, imm=offset, pred=pred, src=src)
        if fmt is Fmt.BRANCH:
            return Instr(code, 0, self._xreg(ops[0], line),
                         self._xreg(ops[1], line),
                         imm=self._int_or_symbol(ops[2], line),
                         pred=pred, src=src)
        if fmt is Fmt.JUMP:
            if len(ops) == 1:  # "jal label" / "j label"
                rd = RA if info.is_call else 0
                target = ops[0]
            else:
                rd = self._xreg(ops[0], line)
                target = ops[1]
            return Instr(code, rd, imm=self._int_or_symbol(target, line),
                         pred=pred, src=src)
        if fmt is Fmt.JUMPR:
            if len(ops) == 1:  # "jalr rs1"
                return Instr(code, RA, self._xreg(ops[0], line),
                             imm=0, pred=pred, src=src)
            return Instr(code, self._xreg(ops[0], line),
                         self._xreg(ops[1], line),
                         imm=self._int_or_symbol(ops[2], line)
                         if len(ops) > 2 else 0, pred=pred, src=src)
        if fmt is Fmt.NONE:
            if ops:
                raise AsmError(f"{info.name} takes no operands",
                               line=line.number, text=line.text)
            return Instr(code, pred=pred, src=src)
        raise AsmError(f"unhandled format {fmt}", line=line.number)

    # --------------------------------------------------------- primitives
    def _xreg(self, name: str, line: Line) -> int:
        r = XREG_NAMES.get(name.strip())
        if r is None:
            raise AsmError(f"not an integer register: {name!r}",
                           line=line.number, text=line.text)
        return r

    def _freg(self, name: str, line: Line) -> int:
        r = FREG_NAMES.get(name.strip())
        if r is None:
            raise AsmError(f"not a float register: {name!r}",
                           line=line.number, text=line.text)
        return r

    def _int_literal(self, text: str, line: Line) -> int:
        try:
            return int(text.strip(), 0)
        except ValueError:
            raise AsmError(f"not an integer literal: {text!r}",
                           line=line.number, text=line.text) from None

    def _int_or_symbol(self, text: str, line: Line) -> int:
        """An immediate: integer literal, symbol, or symbol±offset."""
        text = text.strip()
        try:
            return int(text, 0)
        except ValueError:
            pass
        base, sign, off = text, 1, 0
        for s in "+-":
            # split at the last +/- that isn't leading
            pos = text.rfind(s)
            if pos > 0:
                try:
                    off = int(text[pos + 1:], 0)
                except ValueError:
                    continue
                base = text[:pos]
                sign = 1 if s == "+" else -1
                break
        if base in self.symbols:
            return self.symbols[base] + sign * off
        raise AsmError(f"undefined symbol {base!r}", line=line.number,
                       text=line.text)

    def _li_imm(self, text: str, line: Line) -> int:
        """A ``li``/``la`` immediate as the int64 the register holds: a
        value in ``[2**63, 2**64)`` is its 64-bit pattern and wraps to
        negative; anything outside ``[-2**63, 2**64)`` is rejected."""
        imm = self._int_or_symbol(text, line)
        if not -(1 << 63) <= imm < (1 << 64):
            raise AsmError(f"immediate {imm} does not fit in 64 bits",
                           line=line.number, text=line.text)
        return imm - (1 << 64) if imm >= (1 << 63) else imm

    def _mem_operand(self, text: str, line: Line) -> tuple[int, int]:
        """Parse ``offset(base)`` into (offset, base register)."""
        text = text.strip()
        if not text.endswith(")") or "(" not in text:
            raise AsmError(f"bad memory operand {text!r}",
                           line=line.number, text=line.text)
        off_text, _, reg_text = text[:-1].rpartition("(")
        offset = self._int_or_symbol(off_text, line) if off_text.strip() else 0
        return offset, self._xreg(reg_text, line)

    def _string_literal(self, text: str, line: Line) -> bytes:
        text = text.strip()
        if len(text) < 2 or text[0] != '"' or text[-1] != '"':
            raise AsmError(f"bad string literal {text!r}",
                           line=line.number, text=line.text)
        body = text[1:-1]
        out = bytearray()
        i = 0
        escapes = {"n": 10, "t": 9, "0": 0, "\\": 92, '"': 34, "r": 13}
        while i < len(body):
            c = body[i]
            if c == "\\" and i + 1 < len(body):
                nxt = body[i + 1]
                if nxt not in escapes:
                    raise AsmError(f"unknown escape \\{nxt}",
                                   line=line.number, text=line.text)
                out.append(escapes[nxt])
                i += 2
            else:
                out.extend(c.encode("latin-1"))
                i += 1
        return bytes(out)

    # --------------------------------------------------------------- build
    def build(self) -> Program:
        self._layout()
        self._emit_text()
        entry = 0
        for candidate in filter(None, (self.entry_name, "_start", "main")):
            if candidate in self.symbols:
                entry = (self.symbols[candidate] - index_to_pc(0)) // 16
                break
        return Program(instrs=self.instrs, data=bytes(self.data),
                       symbols=dict(self.symbols), routines=self.routines,
                       entry=entry, source=self.source)


def assemble(source: str) -> Program:
    """Assemble ``source`` text into a loadable :class:`Program`."""
    return Assembler(source).build()
