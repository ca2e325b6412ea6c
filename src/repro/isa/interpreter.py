"""Sequential reference interpreter for the micro-ISA.

Executes programs one instruction at a time with no pipeline, no
speculation and no caches — the architectural golden model.  The test
suite runs random programs through both this interpreter and the
out-of-order core and demands identical final state, which pins down
the core's speculation, forwarding and recovery logic.

Memory is a flat virtual-address dictionary (the interpreter models
architecture, not microarchitecture).  ``rdtsc`` counts retired
instructions (any monotone counter is architecturally valid);
``rdrand`` draws from a seeded stream so a paired core run can be
compared when given the same seed.  TSX is modelled architecturally:
transactions either commit atomically or (on ``tabort``) roll back.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from repro.isa import registers
from repro.isa.instructions import Opcode
from repro.isa.program import Program

MASK64 = (1 << 64) - 1


def _signed(value: int) -> int:
    value &= MASK64
    return value - (1 << 64) if value >= (1 << 63) else value


class InterpreterError(Exception):
    """Raised on runaway programs (missing halt, infinite loop)."""


@dataclass
class InterpreterState:
    int_regs: Dict[str, int] = field(
        default_factory=registers.fresh_int_regfile)
    fp_regs: Dict[str, float] = field(
        default_factory=registers.fresh_fp_regfile)
    memory: Dict[int, object] = field(default_factory=dict)
    retired: int = 0

    def read(self, name: str):
        if name in self.int_regs:
            return self.int_regs[name]
        return self.fp_regs[name]

    def write(self, name: str, value):
        if name in self.int_regs:
            self.int_regs[name] = int(value) & MASK64
        else:
            self.fp_regs[name] = float(value)


class Interpreter:
    """Architectural golden model."""

    def __init__(self, program: Program, rdrand_seed: int = 0xC0FFEE,
                 memory: Optional[Dict[int, object]] = None):
        self.program = program
        self.state = InterpreterState()
        if memory:
            self.state.memory.update(memory)
        self._rdrand = random.Random(rdrand_seed)
        self._txn_checkpoint: Optional[Tuple] = None
        self._txn_fallback: Optional[int] = None

    def run(self, max_steps: int = 1_000_000) -> InterpreterState:
        pc = 0
        steps = 0
        while pc < len(self.program):
            if steps >= max_steps:
                raise InterpreterError(
                    f"no halt within {max_steps} steps")
            steps += 1
            pc = self._step(pc)
            if pc is None:
                break
        return self.state

    # ------------------------------------------------------------------

    def _step(self, pc: int) -> Optional[int]:
        state = self.state
        instr = self.program[pc]
        op = instr.op
        state.retired += 1
        a = state.read(instr.rs1) if instr.rs1 else None
        b = state.read(instr.rs2) if instr.rs2 else None
        nxt = pc + 1

        if op is Opcode.LI or op is Opcode.FLI:
            state.write(instr.rd, instr.imm)
        elif op in (Opcode.MOV, Opcode.FMOV):
            state.write(instr.rd, a)
        elif op is Opcode.ADD:
            state.write(instr.rd, a + b)
        elif op is Opcode.SUB:
            state.write(instr.rd, a - b)
        elif op is Opcode.AND:
            state.write(instr.rd, a & b)
        elif op is Opcode.OR:
            state.write(instr.rd, a | b)
        elif op is Opcode.XOR:
            state.write(instr.rd, a ^ b)
        elif op is Opcode.SHL:
            state.write(instr.rd, a << (b & 63))
        elif op is Opcode.SHR:
            state.write(instr.rd, (a & MASK64) >> (b & 63))
        elif op is Opcode.ADDI:
            state.write(instr.rd, a + instr.imm)
        elif op is Opcode.SUBI:
            state.write(instr.rd, a - instr.imm)
        elif op is Opcode.ANDI:
            state.write(instr.rd, a & instr.imm)
        elif op is Opcode.ORI:
            state.write(instr.rd, a | instr.imm)
        elif op is Opcode.XORI:
            state.write(instr.rd, a ^ instr.imm)
        elif op is Opcode.SHLI:
            state.write(instr.rd, a << (instr.imm & 63))
        elif op is Opcode.SHRI:
            state.write(instr.rd, (a & MASK64) >> (instr.imm & 63))
        elif op is Opcode.MUL:
            state.write(instr.rd, a * b)
        elif op is Opcode.DIV:
            state.write(instr.rd, a // b if b else 0)
        elif op is Opcode.FADD:
            state.write(instr.rd, a + b)
        elif op is Opcode.FSUB:
            state.write(instr.rd, a - b)
        elif op is Opcode.FMUL:
            state.write(instr.rd, a * b)
        elif op is Opcode.FDIV:
            try:
                state.write(instr.rd, a / b)
            except ZeroDivisionError:
                state.write(instr.rd,
                            math.inf if a > 0 else
                            -math.inf if a < 0 else 0.0)
        elif op in (Opcode.LOAD, Opcode.FLOAD):
            va = (a + instr.imm) & MASK64
            value = state.memory.get(va, 0)
            if op is Opcode.FLOAD:
                state.write(instr.rd, float(value))
            else:
                state.write(instr.rd, registers.to_int_word(value))
        elif op in (Opcode.STORE, Opcode.FSTORE):
            va = (a + instr.imm) & MASK64
            state.memory[va] = b
        elif op is Opcode.BEQ:
            if _signed(a) == _signed(b):
                nxt = self.program.target_index(instr)
        elif op is Opcode.BNE:
            if _signed(a) != _signed(b):
                nxt = self.program.target_index(instr)
        elif op is Opcode.BLT:
            if _signed(a) < _signed(b):
                nxt = self.program.target_index(instr)
        elif op is Opcode.BGE:
            if _signed(a) >= _signed(b):
                nxt = self.program.target_index(instr)
        elif op is Opcode.JMP:
            nxt = self.program.target_index(instr)
        elif op is Opcode.HALT:
            return None
        elif op is Opcode.NOP or op is Opcode.FENCE:
            pass
        elif op is Opcode.RDTSC:
            state.write(instr.rd, state.retired)
        elif op is Opcode.RDRAND:
            state.write(instr.rd, self._rdrand.getrandbits(64))
        elif op is Opcode.TBEGIN:
            self._txn_checkpoint = (dict(state.int_regs),
                                    dict(state.fp_regs),
                                    dict(state.memory))
            self._txn_fallback = self.program.target_index(instr)
        elif op is Opcode.TEND:
            self._txn_checkpoint = None
            self._txn_fallback = None
        elif op is Opcode.TABORT:
            if self._txn_checkpoint is not None:
                ints, fps, memory = self._txn_checkpoint
                state.int_regs = dict(ints)
                state.fp_regs = dict(fps)
                state.memory = dict(memory)
                state.int_regs["r15"] = (state.int_regs.get("r15", 0)
                                         + 1) & MASK64
                nxt = self._txn_fallback
                self._txn_checkpoint = None
                self._txn_fallback = None
        else:  # pragma: no cover
            raise InterpreterError(f"unhandled opcode {op}")
        return nxt


def run_program(program: Program, memory: Optional[Dict[int, object]]
                = None, rdrand_seed: int = 0xC0FFEE,
                max_steps: int = 1_000_000) -> InterpreterState:
    """Convenience wrapper: interpret *program* and return final
    architectural state."""
    return Interpreter(program, rdrand_seed, memory).run(max_steps)
