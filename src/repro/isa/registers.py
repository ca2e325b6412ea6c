"""Register file specification for the micro-ISA.

The simulator's ISA is a small RISC-style register machine with two
register classes:

* sixteen 64-bit integer registers ``r0`` .. ``r15``
* sixteen floating-point registers ``f0`` .. ``f15``

Registers are identified by their lowercase string name throughout the
code base.  This module centralises validation so the assembler, the
instruction constructors and the core all agree on what a register is.
"""

from __future__ import annotations

import math

NUM_INT_REGS = 16
NUM_FP_REGS = 16

INT_REGS = tuple(f"r{i}" for i in range(NUM_INT_REGS))
FP_REGS = tuple(f"f{i}" for i in range(NUM_FP_REGS))
ALL_REGS = INT_REGS + FP_REGS

_INT_SET = frozenset(INT_REGS)
_FP_SET = frozenset(FP_REGS)


def is_int_reg(name: str) -> bool:
    """Return ``True`` when *name* is a valid integer register."""
    return name in _INT_SET


def is_fp_reg(name: str) -> bool:
    """Return ``True`` when *name* is a valid floating-point register."""
    return name in _FP_SET


def is_reg(name: str) -> bool:
    """Return ``True`` when *name* is any valid register."""
    return name in _INT_SET or name in _FP_SET


def check_int_reg(name: str) -> str:
    """Validate *name* as an integer register and return it."""
    if not is_int_reg(name):
        raise ValueError(f"not an integer register: {name!r}")
    return name


def check_fp_reg(name: str) -> str:
    """Validate *name* as a floating-point register and return it."""
    if not is_fp_reg(name):
        raise ValueError(f"not a floating-point register: {name!r}")
    return name


def check_reg(name: str) -> str:
    """Validate *name* as a register of either class and return it."""
    if not is_reg(name):
        raise ValueError(f"not a register: {name!r}")
    return name


def fresh_int_regfile() -> dict:
    """Return a new integer register file, all registers zeroed."""
    return {name: 0 for name in INT_REGS}


def fresh_fp_regfile() -> dict:
    """Return a new floating-point register file, all registers zeroed."""
    return {name: 0.0 for name in FP_REGS}


#: What a non-finite float reads as in an integer register: x86's
#: "integer indefinite", the result ``cvttsd2si`` gives for NaN and
#: infinities.
INTEGER_INDEFINITE = 1 << 63


def to_int_word(value) -> int:
    """The 64-bit integer an integer load reads from memory word
    *value*.  Ints wrap to 64 bits, finite floats truncate toward zero
    first, and NaN or an infinity reads as :data:`INTEGER_INDEFINITE`."""
    if isinstance(value, float):
        if not math.isfinite(value):
            return INTEGER_INDEFINITE
        value = int(value)
    return value & ((1 << 64) - 1)
