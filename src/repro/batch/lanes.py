"""Lane-vector arithmetic engines for the batch fleet.

A *lane vector* is a plain Python list with one element per fleet
lane; element 0 always holds the leader machine's scalar value.
Vectors are treated as immutable — every operation returns a new
list — so window-boundary checkpoints can shallow-copy the taint
tables that hold them.

:class:`PurePythonOps` is the reference engine: each element is
computed with the *same Python expression* the scalar core uses
(``repro.cpu.core.Core._execute_alu``), so lane results are exact by
construction for every operand type the core can produce —
arbitrary-precision ints (``li`` places any Python int in a
register), floats, and IEEE specials.

:class:`NumpyOps` overlays a guarded ``uint64`` fast path on the
masked integer ops.  The guard falls back to the pure engine whenever
an operand leaves the ``[0, 2**64)`` range NumPy wraps correctly, the
vector is too short to amortise the array round-trip, or the op has
semantics NumPy cannot reproduce bit-for-bit (floating point, DIV's
divide-by-zero convention).  The fast path is therefore an
optimisation only — never a semantic fork.

:func:`make_ops` selects the engine: NumPy when importable, unless
the ``REPRO_NO_NUMPY`` environment variable is set (the CI leg that
proves the pure-Python fallback stays correct) or the caller asks for
a specific engine.
"""

from __future__ import annotations

import math
import os
from typing import List, Optional

MASK64 = (1 << 64) - 1

#: Binary ops with a NumPy ``uint64`` fast path: results are exact
#: under 64-bit wraparound when both operand vectors are in-range
#: ints.  DIV (zero convention) and all FP ops are excluded.
_U64_BINOPS = frozenset({"add", "sub", "and", "or", "xor",
                         "shl", "shr", "mul"})
#: Immediate ops eligible for the fast path.  ``addi``/``subi`` work
#: for any immediate (wraparound absorbs the mask); the bitwise ones
#: additionally require an in-range immediate.
_U64_IMMOPS = frozenset({"addi", "subi", "andi", "ori", "xori",
                         "shli", "shri"})
_IMM_ANY = frozenset({"addi", "subi", "shli", "shri"})


def _all_of_type(vec: List, cls: type) -> bool:
    """True when every element of *vec* has exactly type *cls* (a
    bool is not an int here), checked at C speed."""
    return set(map(type, vec)) == {cls}


def _all_u64(vec: List) -> bool:
    """True when every element of *vec* is a plain int in
    ``[0, MASK64]``: the values a 64-bit mask leaves unchanged."""
    return (_all_of_type(vec, int)
            and min(vec) >= 0 and max(vec) <= MASK64)


class PurePythonOps:
    """Elementwise lane math via the scalar core's own expressions."""

    name = "pure"

    def binop(self, op: str, a: List, b: List) -> List:
        if op == "add":
            return [(x + y) & MASK64 for x, y in zip(a, b)]
        if op == "sub":
            return [(x - y) & MASK64 for x, y in zip(a, b)]
        if op == "and":
            return [x & y for x, y in zip(a, b)]
        if op == "or":
            return [x | y for x, y in zip(a, b)]
        if op == "xor":
            return [x ^ y for x, y in zip(a, b)]
        if op == "shl":
            return [(x << (y & 63)) & MASK64 for x, y in zip(a, b)]
        if op == "shr":
            return [(x & MASK64) >> (y & 63) for x, y in zip(a, b)]
        if op == "mul":
            return [(x * y) & MASK64 for x, y in zip(a, b)]
        if op == "div":
            return [(x // y) & MASK64 if y else 0 for x, y in zip(a, b)]
        if op == "fadd":
            return [x + y for x, y in zip(a, b)]
        if op == "fsub":
            return [x - y for x, y in zip(a, b)]
        if op == "fmul":
            return [x * y for x, y in zip(a, b)]
        if op == "fdiv":
            out = []
            for x, y in zip(a, b):
                try:
                    out.append(x / y)
                except ZeroDivisionError:
                    out.append(math.inf if x > 0
                               else -math.inf if x < 0 else 0.0)
            return out
        raise ValueError(f"unknown lane binop {op!r}")

    def immop(self, op: str, a: List, imm) -> List:
        if op == "addi":
            return [(x + imm) & MASK64 for x in a]
        if op == "subi":
            return [(x - imm) & MASK64 for x in a]
        if op == "andi":
            return [x & imm for x in a]
        if op == "ori":
            return [x | imm for x in a]
        if op == "xori":
            return [x ^ imm for x in a]
        if op == "shli":
            return [(x << (imm & 63)) & MASK64 for x in a]
        if op == "shri":
            return [(x & MASK64) >> (imm & 63) for x in a]
        raise ValueError(f"unknown lane immop {op!r}")


class NumpyOps(PurePythonOps):
    """Pure engine plus a guarded ``uint64`` fast path."""

    name = "numpy"

    def __init__(self, np_module, min_lanes: int = 4):
        self._np = np_module
        #: Below this lane count the array round-trip costs more than
        #: the listcomp it replaces; fall through to the pure path.
        self.min_lanes = min_lanes

    def _as_u64(self, vec: List):
        """Vector as a uint64 array, or None when any element is not
        a plain in-range int (bools, bignums, negatives, floats all
        disqualify — the pure path owns those)."""
        if vec and not _all_u64(vec):
            return None
        return self._np.array(vec, dtype=self._np.uint64)

    def binop(self, op: str, a: List, b: List) -> List:
        if op in _U64_BINOPS and len(a) >= self.min_lanes:
            av = self._as_u64(a)
            if av is not None:
                bv = self._as_u64(b)
                if bv is not None:
                    return self._u64_binop(op, av, bv)
        return super().binop(op, a, b)

    def _u64_binop(self, op: str, av, bv) -> List:
        np = self._np
        with np.errstate(over="ignore"):
            if op == "add":
                r = av + bv
            elif op == "sub":
                r = av - bv
            elif op == "and":
                r = av & bv
            elif op == "or":
                r = av | bv
            elif op == "xor":
                r = av ^ bv
            elif op == "shl":
                r = np.left_shift(av, bv & np.uint64(63))
            elif op == "shr":
                r = np.right_shift(av, bv & np.uint64(63))
            else:  # mul
                r = av * bv
        return r.tolist()

    def immop(self, op: str, a: List, imm) -> List:
        if (op in _U64_IMMOPS and len(a) >= self.min_lanes
                and type(imm) is int
                and (op in _IMM_ANY or 0 <= imm <= MASK64)):
            av = self._as_u64(a)
            if av is not None:
                return self._u64_immop(op, av, imm)
        return super().immop(op, a, imm)

    def _u64_immop(self, op: str, av, imm: int) -> List:
        np = self._np
        with np.errstate(over="ignore"):
            if op == "addi":
                r = av + np.uint64(imm & MASK64)
            elif op == "subi":
                r = av - np.uint64(imm & MASK64)
            elif op == "andi":
                r = av & np.uint64(imm)
            elif op == "ori":
                r = av | np.uint64(imm)
            elif op == "xori":
                r = av ^ np.uint64(imm)
            elif op == "shli":
                r = np.left_shift(av, np.uint64(imm & 63))
            else:  # shri
                r = np.right_shift(av, np.uint64(imm & 63))
        return r.tolist()


def make_ops(prefer: Optional[str] = None) -> PurePythonOps:
    """Select a lane engine.

    ``prefer=None`` (the default) auto-selects: NumPy when importable
    and ``REPRO_NO_NUMPY`` is unset, pure Python otherwise.  Pass
    ``"pure"`` or ``"numpy"`` to force an engine; forcing ``"numpy"``
    raises when NumPy is genuinely unavailable.
    """
    if prefer == "pure":
        return PurePythonOps()
    if prefer not in (None, "numpy"):
        raise ValueError(f"unknown lane engine {prefer!r}")
    if prefer is None and os.environ.get("REPRO_NO_NUMPY"):
        return PurePythonOps()
    try:
        import numpy
    except ImportError:
        if prefer == "numpy":
            raise
        return PurePythonOps()
    return NumpyOps(numpy)


__all__ = ["MASK64", "NumpyOps", "PurePythonOps", "make_ops"]
