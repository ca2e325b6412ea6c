"""Differential testing: the out-of-order core vs the sequential
reference interpreter.

Hypothesis generates random (but well-formed, terminating) programs;
both engines execute them; final integer/FP register state and memory
contents must agree.  This pins the core's dataflow scheduling,
speculation recovery, store-buffer forwarding, memory-order repair and
branch handling against architectural semantics.  The programs include
fences, RDRAND and divides whose operands are subnormal or zero, so the
dispatch stage's fence scan and its divider pricing are pinned too;
the SMT-pair mode runs two programs on contexts 0 and 1 at once, with
disjoint memory, and holds each to its own sequential run.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cpu.machine import Machine
from repro.isa import instructions as ins
from repro.isa.interpreter import run_program as interpret
from repro.isa.program import Program, ProgramBuilder
from repro.isa.registers import INTEGER_INDEFINITE

#: Registers the generator uses for data (r0/r1 are reserved for the
#: loop counter and memory base).
_DATA_REGS = [f"r{i}" for i in range(2, 12)]
_FP_REGS = [f"f{i}" for i in range(0, 8)]
#: Memory offsets inside a private page.
_OFFSETS = [0, 8, 16, 24, 32, 64, 128]
#: FP register values that send fdiv down its subnormal (slow) path or
#: its zero-divisor path.
_FP_SPECIALS = [0.0, -0.0, 5e-324, -1e-310, 2.2250738585072014e-308, 1e300]

# Bare-metal runs identity-map VAs to physical addresses, so the data
# page must sit inside the default 256 MiB of simulated DRAM.
DATA_BASE = 0x0010_0000
#: Context 1's data page in SMT-pair mode.
SIBLING_BASE = DATA_BASE + 0x1000


@st.composite
def _straightline_block(draw, max_len=14, rdrand=True):
    """A block of dependency-rich straight-line instructions."""
    kinds = ["alu", "alui", "mul", "div", "fp", "fdiv", "load", "store",
             "fload", "fstore", "fence"] + (["rdrand"] if rdrand else [])
    instrs = []
    for _ in range(draw(st.integers(min_value=1, max_value=max_len))):
        kind = draw(st.sampled_from(kinds))
        rd = draw(st.sampled_from(_DATA_REGS))
        rs1 = draw(st.sampled_from(_DATA_REGS))
        rs2 = draw(st.sampled_from(_DATA_REGS))
        fd = draw(st.sampled_from(_FP_REGS))
        fs1 = draw(st.sampled_from(_FP_REGS))
        fs2 = draw(st.sampled_from(_FP_REGS))
        offset = draw(st.sampled_from(_OFFSETS))
        if kind == "alu":
            ctor = draw(st.sampled_from(
                [ins.add, ins.sub, ins.xor, ins.and_, ins.or_]))
            instrs.append(ctor(rd, rs1, rs2))
        elif kind == "alui":
            ctor = draw(st.sampled_from([ins.addi, ins.subi, ins.xori]))
            instrs.append(ctor(rd, rs1,
                               draw(st.integers(0, 1 << 16))))
        elif kind == "mul":
            instrs.append(ins.mul(rd, rs1, rs2))
        elif kind == "div":
            instrs.append(ins.div(rd, rs1, rs2))
        elif kind == "fp":
            ctor = draw(st.sampled_from([ins.fadd, ins.fmul,
                                         ins.fsub]))
            instrs.append(ctor(fd, fs1, fs2))
        elif kind == "fdiv":
            instrs.append(ins.fdiv(fd, fs1, fs2))
        elif kind == "fence":
            instrs.append(ins.fence())
        elif kind == "rdrand":
            instrs.append(ins.rdrand(rd))
        elif kind == "load":
            instrs.append(ins.load(rd, "r1", offset))
        elif kind == "store":
            instrs.append(ins.store("r1", rs1, offset))
        elif kind == "fload":
            instrs.append(ins.fload(fd, "r1", offset))
        else:
            instrs.append(ins.fstore("r1", fs1, offset))
    return instrs


@st.composite
def _random_program(draw, base=DATA_BASE, rdrand=True):
    """Init + loop(block + branch) + block + halt: terminating by
    construction, with data-dependent branch behaviour inside.  *base*
    is the data page; *rdrand* allows RDRAND."""
    builder = ProgramBuilder("differential")
    builder.li("r1", base)
    for i, reg in enumerate(_DATA_REGS):
        builder.li(reg, draw(st.integers(0, 1 << 20)))
    for reg in _FP_REGS:
        builder.fli(reg, draw(st.one_of(
            st.floats(min_value=-1e6, max_value=1e6, allow_nan=False,
                      width=32),
            st.sampled_from(_FP_SPECIALS))))
    iterations = draw(st.integers(min_value=1, max_value=6))
    builder.li("r0", iterations)
    builder.label("loop")
    for instr in draw(_straightline_block(rdrand=rdrand)):
        builder.emit(instr)
    # An extra data-dependent branch inside the loop body.
    if draw(st.booleans()):
        r_a = draw(st.sampled_from(_DATA_REGS))
        r_b = draw(st.sampled_from(_DATA_REGS))
        builder.beq(r_a, r_b, "skip")
        for instr in draw(_straightline_block(max_len=4, rdrand=rdrand)):
            builder.emit(instr)
        builder.label("skip")
    builder.subi("r0", "r0", 1)
    builder.li("r13", 0)
    builder.bne("r0", "r13", "loop")
    for instr in draw(_straightline_block(max_len=6, rdrand=rdrand)):
        builder.emit(instr)
    builder.halt()
    return builder.build()


def _data(machine: Machine, base: int) -> dict:
    memory = {}
    for addr in range(base, base + 256, 8):
        value = machine.phys.read(addr)  # bare-metal identity mapping
        if value:
            memory[addr] = value
    return memory


def _run_on_core(program: Program):
    machine = Machine()
    context = machine.contexts[0]
    context.load_program(program)
    machine.run(3_000_000)
    assert context.finished(), "core did not finish the program"
    return context, _data(machine, DATA_BASE)


def _run_pair_on_core(program0: Program, program1: Program):
    machine = Machine()
    for context, program in zip(machine.contexts, (program0, program1)):
        context.load_program(program)
    machine.run(3_000_000)
    for context in machine.contexts:
        assert context.finished(), "core did not finish the program"
    return [(context, _data(machine, base)) for context, base
            in zip(machine.contexts, (DATA_BASE, SIBLING_BASE))]


def _fp_equal(x, y):
    if isinstance(x, float) and isinstance(y, float):
        if math.isnan(x) and math.isnan(y):
            return True
        return x == y
    return x == y


def _assert_matches(reference, context, core_memory):
    for reg, value in reference.int_regs.items():
        assert context.int_regs[reg] == value, f"mismatch in {reg}"
    for reg, value in reference.fp_regs.items():
        assert _fp_equal(context.fp_regs[reg], value), \
            f"mismatch in {reg}"
    for addr, value in reference.memory.items():
        assert _fp_equal(core_memory.get(addr, 0) or 0, value or 0), \
            f"memory mismatch at {addr:#x}"


@given(_random_program())
@settings(max_examples=60, deadline=None)
def test_core_matches_reference(program):
    reference = interpret(program)
    _assert_matches(reference, *_run_on_core(program))


@given(_random_program(), _random_program(SIBLING_BASE, rdrand=False))
@settings(max_examples=30, deadline=None)
def test_smt_pair_matches_reference(program0, program1):
    """Both contexts share ports, fetch and issue bandwidth; each must
    still match its own sequential run.  Only context 0 uses RDRAND:
    the core has one RDRAND stream, so a second user would interleave
    its draws."""
    references = [interpret(program0), interpret(program1)]
    for reference, (context, memory) in zip(
            references, _run_pair_on_core(program0, program1)):
        _assert_matches(reference, context, memory)


@given(_random_program())
@settings(max_examples=20, deadline=None)
def test_core_deterministic(program):
    first, _mem1 = _run_on_core(program)
    second, _mem2 = _run_on_core(program)
    assert first.int_regs == second.int_regs
    # repr, not ==: a 0/0 or inf/inf fdiv leaves NaN, which is never
    # equal to itself.
    assert repr(first.fp_regs) == repr(second.fp_regs)


# --- shrunk regressions -------------------------------------------------------


def _infinity_at_base(builder):
    """Store +inf (a zero-divisor fdiv) at DATA_BASE and let it drain."""
    builder.li("r1", DATA_BASE).fli("f0", 1.0).fli("f1", 0.0)
    builder.fdiv("f2", "f0", "f1")
    builder.fstore("r1", "f2", 0)
    builder.fence()
    return builder


def test_regression_wrong_path_int_load_of_infinity():
    """An integer load of a word holding +inf, issued only on a
    mispredicted path, used to crash the core (int(inf)) although the
    architectural path never executes it."""
    builder = _infinity_at_base(ProgramBuilder("wrong-path-load"))
    builder.li("r2", 0)
    builder.beq("r2", "r2", "done")      # taken; predicted not taken
    builder.load("r3", "r1", 0)
    builder.label("done")
    builder.halt()
    program = builder.build()
    context, _memory = _run_on_core(program)
    assert context.stats.squashed > 0
    _assert_matches(interpret(program), context, _memory)


def test_regression_int_load_of_infinity_reads_integer_indefinite():
    """Architecturally, an integer load of a non-finite word reads the
    x86 "integer indefinite" in both engines."""
    builder = _infinity_at_base(ProgramBuilder("indefinite-load"))
    builder.load("r3", "r1", 0)
    builder.halt()
    program = builder.build()
    reference = interpret(program)
    assert reference.int_regs["r3"] == INTEGER_INDEFINITE
    _assert_matches(reference, *_run_on_core(program))


def test_interpreter_detects_runaway():
    from repro.isa.interpreter import Interpreter, InterpreterError
    program = (ProgramBuilder().label("spin").jmp("spin").build())
    with pytest.raises(InterpreterError):
        Interpreter(program).run(max_steps=100)
