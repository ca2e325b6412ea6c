import pickle

import pytest

from repro.cpu.config import CoreConfig, default_latencies, op_class
from repro.config import MachineConfig
from repro.cpu.machine import Machine
from repro.isa import instructions as ins
from repro.isa.program import ProgramBuilder


def test_machine_wiring():
    machine = Machine()
    assert machine.core.phys is machine.phys
    assert machine.core.hierarchy is machine.hierarchy
    assert machine.walker.pwc is machine.pwc
    assert machine.walker.hierarchy is machine.hierarchy
    assert len(machine.contexts) == 2


def test_machine_config_applies():
    config = MachineConfig(core=CoreConfig(num_contexts=1, rob_size=32))
    machine = Machine(config)
    assert len(machine.contexts) == 1
    assert machine.contexts[0].rob.capacity == 32


def test_run_stops_when_idle():
    machine = Machine()
    cycles = machine.run(1000)
    assert cycles == 0


def test_run_until_predicate():
    machine = Machine()
    machine.contexts[0].load_program(
        ProgramBuilder().li("r1", 0).li("r2", 1000)
        .label("l").addi("r1", "r1", 1).bne("r1", "r2", "l")
        .halt().build())
    machine.run(100_000,
                until=lambda m: m.contexts[0].int_regs["r1"] >= 0
                and m.cycle >= 50)
    assert machine.cycle >= 50
    assert not machine.contexts[0].finished()


def test_step_advances_cycle():
    machine = Machine()
    machine.step(5)
    assert machine.cycle == 5


def test_op_class_mapping():
    assert op_class(ins.load("r1", "r2")) == "load"
    assert op_class(ins.fstore("r1", "f1")) == "store"
    assert op_class(ins.mul("r1", "r2", "r3")) == "mul"
    assert op_class(ins.fdiv("f1", "f2", "f3")) == "div"
    assert op_class(ins.fadd("f1", "f2", "f3")) == "fpalu"
    assert op_class(ins.beq("r1", "r2", "x")) == "branch"
    assert op_class(ins.li("r1", 0)) == "alu"
    assert op_class(ins.rdrand("r1")) == "alu"


def test_latency_table_complete_for_classes():
    latencies = default_latencies()
    for cls in ("alu", "mul", "div", "fpalu", "branch", "store"):
        assert cls in latencies


def test_latency_of_unknown_key():
    config = CoreConfig()
    with pytest.raises(KeyError):
        config.latency_of("warp-drive")


def test_subnormal_divide_takes_slow_path():
    machine = Machine()
    machine.contexts[0].load_program(
        ProgramBuilder()
        .fli("f1", 5e-320)   # subnormal operand
        .fli("f2", 2.0)
        .fdiv("f3", "f1", "f2")
        .halt().build())
    machine.run(10_000)
    slow = machine.cycle
    machine2 = Machine()
    machine2.contexts[0].load_program(
        ProgramBuilder()
        .fli("f1", 5.0).fli("f2", 2.0)
        .fdiv("f3", "f1", "f2")
        .halt().build())
    machine2.run(10_000)
    assert slow > machine2.cycle + 80


def test_run_context_to_completion():
    machine = Machine()
    machine.contexts[0].load_program(
        ProgramBuilder().li("r1", 9).halt().build())
    machine.run_context_to_completion(0)
    assert machine.contexts[0].finished()


def test_pickled_machine_resumes_like_the_original():
    """The core's derived caches (decode tables, SMT orders) are left
    out of pickles and rebuilt on load."""
    program = (ProgramBuilder().li("r1", 0).li("r2", 50)
               .label("loop").addi("r1", "r1", 1).bne("r1", "r2", "loop")
               .halt().build())
    machine = Machine()
    machine.contexts[0].load_program(program)
    machine.contexts[1].load_program(program)
    machine.run(30)
    copy = pickle.loads(pickle.dumps(machine))
    assert "_decode_tables" not in machine.core.__getstate__()
    machine.run(10_000)
    copy.run(10_000)
    assert copy.cycle == machine.cycle
    for ours, theirs in zip(copy.contexts, machine.contexts):
        assert ours.int_regs == theirs.int_regs
        assert ours.stats.as_dict() == theirs.stats.as_dict()
