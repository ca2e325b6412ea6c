"""Differential testing for the quiescence fast-forward scheduler.

``CoreConfig.fast_forward`` lets the core jump the clock over cycles
in which no context can fetch, dispatch, complete, or retire — exactly
the cycles a MicroScope victim spends stalled behind a tuned page walk
or kernel fault handling.  The optimisation claims *bit-exactness*:
the same final cycle count, architectural state, and every statistics
counter as naive per-cycle stepping.  These tests hold it to that
claim on three workload shapes:

* Hypothesis-generated random programs (single context and 2-context
  SMT), the same generator family as tests/cpu/test_differential.py;
* the replay-attack workload itself — a control-flow victim replayed
  behind a non-present page, where fast-forward does nearly all the
  work;
* unit cases for the quiescence predicate (`next_work_cycle`) and the
  jump clamp, and a pinned case where a clamped jump lands just after
  an issuing cycle.

Every comparison includes a digest of ``Machine.capture()``, so state
that no report shows (port issue flags, ready queues, RNG streams)
must match too.
"""

import hashlib
from dataclasses import asdict, replace

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.recipes import WalkLocation, WalkTuning, replay_n_times
from repro.core.replayer import AttackEnvironment, Replayer
from repro.cpu.config import CoreConfig
from repro.config import MachineConfig
from repro.cpu.machine import Machine
from repro.isa import instructions as ins
from repro.isa.program import ProgramBuilder
from repro.reporting import machine_report
from repro.snapshot.digest import canonical_dump
from repro.victims.control_flow import setup_control_flow_victim

_DATA_REGS = [f"r{i}" for i in range(2, 10)]
_OFFSETS = [0, 8, 16, 64]
DATA_BASE = 0x0010_0000


def _machine(fast_forward: bool) -> Machine:
    return Machine(MachineConfig(
        core=CoreConfig(fast_forward=fast_forward)))


@st.composite
def _block(draw, max_len=10):
    """Straight-line block biased toward long-latency producers
    (div, loads) so the pipeline actually drains mid-program."""
    instrs = []
    for _ in range(draw(st.integers(min_value=1, max_value=max_len))):
        kind = draw(st.sampled_from(
            ["alu", "alui", "mul", "div", "div", "load", "load",
             "store"]))
        rd = draw(st.sampled_from(_DATA_REGS))
        rs1 = draw(st.sampled_from(_DATA_REGS))
        rs2 = draw(st.sampled_from(_DATA_REGS))
        offset = draw(st.sampled_from(_OFFSETS))
        if kind == "alu":
            ctor = draw(st.sampled_from([ins.add, ins.sub, ins.xor]))
            instrs.append(ctor(rd, rs1, rs2))
        elif kind == "alui":
            instrs.append(ins.addi(rd, rs1,
                                   draw(st.integers(0, 1 << 12))))
        elif kind == "mul":
            instrs.append(ins.mul(rd, rs1, rs2))
        elif kind == "div":
            instrs.append(ins.div(rd, rs1, rs2))
        elif kind == "load":
            instrs.append(ins.load(rd, "r1", offset))
        else:
            instrs.append(ins.store("r1", rs1, offset))
    return instrs


@st.composite
def _random_program(draw):
    builder = ProgramBuilder("ff-differential")
    builder.li("r1", DATA_BASE)
    for reg in _DATA_REGS:
        builder.li(reg, draw(st.integers(0, 1 << 20)))
    builder.li("r0", draw(st.integers(min_value=1, max_value=4)))
    builder.label("loop")
    for instr in draw(_block()):
        builder.emit(instr)
    builder.subi("r0", "r0", 1)
    builder.li("r13", 0)
    builder.bne("r0", "r13", "loop")
    builder.halt()
    return builder.build()


def _snapshot(machine: Machine):
    """Cycle count, architectural state, the full stats report, and a
    digest of every captured field of the platform."""
    report = asdict(machine_report(machine))
    regs = [(dict(ctx.int_regs), dict(ctx.fp_regs))
            for ctx in machine.contexts]
    digest = hashlib.sha256(canonical_dump(machine.capture())).hexdigest()
    return machine.cycle, regs, report, digest


def _run_programs(programs, fast_forward: bool):
    machine = _machine(fast_forward)
    for context_id, program in enumerate(programs):
        machine.contexts[context_id].load_program(program)
    ran = machine.run(3_000_000)
    assert all(machine.contexts[i].finished()
               for i in range(len(programs)))
    return ran, _snapshot(machine)


@given(_random_program())
@settings(max_examples=40, deadline=None)
def test_fast_forward_matches_naive_single_context(program):
    naive_ran, naive = _run_programs([program], fast_forward=False)
    fast_ran, fast = _run_programs([program], fast_forward=True)
    assert fast_ran == naive_ran
    assert fast == naive


@given(_random_program(), _random_program())
@settings(max_examples=25, deadline=None)
def test_fast_forward_matches_naive_smt(program_a, program_b):
    naive_ran, naive = _run_programs([program_a, program_b],
                                     fast_forward=False)
    fast_ran, fast = _run_programs([program_a, program_b],
                                   fast_forward=True)
    assert fast_ran == naive_ran
    assert fast == naive


def _run_replay_attack(fast_forward: bool, replays: int = 40):
    """The MicroScope shape: victim stalled behind tuned page walks
    and kernel fault handling while the module replays it."""
    rep = Replayer(AttackEnvironment.build(
        machine_config=MachineConfig(
            core=CoreConfig(fast_forward=fast_forward))))
    victim_proc = rep.create_victim_process("victim")
    victim = setup_control_flow_victim(victim_proc, secret=1,
                                       divisions=2, multiplications=2)
    recipe = rep.module.provide_replay_handle(
        victim_proc, victim.handle_va + 0x20, name="ff-replay",
        attack_function=replay_n_times(replays),
        walk_tuning=WalkTuning(upper=WalkLocation.PWC,
                               leaf=WalkLocation.DRAM),
        max_replays=10 ** 9)
    rep.launch_victim(victim_proc, victim.program)
    rep.arm(recipe)
    rep.run_until_victim_done(context_id=0, max_cycles=20_000_000)
    report = asdict(machine_report(rep.machine, rep.kernel,
                                   rep.module))
    regs = dict(rep.machine.contexts[0].int_regs)
    # The victim's enclave reaches the live machine, config included,
    # from the capture: put both runs under one config to compare state.
    machine = rep.machine
    machine.core.config = replace(machine.core.config, fast_forward=False)
    machine.config = replace(machine.config, core=machine.core.config)
    digest = hashlib.sha256(canonical_dump(machine.capture())).hexdigest()
    return machine.cycle, recipe.replays, regs, report, digest


def test_fast_forward_matches_naive_on_replay_attack():
    naive = _run_replay_attack(fast_forward=False)
    fast = _run_replay_attack(fast_forward=True)
    assert fast == naive
    assert naive[1] >= 40  # the attack really replayed


def test_next_work_cycle_none_when_work_pending():
    """With a runnable context the core must not skip anything."""
    machine = _machine(True)
    program = (ProgramBuilder("p").li("r2", 1).halt().build())
    machine.contexts[0].load_program(program)
    assert machine.core.next_work_cycle() is None
    assert machine.core.fast_forward() == 0


def test_fast_forward_idle_after_halt():
    """After every context halts there is no future deadline either:
    nothing to skip to, and run() exits on its own."""
    machine = _machine(True)
    program = (ProgramBuilder("p").li("r2", 1).halt().build())
    machine.contexts[0].load_program(program)
    machine.run(10_000)
    assert machine.contexts[0].finished()
    assert machine.core.next_work_cycle() is None


def test_fast_forward_clamps_to_limit():
    """Jumps never overshoot an explicit cycle target."""
    machine = _machine(True)
    program = (ProgramBuilder("p").li("r2", 1).halt().build())
    machine.contexts[0].load_program(program)
    machine.run(10_000)
    finish = machine.cycle
    # Block the only context far in the future; the next deadline is
    # beyond the clamp, so fast_forward stops exactly at the clamp.
    machine.contexts[0].blocked_until = finish + 1_000_000
    from repro.cpu.context import ContextState
    machine.contexts[0].state = ContextState.BLOCKED
    skipped = machine.core.fast_forward(limit=finish + 100)
    assert skipped == 100
    assert machine.cycle == finish + 100


def test_run_until_cycle_exact_under_fast_forward():
    machine = _machine(True)
    program = (ProgramBuilder("p").li("r2", 1).halt().build())
    machine.contexts[0].load_program(program)
    machine.run(10_000)
    finish = machine.cycle
    machine.contexts[0].blocked_until = finish + 10_000
    from repro.cpu.context import ContextState
    machine.contexts[0].state = ContextState.BLOCKED
    machine.run_until_cycle(finish + 777)
    assert machine.cycle == finish + 777


def test_clamped_jump_after_issue_matches_naive_snapshot():
    """A jump clamped by run_until_cycle can end right after a cycle
    that issued.  Naive stepping clears the port issue flags on the
    first empty cycle; the jump must too, or Machine.capture() (and
    every snapshot digest) differs from naive stepping."""
    program = (ProgramBuilder("div-chain")
               .li("r2", 7).li("r3", 3)
               .div("r4", "r2", "r3")
               .add("r5", "r4", "r4")
               .add("r6", "r5", "r5")
               .build())
    for cycle in range(1, 40):
        snapshots = []
        for fast_forward in (False, True):
            machine = _machine(fast_forward)
            machine.contexts[0].load_program(program)
            machine.run_until_cycle(cycle)
            snapshots.append(_snapshot(machine))
        assert snapshots[0] == snapshots[1], f"diverged at cycle {cycle}"
