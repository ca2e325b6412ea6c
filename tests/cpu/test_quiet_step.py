"""Differential testing for the quiet step.

``Core.step`` skips all five pipeline stages on a cycle in which
``Core._quiet`` says no stage can act, and applies only the one effect
such a cycle has (clearing the port issue flags).  These tests step
two copies of one platform in lockstep: one as shipped, one whose
predicate is patched to always answer "not quiet", so it runs every
stage on every cycle.  After every cycle the canonical digest of
``Machine.capture()`` and the metrics dump must agree.

Cases: random programs from the ``test_differential`` generator
(single context and SMT pair), interrupts posted from outside between
steps (the ``interrupt_replay`` pattern) with the context waking
exactly at ``blocked_until``, a TSX write-set-eviction abort, and a
snapshot restore in the middle of a quiet window.  A last test pins
that ``Machine.run`` and ``Machine.step`` call ``Core.step`` once per
simulated cycle.
"""

import hashlib
from unittest import mock

from hypothesis import given, settings

from repro.config import MachineConfig
from repro.cpu.config import CoreConfig
from repro.cpu.context import ContextState
from repro.cpu.core import Core
from repro.cpu.machine import Machine
from repro.cpu.traps import TrapAction, TrapHandler
from repro.isa.instructions import Opcode
from repro.isa.program import ProgramBuilder
from repro.mem.cache import CacheConfig
from repro.mem.hierarchy import HierarchyConfig
from repro.snapshot.digest import canonical_dump
from tests.cpu.test_differential import (DATA_BASE, SIBLING_BASE,
                                         _random_program)

#: The predicate as shipped (the lockstep patches the class attribute).
_QUIET = Core._quiet

#: A small ROB and small caches keep a per-cycle digest cheap; a
#: short DRAM trip still leaves a long quiet window behind every miss,
#: and the ROB fills (the front end's quiet case) far more often.
_PLATFORM = MachineConfig(
    core=CoreConfig(rob_size=24),
    hierarchy=HierarchyConfig(
        levels=(CacheConfig("L1D", size_bytes=1024, ways=2, latency=4),
                CacheConfig("L2", size_bytes=4096, ways=4, latency=12),
                CacheConfig("L3", size_bytes=16384, ways=8, latency=30)),
        dram_latency=120))


def _state(machine: Machine):
    return (machine.cycle,
            hashlib.sha256(canonical_dump(machine.capture())).hexdigest(),
            machine.metrics.dump())


def _lockstep(build, max_cycles=20_000, between=None) -> dict:
    """Build the platform twice and step both copies one cycle at a
    time until neither is busy, comparing full state after every
    cycle.  *between(machine)* runs on each copy after each cycle.
    Returns counts of the quiet steps the shipped copy took and of the
    cycles on which a blocked context was due to wake."""
    shipped, full = build(), build()
    counts = {"quiet": 0, "wakes": 0}

    def quiet(core):
        if core is full.core:
            return False
        result = _QUIET(core)
        counts["quiet"] += result
        return result

    with mock.patch.object(Core, "_quiet", quiet):
        for _ in range(max_cycles):
            if not (shipped.core.busy() or full.core.busy()):
                break
            counts["wakes"] += any(
                context.state is ContextState.BLOCKED
                and context.blocked_until == shipped.cycle
                for context in shipped.contexts)
            shipped.step()
            full.step()
            assert _state(shipped) == _state(full), \
                f"quiet step diverged at cycle {full.cycle - 1}"
            if between is not None:
                between(shipped)
                between(full)
    assert not shipped.core.busy(), "platform did not finish in budget"
    return counts


def _bare(*programs):
    def build():
        machine = Machine(_PLATFORM)
        for context, program in zip(machine.contexts, programs):
            context.load_program(program)
        return machine
    return build


@given(_random_program())
@settings(max_examples=6, deadline=None)
def test_quiet_step_matches_full_step_single_context(program):
    _lockstep(_bare(program))


@given(_random_program(), _random_program(SIBLING_BASE, rdrand=False))
@settings(max_examples=4, deadline=None)
def test_quiet_step_matches_full_step_smt(program0, program1):
    _lockstep(_bare(program0, program1))


class _InterruptHandler(TrapHandler):
    """Resumes an interrupted context after a fixed kernel cost."""

    def handle_interrupt(self, context, reason):
        return TrapAction(cost=40)


def _transmit_program():
    """Loads that miss to DRAM (quiet windows) feeding a divide and a
    multiply (the interrupt targets), twice over."""
    builder = ProgramBuilder("irq").li("r1", DATA_BASE).li("r2", 3)
    for offset in (0, 512):
        (builder.load("r3", "r1", offset)
         .fli("f1", 1.0).fli("f2", 3.0)
         .fdiv("f3", "f1", "f2")
         .mul("r4", "r3", "r2")
         .add("r5", "r4", "r4"))
    return builder.halt().build()


def test_quiet_step_with_interrupts_posted_between_steps():
    """The interrupt_replay pattern: a driver sets pending_interrupt
    between steps, once in the shadow of an executed transmit op and
    once inside a quiet window; each interrupt blocks the context,
    which must wake exactly at blocked_until."""
    program = _transmit_program()
    posted = {}

    def build():
        machine = Machine(_PLATFORM)
        machine.set_trap_handler(_InterruptHandler())
        machine.contexts[0].load_program(program)
        posted[id(machine)] = []
        return machine

    def between(machine):
        context = machine.contexts[0]
        mine = posted[id(machine)]
        if context.pending_interrupt or context.state is not \
                ContextState.RUNNING or len(mine) >= 3:
            return
        transmit_in_flight = any(
            e.instr.op in (Opcode.FDIV, Opcode.MUL)
            and e.issue_cycle is not None for e in context.rob.entries)
        quiet = _QUIET(machine.core)
        if (transmit_in_flight and not mine) or (quiet and mine):
            context.pending_interrupt = "replay-irq"
            mine.append(quiet)

    counts = _lockstep(build, between=between)
    shipped, full = posted.values()
    assert shipped == full and len(shipped) == 3
    assert any(shipped)  # at least one landed in a quiet window
    assert counts["wakes"] == 3
    assert counts["quiet"] > 0


def test_quiet_step_with_write_set_eviction_abort():
    """Flushing a transactional line between steps, inside the quiet
    window of a DRAM miss, posts an abort (txn_abort_pending) that the
    next cycle must process, not skip."""
    program = (ProgramBuilder("txn")
               .li("r1", DATA_BASE).li("r2", 1).li("r6", 0)
               .label("retry")
               .tbegin("fallback")
               .store("r1", "r2", 0)
               .load("r3", "r1", 4096)
               .add("r4", "r3", "r3")
               .tend()
               .halt()
               .label("fallback")
               .addi("r6", "r6", 1)
               .li("r7", 3)
               .blt("r6", "r7", "retry")
               .halt().build())
    machines = []

    def build():
        machine = Machine(_PLATFORM)
        machine.contexts[0].load_program(program)
        machines.append(machine)
        return machine

    def between(machine):
        context = machine.contexts[0]
        if (context.in_transaction and context.stats.txn_aborts < 2
                and machine.hierarchy.l1.contains(DATA_BASE)
                and _QUIET(machine.core)):
            machine.hierarchy.flush_line(DATA_BASE)

    _lockstep(build, between=between)
    for machine in machines:
        assert machine.contexts[0].stats.txn_aborts == 2
        assert machine.contexts[0].last_txn_abort_reason == \
            "write-set-eviction"


def test_quiet_step_across_restore_inside_quiet_window():
    """Capture on the quiet cycle right after an issue (a port flag
    still set), run on until the flags are cleared, restore, and keep
    stepping: the restored core must clear the flags again."""
    builder = ProgramBuilder("restore").li("r1", DATA_BASE)
    for offset in (0, 1024, 2048):
        builder.load("r2", "r1", offset).add("r3", "r2", "r2")
    program = builder.halt().build()
    progress = {}

    def build():
        machine = Machine(_PLATFORM)
        machine.contexts[0].load_program(program)
        progress[id(machine)] = {"snapshot": None, "age": 0, "restores": 0}
        return machine

    def between(machine):
        mine = progress[id(machine)]
        if mine["restores"]:
            return
        if mine["snapshot"] is None:
            flagged = any(port._issued_this_cycle
                          for port in machine.core.ports.ports)
            if flagged and _QUIET(machine.core):
                mine["snapshot"] = machine.capture()
            return
        mine["age"] += 1
        if mine["age"] == 5:
            machine.restore(mine["snapshot"])
            mine["restores"] += 1

    counts = _lockstep(build, between=between)
    assert [p["restores"] for p in progress.values()] == [1, 1]
    assert counts["quiet"] > 0


def test_core_step_runs_once_per_simulated_cycle():
    """Machine.run and Machine.step advance the clock only through
    Core.step, one call per cycle (fast-forward is off by default)."""
    calls = []
    step = Core.step

    def counted(core):
        calls.append(core.cycle)
        step(core)

    machine = Machine()
    machine.contexts[0].load_program(_transmit_program())
    with mock.patch.object(Core, "step", counted):
        machine.step(7)
        ran = machine.run(100_000)
    assert not machine.core.busy()
    assert calls == list(range(machine.cycle))
    assert len(calls) == 7 + ran
