"""The core's probe interface (repro.cpu.probe): attach/detach
bookkeeping, dispatch order, the two callbacks that steer the
pipeline (``may_issue`` and ``on_pte_race``), the ``on_complete``
rule for faulted entries, and bit-invisibility of pure observers."""

import pytest

from repro.core.recipes import replay_n_times
from repro.core.replayer import AttackEnvironment, Replayer
from repro.cpu.machine import Machine
from repro.cpu.probe import EVENTS, IssueCounter, Probe
from repro.cpu.traps import TrapAction, TrapHandler
from repro.isa.instructions import Opcode
from repro.isa.program import ProgramBuilder
from repro.kernel.kernel import Kernel
from repro.snapshot import MachineSnapshot
from repro.snapshot.digest import state_digest
from repro.victims.control_flow import setup_control_flow_victim


class Recorder(Probe):
    """Appends ``(name, event, seq)`` to a shared log."""

    def __init__(self, name, log):
        self.name = name
        self.log = log

    def on_fetch(self, core, context, entry):
        self.log.append((self.name, "fetch", entry.seq))

    def on_issue(self, core, context, entry):
        self.log.append((self.name, "issue", entry.seq))

    def on_retire(self, core, context, entry):
        self.log.append((self.name, "retire", entry.seq))


class NoOp(Probe):
    """Implements every callback, changing nothing."""

    def on_fetch(self, core, context, entry):
        pass

    def on_decode(self, core, context, entry, sources):
        pass

    def may_issue(self, core, context, entry):
        return True

    def on_issue(self, core, context, entry):
        pass

    def on_complete(self, core, context, entry):
        pass

    def on_retire(self, core, context, entry):
        pass

    def on_squash(self, core, context, squashed, reason, trigger):
        pass

    def on_pte_race(self, core, context, entry):
        return False


def _short_program():
    return (ProgramBuilder().li("r1", 3).addi("r2", "r1", 4)
            .halt().build())


# --- attach / detach ---------------------------------------------------------


def test_attach_detach_leaves_zero_probes():
    machine = Machine()
    assert machine.core.probes == ()
    first, second = NoOp(), IssueCounter((Opcode.ADDI,))
    machine.core.attach(first)
    machine.core.attach(second)
    assert machine.core.probes == (first, second)
    machine.core.detach(first)
    machine.core.detach(second)
    assert machine.core.probes == ()
    for event in EVENTS:
        assert getattr(machine.core, "_" + event) == ()


def test_double_attach_and_unknown_detach_raise():
    core = Machine().core
    probe = NoOp()
    core.attach(probe)
    with pytest.raises(ValueError, match="already attached"):
        core.attach(probe)
    core.detach(probe)
    with pytest.raises(ValueError, match="not attached"):
        core.detach(probe)


def test_only_overridden_callbacks_are_dispatched():
    core = Machine().core
    core.attach(IssueCounter((Opcode.ADDI,)))
    assert len(core._on_issue) == 1
    for event in EVENTS:
        if event != "on_issue":
            assert getattr(core, "_" + event) == ()


def test_callbacks_run_in_attach_order():
    machine = Machine()
    log = []
    machine.core.attach(Recorder("b", log))
    machine.core.attach(Recorder("a", log))
    machine.contexts[0].load_program(_short_program())
    machine.run(10_000)
    assert log
    names = [name for name, _event, _seq in log]
    assert names == ["b", "a"] * (len(log) // 2)
    # Each event reaches both probes back to back.
    assert log[0::2] == [("b",) + rec[1:] for rec in log[1::2]]


def test_detached_probe_sees_nothing_more():
    machine = Machine()
    log = []
    probe = Recorder("x", log)
    machine.core.attach(probe)
    machine.core.detach(probe)
    machine.contexts[0].load_program(_short_program())
    machine.run(10_000)
    assert log == []


# --- may_issue ---------------------------------------------------------------


class HoldDivides(Probe):
    """Refuses FDIV issue before *release* cycle."""

    def __init__(self, release):
        self.release = release
        self.refusals = 0

    def may_issue(self, core, context, entry):
        if entry.instr.op is Opcode.FDIV and core.cycle < self.release:
            self.refusals += 1
            return False
        return True


def test_may_issue_false_holds_entry_without_consuming_a_port():
    machine = Machine()
    hold = HoldDivides(release=40)
    machine.core.attach(hold)
    program = (ProgramBuilder().fli("f0", 8.0).fli("f1", 2.0)
               .fdiv("f2", "f0", "f1").halt().build())
    machine.contexts[0].load_program(program)
    ports = machine.core.ports.ports
    machine.run_until_cycle(40)
    assert hold.refusals > 0
    # Everything but the divide issued; the held divide took no port
    # (not even a contended check) and left the divider free.
    assert machine.contexts[0].stats.issued == 3
    assert sum(p.stats.issued for p in ports) == 3
    assert sum(p.stats.contended for p in ports) == 0
    assert all(p.busy_until <= 40 for p in ports)
    machine.run(10_000)
    assert machine.contexts[0].fp_regs["f2"] == 4.0
    assert sum(p.stats.issued for p in ports) == 4


# --- on_pte_race and the on_complete rule ------------------------------------


class _FixAfter(TrapHandler):
    def __init__(self, kernel, process, va):
        self.kernel, self.process, self.va = kernel, process, va
        self.faults = 0

    def handle_page_fault(self, context, fault):
        self.faults += 1
        self.kernel.set_present(self.process, self.va, True)
        return TrapAction(cost=100)

    def handle_interrupt(self, context, reason):
        return TrapAction(cost=100)


class Racer(Probe):
    """Optionally wins the PTE race; logs completed loads."""

    def __init__(self, win, set_present):
        self.win = win
        self.set_present = set_present
        self.races = 0
        self.loads = []

    def on_pte_race(self, core, context, entry):
        self.races += 1
        if self.win:
            self.set_present()
        return self.win

    def on_complete(self, core, context, entry):
        if entry.instr.is_load:
            self.loads.append(entry.faulted)


def _race(win):
    machine = Machine()
    kernel = Kernel(machine)
    process = kernel.create_process("victim")
    data = process.alloc(4096, "data")
    process.write(data, 4242)
    kernel.set_present(process, data, False)
    handler = _FixAfter(kernel, process, data)
    machine.set_trap_handler(handler)
    racer = Racer(win, lambda: kernel.set_present(process, data, True))
    machine.core.attach(racer)
    kernel.launch(process, ProgramBuilder().li("r1", data)
                  .load("r2", "r1", 0).halt().build())
    machine.run(200_000)
    assert machine.contexts[0].int_regs["r2"] == 4242
    return handler, racer


def test_pte_race_win_lets_faulted_load_complete():
    handler, racer = _race(win=True)
    assert racer.races == 1
    assert handler.faults == 0          # the OS never saw the fault
    assert racer.loads == [False]       # completed with a value


def test_lost_race_faults_and_on_complete_sees_the_fault():
    handler, racer = _race(win=False)
    assert racer.races == 1
    assert handler.faults == 1
    # The faulted completion is delivered (faulted=True), then the
    # replayed load completes normally.
    assert racer.loads == [True, False]


# --- bit-invisibility ---------------------------------------------------------


def _replay_run(probe):
    rep = Replayer(AttackEnvironment.build())
    if probe is not None:
        rep.machine.core.attach(probe)
    process = rep.create_victim_process("victim")
    victim = setup_control_flow_victim(process, secret=1)
    recipe = rep.module.provide_replay_handle(
        process, victim.handle_va + 0x20,
        attack_function=replay_n_times(3))
    rep.launch_victim(process, victim.program)
    rep.arm(recipe)
    rep.run_until_victim_done()
    assert recipe.replays == 3
    return (state_digest(MachineSnapshot.take(rep)),
            rep.machine.metrics.dump())


def test_noop_probe_is_bit_invisible():
    assert _replay_run(NoOp()) == _replay_run(None)
