"""Fleet plans: the shared-program / per-lane-data trial contract.

Every sweep this reproduction runs has the same shape: one program,
many trials that differ only in *data* — seeds, secrets, initial
register or memory contents.  A :class:`FleetPlan` captures that
shape declaratively so the batch engine can run all trials as lanes
of one :class:`~repro.batch.fleet.MachineFleet`, while the scalar
backend (and any peeled-off lane) runs the identical recipe on a
plain :class:`~repro.cpu.machine.Machine`:

* ``programs`` — which immutable :class:`~repro.isa.program.Program`
  runs on which hardware context (shared by every lane);
* ``lane_init(seed, params)`` — the per-lane data: initial register
  and physical-memory values (a :class:`LaneInit`);
* ``max_cycles`` / ``extract(machine)`` — when to stop and what a
  trial returns.

:func:`run_lane_scalar` is the scalar reference semantics; the fleet
is bit-identical to it lane by lane.  :class:`FleetTrial` adapts a
plan to the harness trial contract (``fn(params, seed)``) while
advertising the plan via its ``fleet_plan`` attribute, which is what
the sweep driver's ``"batch"`` backend
(:class:`~repro.harness.backends.BatchBackend`) keys on.  Instances
pickle (for the supervised worker-process path) as long as the plan's
components are module-level.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Optional, Tuple

from repro.cpu.machine import Machine
from repro.isa.program import Program


@dataclass(frozen=True)
class LaneInit:
    """Per-lane initial data, applied before the program starts.

    ``mem`` entries are ``(paddr, width, value)`` physical writes;
    ``regs`` entries are ``(context_id, reg, value)`` architectural
    writes.  Within a lane, later entries win, exactly like the
    sequential writes they describe.
    """

    mem: Tuple[Tuple[int, int, Any], ...] = ()
    regs: Tuple[Tuple[int, str, Any], ...] = ()


@dataclass(frozen=True)
class FleetPlan:
    """What one trial is, minus the per-lane data."""

    #: ``(context_id, program)`` pairs loaded on every lane.
    programs: Tuple[Tuple[int, Program], ...]
    #: ``fn(seed, params) -> LaneInit``: the only lane-variant input.
    lane_init: Callable[[int, Any], LaneInit]
    #: Absolute cycle budget (machines start at cycle 0).
    max_cycles: int
    #: ``fn(machine) -> result`` once the machine stops.
    extract: Callable[[Machine], Any]
    #: Machine configuration; ``None`` means defaults.
    config: Optional[Any] = None


def build_lane_machine(plan: FleetPlan, seed: int, params: Any) -> Machine:
    """Construct one lane's machine: config, per-lane data, programs."""
    machine = Machine(plan.config)
    init = plan.lane_init(seed, params)
    for context_id, reg, value in init.regs:
        machine.contexts[context_id].write_reg(reg, value)
    for paddr, width, value in init.mem:
        machine.phys.write(paddr, value, width)
    for context_id, program in plan.programs:
        machine.contexts[context_id].load_program(program)
    return machine


def run_lane_scalar(plan: FleetPlan, seed: int, params: Any) -> Any:
    """The scalar reference: one lane, one machine, start to finish."""
    machine = build_lane_machine(plan, seed, params)
    machine.run(max_cycles=plan.max_cycles)
    return plan.extract(machine)


@dataclass(frozen=True)
class FleetTrial:
    """Harness trial callable (``fn(params, seed)``) carrying its plan.

    The scalar backend (and the resilient sweep's retry ladder) calls
    instances directly; ``backend="batch"`` discovers the plan through
    the ``fleet_plan`` attribute and runs all trials as fleet lanes.
    A frozen dataclass so :func:`repro.memo.trial_key` can fingerprint
    it (class identity + declared field state): fleet-resolved trials
    then persist in the content-addressed store like any scalar trial,
    as long as the plan's callables are module-level functions.
    """

    fleet_plan: FleetPlan

    def __call__(self, params: Any, seed: int) -> Any:
        return run_lane_scalar(self.fleet_plan, seed, params)


__all__ = ["FleetPlan", "FleetTrial", "LaneInit", "build_lane_machine",
           "run_lane_scalar"]
