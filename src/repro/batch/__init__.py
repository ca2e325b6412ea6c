"""Batched lockstep machine execution (the structure-of-arrays fleet).

``repro.batch`` steps N machines that run the same program with
different seeds/secrets for roughly the cost of one: a real scalar
leader machine carries the lane-invariant control plane, and a sparse
structure-of-arrays taint overlay carries the per-lane data plane.
Divergent lanes peel off transparently to the ordinary scalar
:class:`~repro.cpu.machine.Machine`, so every lane is bit-identical
to an independent scalar run — snapshots, metrics counters and final
architectural state included.

Entry points:

* :class:`FleetPlan` / :class:`LaneInit` — declare the shared program
  and the per-lane data (:mod:`repro.batch.plan`);
* :class:`MachineFleet` / :func:`run_fleet` — run the lanes
  (:mod:`repro.batch.fleet`);
* :class:`FleetTrial` — adapt a plan to the sweep-harness trial
  contract; the sweep driver's ``"batch"`` backend
  (``Experiment(backend="batch")``, ``run_resilient_sweep`` and
  ``run_sweep``) runs a fleet pre-pass when the trial function
  carries a ``fleet_plan``;
* :func:`make_ops` — select the lane-vector engine (NumPy fast path
  or the pure-Python fallback; ``REPRO_NO_NUMPY=1`` forces pure).
"""

from repro.batch.fleet import LaneOutcome, MachineFleet, run_fleet
from repro.batch.lanes import NumpyOps, PurePythonOps, make_ops
from repro.batch.plan import (
    FleetPlan,
    FleetTrial,
    LaneInit,
    build_lane_machine,
    run_lane_scalar,
)

__all__ = [
    "FleetPlan",
    "FleetTrial",
    "LaneInit",
    "LaneOutcome",
    "MachineFleet",
    "NumpyOps",
    "PurePythonOps",
    "build_lane_machine",
    "make_ops",
    "run_fleet",
    "run_lane_scalar",
]
