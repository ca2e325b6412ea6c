"""Backend wiring: ``run_sweep(backend="batch")``,
``run_resilient_sweep(backend="batch")`` and
``Experiment(backend="batch")`` must be drop-in equivalent to the
scalar backend — same results, same seeds, same store/journal
behaviour."""

import pytest

import repro
from repro.batch import FleetPlan, FleetTrial, LaneInit
from repro.harness import (
    SweepFailure,
    derive_seed,
    run_resilient_sweep,
    run_sweep,
)
from repro.isa.program import ProgramBuilder
from repro.mem.physical import PhysicalMemoryError
from repro.snapshot import MachineSnapshot

DATA_BASE = 0x0010_0000
BAD_BASE = 1 << 60


def _extract(machine):
    context = machine.contexts[0]
    return (MachineSnapshot.take(machine).digest(),
            context.int_regs["r2"], machine.cycle,
            context.stats.retired)


def _program():
    return (ProgramBuilder("backend-trial")
            .load("r2", "r1", 0)
            .li("r0", 10)
            .label("loop")
            .mul("r2", "r2", "r2")
            .addi("r2", "r2", 7)
            .subi("r0", "r0", 1)
            .bne("r0", "r15", "loop")
            .halt().build())


def _lane_init(seed, params):
    scale = params["scale"] if params else 1
    return LaneInit(regs=((0, "r1", DATA_BASE),),
                    mem=((DATA_BASE, 8, seed * scale + 1),))


def _bad_lane_init(seed, params):
    # Every third seed points at unreachable memory -> that trial
    # raises, scalar and batch alike.
    base = BAD_BASE if seed % 3 == 0 else DATA_BASE
    return LaneInit(regs=((0, "r1", base),),
                    mem=((DATA_BASE, 8, seed + 1),))


PLAN = FleetPlan(programs=((0, _program()),), lane_init=_lane_init,
                 max_cycles=1_000_000, extract=_extract)
TRIAL = FleetTrial(PLAN)
BAD_PLAN = FleetPlan(programs=((0, _program()),),
                     lane_init=_bad_lane_init, max_cycles=1_000_000,
                     extract=_extract)
BAD_TRIAL = FleetTrial(BAD_PLAN)

PARAMS = [{"scale": s} for s in (1, 2, 3, 4, 5, 6)]


def test_run_sweep_batch_equals_scalar():
    scalar = run_sweep(TRIAL, PARAMS, master_seed=11, label="be",
                       workers=1)
    batch = run_sweep(TRIAL, PARAMS, master_seed=11, label="be",
                      backend="batch")
    assert batch.results() == scalar.results()
    assert ([t.seed for t in batch.trials]
            == [t.seed for t in scalar.trials])


def test_run_sweep_batch_requires_fleet_plan():
    with pytest.raises(ValueError, match="fleet_plan"):
        run_sweep(lambda p, s: None, PARAMS, backend="batch")


def test_run_sweep_unknown_backend():
    with pytest.raises(ValueError, match="backend"):
        run_sweep(TRIAL, PARAMS, backend="simd")
    with pytest.raises(ValueError, match="backend"):
        run_resilient_sweep(TRIAL, PARAMS, backend="simd")


def test_run_sweep_batch_raises_first_lane_error():
    # Find a master seed whose derived seeds actually hit the bad
    # lane-init predicate, so the test cannot rot silently.
    master = next(m for m in range(100)
                  if any(derive_seed(m, i) % 3 == 0
                         for i in range(len(PARAMS))))
    # The strict policy names the trial's own error, whichever engine
    # ran it: inline, the supervised pool, or the batch fleet.
    for engine in ({"workers": 1}, {"workers": 2}, {"backend": "batch"}):
        with pytest.raises(SweepFailure,
                           match="PhysicalMemoryError") as excinfo:
            run_sweep(BAD_TRIAL, PARAMS, master_seed=master, **engine)
        if engine == {"workers": 1}:
            # In-process, the trial's exception is chained as well.
            assert isinstance(excinfo.value.__cause__,
                              PhysicalMemoryError)


def test_resilient_batch_equals_scalar():
    scalar = run_resilient_sweep(TRIAL, PARAMS, master_seed=5,
                                 label="rs", workers=1)
    batch = run_resilient_sweep(TRIAL, PARAMS, master_seed=5,
                                label="rs", backend="batch")
    assert batch.results() == scalar.results()
    assert batch.report is not None
    counts = batch.report.resolution_counts()
    assert counts["ok"] == len(PARAMS)
    for trial_report in batch.report.trials:
        assert [a.attempt for a in trial_report.attempts] == [0]
        assert trial_report.attempts[0].outcome == "ok"


def test_resilient_batch_failed_lane_falls_to_scalar_ladder():
    """A lane the fleet cannot complete gets the full scalar retry
    ladder (no attempt burned by the fleet) and then the policy's
    exhaustion handling."""
    from repro.harness import FaultPolicy
    master = next(m for m in range(100)
                  if any(derive_seed(m, i, "lad") % 3 == 0
                         for i in range(len(PARAMS))))
    policy = FaultPolicy(max_attempts=2, backoff_base=0,
                         on_exhausted="default", default="gave-up")
    scalar = run_resilient_sweep(BAD_TRIAL, PARAMS, master_seed=master,
                                 label="lad", workers=1, policy=policy)
    batch = run_resilient_sweep(BAD_TRIAL, PARAMS, master_seed=master,
                                label="lad", policy=policy,
                                backend="batch")
    assert batch.outcomes == scalar.outcomes
    s_res = scalar.report.resolution_counts()
    b_res = batch.report.resolution_counts()
    assert b_res == s_res
    assert b_res["defaulted"] >= 1
    for trial_report in batch.report.trials:
        if trial_report.resolution == "defaulted":
            # The fleet recorded no attempt for the failed lane: the
            # ladder ran its full budget from attempt 0.
            assert ([a.attempt for a in trial_report.attempts]
                    == [0, 1])


def test_resilient_batch_populates_store_for_scalar(tmp_path):
    """Trials resolved by the fleet land in the content-addressed
    store and are served back to a later *scalar* sweep unchanged."""
    store = tmp_path / "trials"
    first = run_resilient_sweep(TRIAL, PARAMS, master_seed=3,
                                label="st", backend="batch",
                                store=store)
    assert first.report.cache["stores"] == len(PARAMS)
    second = run_resilient_sweep(TRIAL, PARAMS, master_seed=3,
                                 label="st", workers=1, store=store)
    assert second.results() == first.results()
    assert (second.report.resolution_counts()["cached"]
            == len(PARAMS))


def test_resilient_batch_journal_resume(tmp_path):
    journal = tmp_path / "sweep.journal"
    first = run_resilient_sweep(TRIAL, PARAMS, master_seed=9,
                                label="jr", backend="batch",
                                journal=journal)
    second = run_resilient_sweep(TRIAL, PARAMS, master_seed=9,
                                 label="jr", backend="batch",
                                 journal=journal)
    assert second.results() == first.results()
    assert (second.report.resolution_counts()["journal"]
            == len(PARAMS))


def test_experiment_backend_batch():
    scalar = repro.Experiment(trial=TRIAL, sweep=PARAMS,
                              master_seed=21, label="exp").run()
    batch = repro.Experiment(trial=TRIAL, sweep=PARAMS,
                             master_seed=21, label="exp",
                             backend="batch").run()
    assert batch.results == scalar.results
    assert batch.report.resolution_counts()["ok"] == len(PARAMS)
