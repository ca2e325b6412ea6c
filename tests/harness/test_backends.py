"""The pluggable execution-backend layer.

Every backend must honour the same contract: handed the same trials,
it fills the same outcomes, the same seeds, the same journal records
and the same ``SweepReport`` resolutions — so ``inline``, ``pool``
and ``batch`` are interchangeable execution substrates, not three
behaviours."""

import json

import pytest

from repro.batch import FleetPlan, FleetTrial, LaneInit
from repro.harness import (
    ExecutionBackend,
    ExecutionRequest,
    FaultPolicy,
    InlineBackend,
    backend_names,
    derive_seed,
    register_backend,
    resolve_backend,
    run_resilient_sweep,
)
from repro.harness.backends import BACKENDS
from repro.isa.program import ProgramBuilder
from repro.snapshot import MachineSnapshot

FAST = FaultPolicy(backoff_base=0.0)

#: Backends that can run an arbitrary picklable trial function.
GENERIC_BACKENDS = ("inline", "pool", "scalar")


def seed_echo(params, seed):
    return (params, seed)


def slow_for_even(params, seed):
    """Uneven completion times: even params take longer, so workers
    really do finish out of submission order."""
    total = 0
    for i in range((params % 2 == 0) * 20_000 + 10):
        total += i
    return params, total


def flaky_even_first(params, seed):
    """Even params fail on their attempt-0 seed (retries succeed)."""
    if params % 2 == 0 and seed == derive_seed(7, params, "par"):
        raise RuntimeError("flaky attempt 0")
    return (params, seed)


# --- fleet fixtures (for the batch backend) --------------------------------

DATA_BASE = 0x0010_0000


def _extract(machine):
    context = machine.contexts[0]
    return (MachineSnapshot.take(machine).digest(),
            context.int_regs["r2"], machine.cycle)


def _program():
    return (ProgramBuilder("backends-trial")
            .load("r2", "r1", 0)
            .li("r0", 6)
            .label("loop")
            .mul("r2", "r2", "r2")
            .addi("r2", "r2", 5)
            .subi("r0", "r0", 1)
            .bne("r0", "r15", "loop")
            .halt().build())


def _lane_init(seed, params):
    return LaneInit(regs=((0, "r1", DATA_BASE),),
                    mem=((DATA_BASE, 8, seed + params["k"]),))


FLEET_TRIAL = FleetTrial(FleetPlan(
    programs=((0, _program()),), lane_init=_lane_init,
    max_cycles=1_000_000, extract=_extract))

FLEET_PARAMS = [{"k": k} for k in range(4)]


# --- cross-backend parity --------------------------------------------------


@pytest.mark.parametrize("backend", GENERIC_BACKENDS)
def test_backend_parity_results_and_report(backend):
    params = list(range(6))
    # Results land in submission order however the workers finish.
    for trial_fn in (seed_echo, slow_for_even):
        reference = run_resilient_sweep(
            trial_fn, params, master_seed=7, label="par",
            policy=FAST, workers=1, backend="inline")
        other = run_resilient_sweep(
            trial_fn, params, master_seed=7, label="par",
            policy=FAST, workers=2, backend=backend)
        assert other.results() == reference.results()
        assert [p for p, _ in other.results()] == params
        assert ([t.seed for t in other.trials]
                == [t.seed for t in reference.trials])
        assert (other.report.resolution_counts()
                == reference.report.resolution_counts())


@pytest.mark.parametrize("backend", GENERIC_BACKENDS)
def test_backend_parity_under_retries(backend):
    reference = run_resilient_sweep(
        flaky_even_first, list(range(5)), master_seed=7,
        label="par", policy=FAST, workers=1, backend="inline")
    other = run_resilient_sweep(
        flaky_even_first, list(range(5)), master_seed=7,
        label="par", policy=FAST, workers=2, backend=backend)
    assert other.results() == reference.results()
    # Same trials retried, same attempt counts.
    assert ([len(t.attempts) for t in other.report.trials]
            == [len(t.attempts) for t in reference.report.trials])


@pytest.mark.parametrize("backend", GENERIC_BACKENDS)
def test_backend_parity_journal_records(backend, tmp_path):
    path = tmp_path / f"{backend}.jsonl"
    run_resilient_sweep(seed_echo, list(range(4)), master_seed=3,
                        label="jp", policy=FAST, workers=2,
                        journal=path, backend=backend)
    records = [json.loads(line)
               for line in path.read_text().splitlines()]
    trials = [r for r in records if r["kind"] == "trial"]
    assert sorted(t["index"] for t in trials) == [0, 1, 2, 3]
    # Seeds and payload digests are backend-invariant.
    by_index = {t["index"]: (t["seed"], t["sha256"]) for t in trials}
    expect = {i: derive_seed(3, i, "jp") for i in range(4)}
    assert {i: s for i, (s, _) in by_index.items()} == expect
    reference = run_resilient_sweep(
        seed_echo, list(range(4)), master_seed=3, label="jp",
        policy=FAST, workers=1, backend="inline")
    assert ([by_index[i] is not None for i in range(4)]
            and reference.results()
            == [(i, expect[i]) for i in range(4)])


def test_batch_backend_matches_scalar_on_fleet_trial():
    scalar = run_resilient_sweep(
        FLEET_TRIAL, FLEET_PARAMS, master_seed=11, label="bb",
        policy=FAST, workers=1, backend="scalar")
    batch = run_resilient_sweep(
        FLEET_TRIAL, FLEET_PARAMS, master_seed=11, label="bb",
        policy=FAST, workers=1, backend="batch")
    assert batch.results() == scalar.results()
    assert (batch.report.resolution_counts()
            == scalar.report.resolution_counts())


def test_batch_backend_journal_matches_scalar(tmp_path):
    paths = {}
    for backend in ("scalar", "batch"):
        paths[backend] = tmp_path / f"{backend}.jsonl"
        run_resilient_sweep(
            FLEET_TRIAL, FLEET_PARAMS, master_seed=11, label="bb",
            policy=FAST, workers=1, journal=paths[backend],
            backend=backend)

    def digests(path):
        return {r["index"]: (r["seed"], r["sha256"])
                for r in map(json.loads,
                             path.read_text().splitlines())
                if r["kind"] == "trial"}

    assert digests(paths["batch"]) == digests(paths["scalar"])


# --- the registry ----------------------------------------------------------


def test_backend_names_sorted():
    names = backend_names()
    assert names == tuple(sorted(names))
    assert {"inline", "pool", "scalar", "batch"} <= set(names)


def test_resolve_backend_accepts_instance():
    backend = InlineBackend()
    assert resolve_backend(backend) is backend
    assert resolve_backend("inline") is BACKENDS["inline"]


def test_resolve_backend_unknown():
    with pytest.raises(ValueError, match="backend"):
        resolve_backend("warp-drive")


def test_register_backend_requires_name():
    class Nameless(ExecutionBackend):
        def execute(self, request):
            raise NotImplementedError

    with pytest.raises(ValueError, match="name"):
        register_backend(Nameless())


def test_register_custom_backend_runs_sweeps():
    class Doubling(ExecutionBackend):
        """Delegates to inline, then doubles every outcome —
        observable proof the custom backend actually executed."""

        name = "test-doubling"

        def execute(self, request):
            BACKENDS["inline"].execute(request)
            for index in [t.index for t in request.todo]:
                a, b = request.outcomes[index]
                request.outcomes[index] = (a * 2, b)

    register_backend(Doubling())
    try:
        result = run_resilient_sweep(
            seed_echo, [1, 2], master_seed=0, label="cb",
            policy=FAST, workers=1, backend="test-doubling")
        assert [a for a, _ in result.results()] == [2, 4]
    finally:
        del BACKENDS["test-doubling"]


def test_inline_backend_rejects_chaos():
    from repro.harness.chaos import ChaosPlan
    with pytest.raises(ValueError, match="isolation"):
        run_resilient_sweep(
            seed_echo, [1], master_seed=0, policy=FAST,
            chaos=ChaosPlan(faults={(0, 0): "exception"}),
            backend="inline")


def test_execution_request_clock_origin_is_sticky():
    request = ExecutionRequest(trial_fn=seed_echo, todo=[],
                               policy=FAST)
    origin = request.clock_origin()
    assert request.clock_origin() == origin
