"""CI throughput smoke check.

Measures simulated-cycles/host-second on the replay-attack workload
twice — fast-forward on, and naive stepping (the default path every
matrix cell takes, where empty cycles are quiet ``Core.step`` calls) —
and on the spin loop with one and with two SMT contexts, then compares
against the committed baseline in
``benchmarks/results/simulator_throughput.json``.  Exits
non-zero when any rate regresses by more than the allowed factor
(default 2x — CI runners are noisy; the gate is for cliffs, not
percent drift).

Also runs a snapshot round-trip smoke: take a mid-run snapshot of the
replay-attack workload, run to completion, mutate nothing further,
restore, run again, and require the machine report to be identical.
This is the functional contract the warm-start experiment drivers
depend on, checked on every CI run in a few hundred milliseconds.

Finally, a tracing overhead check: the replay-attack workload runs
once with no tracer (the configuration the regression gate prices)
and once with an ``EventTracer`` attached.  Both runs must produce a
bit-identical machine report — tracing observes, it never perturbs —
and the measured overhead is written to
``benchmarks/results/tracing_overhead.json`` so its trajectory is
visible across PRs.  Only the off-vs-baseline comparison gates;
tracing-on cost is reported, not gated.

A machine lifecycle line reports the median cost of ``Machine()``,
``capture()`` and ``restore()`` on the default configuration — what
a fleet pays per lane before it simulates anything.  Reported, not
gated.

A memoization check covers both levels of the ``repro.memo`` compute
cache: a replay-window served from :class:`~repro.memo.WindowMemo`
and an evaluation matrix served from a warm
:class:`~repro.memo.TrialStore` must each be bit-identical to their
cold runs *and* beat the minimum speedups (2x / 5x); the measured
numbers are written to
``benchmarks/results/memoization_throughput.json``.

A batch-engine check runs the fleet checksum sweep (32 lanes of the
same program over lane-variant data) three ways — scalar machines one
by one, a :class:`~repro.batch.MachineFleet` on the pure-Python lane
engine, and (when NumPy is importable) on the NumPy lane engine.
Every fleet lane must be bit-identical to its scalar run, the two
engines must agree with each other, and each engine must beat the
minimum single-process sweep speedup (5x).  Measurements land in
``benchmarks/results/batch_throughput.json``.

Usage::

    PYTHONPATH=src python benchmarks/ci_throughput_smoke.py \
        [--baseline benchmarks/results/simulator_throughput.json] \
        [--max-regression 2.0]
"""

import argparse
import dataclasses
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))

from throughput_workloads import run_replay_attack, run_spin, timed  # noqa: E402

#: Baseline keys checked, mapped to a measurement callable.
CHECKS = {
    "replay_attack_fast_forward":
        lambda: timed(run_replay_attack, True, 200),
    "replay_attack_naive": lambda: timed(run_replay_attack, False, 200),
    "single_context_spin": lambda: timed(run_spin, 5000, 1),
    "smt_spin": lambda: timed(run_spin, 5000, 2),
}


def measure() -> dict:
    rates = {}
    for key, runner in CHECKS.items():
        result, host = runner()
        cycles = result[0] if isinstance(result, tuple) else result
        rates[key] = cycles / host
    return rates


def snapshot_roundtrip_smoke() -> bool:
    """Take → mutate → restore → compare on a real attack platform.

    Checkpoints a launched control-flow victim, runs the replay attack
    to completion (heavily mutating every subsystem), rewinds, runs
    again, and requires the two machine reports to be identical.
    Returns True on success.
    """
    from repro.core.recipes import (
        WalkLocation, WalkTuning, replay_n_times)
    from repro.core.replayer import AttackEnvironment, Replayer
    from repro.reporting import machine_report
    from repro.victims.control_flow import setup_control_flow_victim

    rep = Replayer(AttackEnvironment.build())
    proc = rep.create_victim_process("victim")
    victim = setup_control_flow_victim(proc, secret=1)
    recipe = rep.module.provide_replay_handle(
        proc, victim.handle_va + 0x20, name="smoke-replay",
        attack_function=replay_n_times(20),
        walk_tuning=WalkTuning(upper=WalkLocation.PWC,
                               leaf=WalkLocation.DRAM))
    rep.launch_victim(proc, victim.program)
    rep.arm(recipe)
    rep.checkpoint()

    def run_to_done() -> dict:
        rep.run_until_victim_done(context_id=0, max_cycles=10_000_000)
        return dataclasses.asdict(
            machine_report(rep.machine, rep.kernel, rep.module))

    first = run_to_done()
    rep.rewind()
    second = run_to_done()
    if second != first:
        print("snapshot round-trip: FAIL (report diverged after rewind)")
        return False
    if first["contexts"][0]["retired"] == 0:
        print("snapshot round-trip: FAIL (workload retired nothing)")
        return False
    print("snapshot round-trip: OK (rewound run is bit-identical)")
    return True


def tracing_overhead_check() -> bool:
    """Price tracing and prove it is purely observational.

    Runs the replay-attack workload tracing-off and tracing-on,
    requires bit-identical machine reports (and a non-empty trace),
    and persists both rates plus the slowdown factor as a JSON
    artifact.  Returns True on success.
    """
    import dataclasses

    from repro.observability import EventTracer

    (result_off, host_off) = timed(run_replay_attack, True, 200)
    tracer = EventTracer(capacity=1 << 15)
    (result_on, host_on) = timed(run_replay_attack, True, 200, tracer)
    cycles_off, report_off = result_off
    cycles_on, report_on = result_on

    ok = True
    if (cycles_off != cycles_on
            or dataclasses.asdict(report_off)
            != dataclasses.asdict(report_on)):
        print("tracing overhead: FAIL (tracing perturbed the "
              "simulation results)")
        ok = False
    if tracer.total_emitted == 0:
        print("tracing overhead: FAIL (tracer attached but captured "
              "no events)")
        ok = False

    rate_off = cycles_off / host_off
    rate_on = cycles_on / host_on
    slowdown = rate_off / rate_on if rate_on else float("inf")
    payload = {
        "workload": "replay_attack_fast_forward",
        "cycles": cycles_off,
        "tracing_off_cycles_per_host_second": rate_off,
        "tracing_on_cycles_per_host_second": rate_on,
        "tracing_slowdown_factor": slowdown,
        "events_emitted": tracer.total_emitted,
        "events_dropped": tracer.dropped,
        "bit_identical": ok,
    }
    out = Path(__file__).parent / "results" / "tracing_overhead.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    if ok:
        print(f"tracing overhead: OK ({slowdown:.2f}x slowdown with "
              f"{tracer.total_emitted} events; results bit-identical)")
    return ok


def machine_lifecycle_report(repeats: int = 25):
    """Print the median microseconds of building, capturing and
    restoring a default machine (reported, not gated)."""
    import statistics
    import time

    from repro.cpu.machine import Machine

    def median_us(fn) -> float:
        samples = []
        for _ in range(repeats):
            start = time.perf_counter()
            fn()
            samples.append(time.perf_counter() - start)
        return statistics.median(samples) * 1e6

    machine = Machine()
    snapshot = machine.capture()
    build = median_us(Machine)
    capture = median_us(machine.capture)
    restore = median_us(lambda: machine.restore(snapshot))
    print(f"machine lifecycle: Machine() {build:.0f} us, capture() "
          f"{capture:.0f} us, restore() {restore:.0f} us (default "
          f"config; reported, not gated)")


def memoization_check(min_window_speedup: float = 2.0,
                      min_store_speedup: float = 5.0) -> bool:
    """Prove both memoization levels are sound and actually fast.

    Level 1: the same replay window runs cold and then from a
    :class:`~repro.memo.WindowMemo` hit; the machine report, recipe
    progress and metrics dump must be bit-identical, and the hit must
    be at least *min_window_speedup* faster.  Level 2: a small
    evaluation matrix runs cold into a fresh ``TrialStore`` and then
    warm; the sorted-JSON serialization must be byte-identical and
    the warm run at least *min_store_speedup* faster.  Measurements
    land in ``benchmarks/results/memoization_throughput.json``.
    Returns True on success.
    """
    import dataclasses
    import tempfile
    import time

    from repro.core.recipes import (
        WalkLocation, WalkTuning, replay_n_times)
    from repro.core.replayer import AttackEnvironment, Replayer
    from repro.evaluation import MatrixRunner
    from repro.memo import TrialStore, WindowMemo
    from repro.reporting import machine_report
    from repro.victims.control_flow import setup_control_flow_victim

    ok = True

    # --- Level 1: replay-window memoization -------------------------------
    memo = WindowMemo()
    rep = Replayer(AttackEnvironment.build(), memo=memo)
    proc = rep.create_victim_process("victim")
    victim = setup_control_flow_victim(proc, secret=1)
    recipe = rep.module.provide_replay_handle(
        proc, victim.handle_va + 0x20, name="memo-smoke",
        attack_function=replay_n_times(20),
        walk_tuning=WalkTuning(upper=WalkLocation.PWC,
                               leaf=WalkLocation.DRAM))
    rep.launch_victim(proc, victim.program)
    rep.arm(recipe)
    rep.checkpoint()

    def observe(cycles):
        return (cycles, recipe.replays, list(recipe.probe_log),
                dataclasses.asdict(machine_report(
                    rep.machine, rep.kernel, rep.module)),
                rep.machine.metrics.dump())

    t0 = time.perf_counter()
    cold_window = observe(rep.run_window(recipe))
    window_cold_s = time.perf_counter() - t0
    rep.rewind()
    t0 = time.perf_counter()
    warm_window = observe(rep.run_window(recipe))
    window_warm_s = time.perf_counter() - t0
    window_speedup = window_cold_s / max(window_warm_s, 1e-9)
    window_identical = (warm_window == cold_window
                        and memo.counts()["hits"] == 1)
    if not window_identical:
        print("memoization: FAIL (window hit diverged from cold run)")
        ok = False
    elif window_speedup < min_window_speedup:
        print(f"memoization: FAIL (window hit only "
              f"{window_speedup:.1f}x faster; need "
              f">={min_window_speedup:.1f}x)")
        ok = False

    # --- Level 2: content-addressed trial store ---------------------------
    overrides = {"port-contention": {"measurements": 200,
                                     "calibrate_samples": 200}}
    with tempfile.TemporaryDirectory() as cache_dir:
        store = TrialStore(cache_dir)

        def run_matrix():
            return MatrixRunner(attacks=("port-contention",),
                                defenses=("none", "fences"),
                                overrides=overrides, workers=1,
                                store=store,
                                label="memo-smoke-matrix").run()

        t0 = time.perf_counter()
        cold_matrix = run_matrix()
        store_cold_s = time.perf_counter() - t0
        t0 = time.perf_counter()
        warm_matrix = run_matrix()
        store_warm_s = time.perf_counter() - t0
    store_speedup = store_cold_s / max(store_warm_s, 1e-9)
    as_bytes = lambda m: json.dumps(  # noqa: E731
        m.to_dict(), indent=2, sort_keys=True)
    store_identical = (as_bytes(warm_matrix) == as_bytes(cold_matrix)
                       and store.counts()["hits"] == 2)
    if not store_identical:
        print("memoization: FAIL (warm matrix diverged from cold run)")
        ok = False
    elif store_speedup < min_store_speedup:
        print(f"memoization: FAIL (warm store only "
              f"{store_speedup:.1f}x faster; need "
              f">={min_store_speedup:.1f}x)")
        ok = False

    payload = {
        "window": {
            "workload": "control-flow replay window (20 replays)",
            "cold_seconds": window_cold_s,
            "warm_seconds": window_warm_s,
            "speedup": window_speedup,
            "min_speedup": min_window_speedup,
            "bit_identical": window_identical,
        },
        "trial_store": {
            "workload": "1x2 evaluation matrix, port-contention",
            "cold_seconds": store_cold_s,
            "warm_seconds": store_warm_s,
            "speedup": store_speedup,
            "min_speedup": min_store_speedup,
            "bit_identical": store_identical,
        },
    }
    out = Path(__file__).parent / "results" / "memoization_throughput.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    if ok:
        print(f"memoization: OK (window hit {window_speedup:.1f}x, "
              f"warm store {store_speedup:.1f}x; both bit-identical)")
    return ok


def batch_throughput_check(min_speedup: float = 5.0,
                           lanes: int = 32) -> bool:
    """Prove the batch engine is bit-exact and actually fast.

    Runs the fleet checksum sweep scalar (one machine per lane, one
    process — the baseline ``backend="batch"`` replaces) and as one
    :class:`~repro.batch.MachineFleet` per available lane engine.
    Each engine must produce lane outcomes bit-identical to the
    scalar runs and be at least *min_speedup* times faster than the
    scalar loop.  Measurements land in
    ``benchmarks/results/batch_throughput.json``.  Returns True on
    success.
    """
    import os

    from repro.batch import MachineFleet, make_ops, run_lane_scalar
    from throughput_workloads import (
        FLEET_PASSES, FLEET_PLAN, FLEET_WORDS, fleet_lanes)

    lane_specs = fleet_lanes(lanes)

    def run_scalar_sweep():
        return [run_lane_scalar(FLEET_PLAN, seed, params)
                for seed, params in lane_specs]

    scalar_results, scalar_s = timed(run_scalar_sweep)
    cycles_per_lane = scalar_results[0][1]

    engines = ["pure"]
    if not os.environ.get("REPRO_NO_NUMPY"):
        try:
            import numpy  # noqa: F401
            engines.append("numpy")
        except ImportError:
            pass

    ok = True
    measured = {}
    for engine in engines:
        fleet = MachineFleet(FLEET_PLAN, lane_specs,
                             ops=make_ops(engine))
        outcomes, fleet_s = timed(fleet.run)
        identical = all(
            outcome.error is None and outcome.result == reference
            for outcome, reference in zip(outcomes, scalar_results))
        speedup = scalar_s / fleet_s
        measured[engine] = {
            "seconds": fleet_s,
            "lanes_per_host_second": lanes / fleet_s,
            "speedup": speedup,
            "bit_identical": identical,
            "peeled_lanes": fleet.stats["peeled"],
        }
        if not identical:
            print(f"batch throughput: FAIL ({engine} engine diverged "
                  f"from the scalar sweep)")
            ok = False
        elif speedup < min_speedup:
            print(f"batch throughput: FAIL ({engine} engine only "
                  f"{speedup:.1f}x faster than the scalar sweep; "
                  f"need >={min_speedup:.1f}x)")
            ok = False

    payload = {
        "workload": (f"fnv checksum fleet, {FLEET_WORDS} words x "
                     f"{FLEET_PASSES} passes"),
        "lanes": lanes,
        "simulated_cycles_per_lane": cycles_per_lane,
        "scalar_seconds": scalar_s,
        "scalar_lanes_per_host_second": lanes / scalar_s,
        "engines": measured,
        "min_speedup": min_speedup,
    }
    out = Path(__file__).parent / "results" / "batch_throughput.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    if ok:
        summary = ", ".join(
            f"{engine} {stats['speedup']:.1f}x"
            for engine, stats in measured.items())
        print(f"batch throughput: OK ({lanes} lanes, {summary}; all "
              f"lanes bit-identical to scalar)")
    return ok


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--baseline",
        default=str(Path(__file__).parent / "results"
                    / "simulator_throughput.json"))
    parser.add_argument("--max-regression", type=float, default=2.0)
    args = parser.parse_args(argv)

    failed = not snapshot_roundtrip_smoke()
    failed = not tracing_overhead_check() or failed
    machine_lifecycle_report()
    failed = not memoization_check() or failed
    failed = not batch_throughput_check() or failed

    baseline_path = Path(args.baseline)
    if not baseline_path.exists():
        print(f"no baseline at {baseline_path}; nothing to compare")
        return 1 if failed else 0
    baseline = json.loads(baseline_path.read_text())
    baseline_rates = baseline.get("cycles_per_host_second", {})

    rates = measure()
    for key, rate in rates.items():
        reference = baseline_rates.get(key)
        if not reference:
            print(f"{key}: {rate:,.0f} c/s (no baseline entry; skipped)")
            continue
        ratio = reference / rate
        status = "OK"
        if ratio > args.max_regression:
            status = f"FAIL (>{args.max_regression:.1f}x regression)"
            failed = True
        print(f"{key}: {rate:,.0f} c/s vs baseline {reference:,.0f} "
              f"({ratio:.2f}x slower) {status}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
