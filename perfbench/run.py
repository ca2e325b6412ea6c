"""The repository benchmark: one command, three workloads.

    python3 perfbench/run.py --workload matrix-replay --seed 2019 \\
        --seconds 30 --trace 0

``--trace 0`` runs whole passes of the workload for about
``--seconds`` seconds with tracing off and prints the end-to-end
metrics; ``--trace 1`` runs one untraced and one traced pass and
prints the per-layer metrics (see ``perfbench/README.md``).  Every
operation is checked against a reference and the simulated
statistics against a committed fingerprint.  The last line of
standard output is one JSON object; the exit status is non-zero when
any check failed.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter, process_time
from typing import Any, Dict, List

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: Set-ups per run at the least: ``setup_s`` reports their median.
MIN_SETUPS = 3
#: A run stops starting passes once its measured time would pass
#: this, so it exits well inside the 180 s limit.
HARD_LIMIT_S = 120.0


def parse_args(argv: List[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("matrix-replay", "fig10-smt",
                                 "fleet-lanes"))
    parser.add_argument("--seed", type=int, default=2019)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="shrink the workload (benchmark self-tests)")
    return parser.parse_args(argv)


def import_program() -> None:
    """Import the program from the checkout's ``src``; a checkout
    without it cannot run the benchmark."""
    src = ROOT / "src"
    if not (src / "repro").is_dir():
        print(f"perfbench: no program at {src}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(HERE))
    try:
        import program  # noqa: F401
    except ImportError as exc:
        print(f"perfbench: cannot import the program from {src}: "
              f"{exc}", file=sys.stderr)
        sys.exit(2)


def import_seconds() -> float:
    """Median wall time, over :data:`MIN_SETUPS` fresh interpreters,
    from process start to the program imported: the part of set-up a
    process pays only once."""
    samples = []
    for _ in range(MIN_SETUPS):
        start = perf_counter()
        # No timeout: with one, the wait polls in steps of up to
        # 50 ms, which would quantise the measurement.
        subprocess.run([sys.executable, str(HERE / "program.py")],
                       check=True)
        samples.append(perf_counter() - start)
    return statistics.median(samples)


def run_one_pass(workload: Any, ctx: Dict[str, Any],
                 tracer: Any = None) -> Dict[str, Any]:
    """Time one pass and gather the machines it built.  Every pass
    starts cold, as a fresh ``python -m repro`` process would: the
    process-wide warm-start snapshot cache (port-contention builds
    its platforms through it) is emptied, and the previous pass's
    machines are collected, first."""
    from repro.observability import collect_machines
    from repro.snapshot import clear_cache
    clear_cache()
    gc.collect()
    span = tracer.pass_span(workload.name) if tracer is not None \
        else contextlib.nullcontext()
    with span, collect_machines() as machines:
        start, cpu_start = perf_counter(), process_time()
        output = workload.run_pass(ctx)
        output["wall_s"] = perf_counter() - start
        output["cpu_s"] = process_time() - cpu_start
    output["machines"] = machines
    return output


def main(argv: List[str]) -> int:
    args = parse_args(argv)
    import_program()
    import fingerprint
    import layers
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](ROOT, args.seed, args.tiny)
    reference_prints = fingerprint.load_reference(args.tiny)
    setups: List[float] = []
    passes: List[Dict[str, Any]] = []
    attempted = 0
    failures: List[str] = []

    def measured_pass(tracer: Any = None) -> Dict[str, Any]:
        nonlocal attempted
        start = perf_counter()
        ctx = workload.setup()
        setups.append(perf_counter() - start)
        if tracer is not None:
            tracer.install()
        try:
            output = run_one_pass(workload, ctx, tracer)
        finally:
            if tracer is not None:
                tracer.uninstall()
            workload.teardown(ctx)
        ops, failed = workload.check(ctx, output)
        attempted += ops
        failures.extend(failed)
        output["ops"] = ops
        output["print"] = fingerprint.of(output.pop("machines"))
        problems = fingerprint.compare(
            output["print"], reference_prints.get(workload.name))
        if problems:
            failures.append("simulated statistics differ from the "
                            "fingerprint: " + "; ".join(problems[:5]))
        passes.append(output)
        return output

    if args.trace:
        from tracing import LayerTracer
        untraced = measured_pass()
        tracer = LayerTracer()
        traced = measured_pass(tracer)
    else:
        while True:
            measured_pass()
            spent = sum(p["wall_s"] for p in passes)
            typical = statistics.median(p["wall_s"] for p in passes)
            if spent + typical > min(args.seconds, HARD_LIMIT_S):
                break
        while len(setups) < MIN_SETUPS:
            start = perf_counter()
            ctx = workload.setup()
            setups.append(perf_counter() - start)
            workload.teardown(ctx)

    failed = min(len(failures), attempted)
    print(f"# workload {workload.name} seed {args.seed} "
          f"passes {len(passes)} {workload.unit} {attempted} "
          f"failed {failed} fail_frac {failed / attempted:.6f}")
    print("# pass wall_s " + " ".join(f"{p['wall_s']:.3f}" for p in passes)
          + " cpu_s " + " ".join(f"{p['cpu_s']:.3f}" for p in passes))
    for problem in failures[:20]:
        print(f"# FAIL {problem}")
    if args.trace:
        metrics, labels = layers.per_layer(
            tracer, traced, untraced, workload)
        trace_path = layers.write_trace(
            ROOT / ".perfbench", workload.name, args.seed, tracer,
            metrics, labels, traced["print"])
        print(f"# labels {json.dumps(labels, sort_keys=True)}")
        print(f"# trace written to {trace_path}")
    else:
        setup_s = import_seconds() + statistics.median(setups)
        metrics = layers.end_to_end(passes, setup_s, peak_rss_mb())
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print(json.dumps({
        "correct": not failures, "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()}}))
    return 0 if not failures else 1


def peak_rss_mb() -> float:
    """Peak resident set of this process, in MiB (Linux reports
    ``ru_maxrss`` in KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
