"""Tests for the benchmark itself (not part of tier-1):

    python3 -m pytest perfbench -q

Each test runs ``perfbench/run.py`` as a subprocess in its tiny mode,
so the whole suite takes about a minute.
"""

from __future__ import annotations

import functools
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]


def run_bench(root: Path, workload: str, trace: int = 0,
              seed: int = 2019) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(root / "perfbench" / "run.py"),
         "--workload", workload, "--seed", str(seed), "--seconds", "1",
         "--trace", str(trace), "--tiny"],
        cwd=root, capture_output=True, text=True, timeout=300)


def result_line(proc: subprocess.CompletedProcess) -> dict:
    return json.loads(proc.stdout.strip().splitlines()[-1])


@functools.lru_cache(maxsize=None)
def tiny_run(workload: str, trace: int) -> subprocess.CompletedProcess:
    """Each (workload, trace) tiny run, once per test session."""
    return run_bench(ROOT, workload, trace)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_prints_every_metric_with_its_unit(workload, trace):
    proc = tiny_run(workload, trace)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = result_line(proc)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    assert {name: m["unit"] for name, m in result["metrics"].items()} \
        == units
    printed = proc.stdout.splitlines()
    for name, unit in units.items():
        assert any(line.startswith(f"{name} ") and line.endswith(
            f" {unit}") for line in printed), name
    if not trace:
        for name in units:
            assert result["metrics"][name]["value"] > 0, name


@pytest.mark.parametrize("workload", WORKLOADS)
def test_layer_self_times_add_up_to_at_most_the_traced_wall(workload):
    metrics = result_line(tiny_run(workload, 1))["metrics"]
    # One self-time metric per layer: the harness's is its overhead,
    # the memo layer's its (leaf) store time.
    self_times = [m["value"] for name, m in metrics.items()
                  if name.endswith(".self_s")
                  or name in ("harness.overhead_s", "memo.store_s")]
    assert len(self_times) == 10
    assert all(t >= 0 for t in self_times)
    assert sum(self_times) <= metrics["trace.wall_s"]["value"]


def test_traced_counts_match_the_workload():
    matrix = result_line(tiny_run("matrix-replay", 1))["metrics"]
    assert matrix["evaluation.cells"]["value"] == 4
    assert matrix["memo.store.puts"]["value"] == 4
    assert matrix["memo.store.hits"]["value"] == 0
    assert matrix["service.journal_records"]["value"] == 4
    assert matrix["cpu.ff_frac"]["value"] == 0  # fast_forward is off
    fleet = result_line(tiny_run("fleet-lanes", 1))["metrics"]
    assert fleet["batch.lanes"]["value"] == 8
    assert fleet["evaluation.cells"]["value"] == 0


def _checkout(tmp_path: Path) -> Path:
    """A checkout whose benchmark files and references can be edited:
    copies of ``BENCHMARK.json``, ``perfbench`` and ``docs``, links to
    the program."""
    root = tmp_path / "checkout"
    root.mkdir()
    shutil.copy(ROOT / "BENCHMARK.json", root)
    shutil.copytree(HERE, root / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copytree(ROOT / "docs", root / "docs")
    for name in ("src", "benchmarks"):
        (root / name).symlink_to(ROOT / name)
    return root


def _corrupt_matrix(root: Path) -> None:
    path = root / "docs" / "results.json"
    payload = json.loads(path.read_text())
    payload["matrix"]["cells"]["cf-cache/none"]["metrics"]["accuracy"] \
        = 0.25
    path.write_text(json.dumps(payload))


def _corrupt_fleet(root: Path) -> None:
    path = root / "perfbench" / "reference" / "fleet_lanes.json"
    payload = json.loads(path.read_text())
    payload["outcomes"][3][0] ^= 1
    path.write_text(json.dumps(payload))


def _corrupt_fingerprint(root: Path) -> None:
    path = root / "perfbench" / "reference" / "tiny.json"
    payload = json.loads(path.read_text())
    payload["fingerprints"]["fig10-smt"]["cycles"] += 1
    path.write_text(json.dumps(payload))


@pytest.mark.parametrize("workload, corrupt", [
    ("matrix-replay", _corrupt_matrix),
    ("fleet-lanes", _corrupt_fleet),
    ("fig10-smt", _corrupt_fingerprint),
])
def test_corrupted_reference_fails_the_run(tmp_path, workload, corrupt):
    root = _checkout(tmp_path)
    corrupt(root)
    proc = run_bench(root, workload)
    assert proc.returncode != 0
    result = result_line(proc)
    assert result["correct"] is False and result["failed"] >= 1
    summary = next(line for line in proc.stdout.splitlines()
                   if line.startswith("# workload"))
    assert float(summary.split("fail_frac ")[1]) > 0


def test_non_default_seed_checks_sampled_fleet_lanes():
    proc = run_bench(ROOT, "fleet-lanes", seed=7)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert result_line(proc)["correct"] is True


def test_checkout_without_the_program_fails_without_a_result(tmp_path):
    root = tmp_path / "bare"
    root.mkdir()
    shutil.copy(ROOT / "BENCHMARK.json", root)
    shutil.copytree(HERE, root / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(root, "fleet-lanes")
    assert proc.returncode != 0
    assert not proc.stdout.strip()
