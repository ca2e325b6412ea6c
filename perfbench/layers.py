"""Turn passes and traces into the benchmark's metrics.

:func:`end_to_end` gives the untraced metrics a user of the simulator
sees; :func:`per_layer` the traced run's per-layer attribution, which
pairs host time with exact simulated counts.  Each metric is a
``(value, unit)`` pair; the names and units match ``BENCHMARK.json``.
"""

from __future__ import annotations

import json
import statistics
from pathlib import Path
from typing import Any, Dict, List, Tuple

Metrics = Dict[str, Tuple[float, str]]


def _total(counters: Dict[str, Any], prefix: str, suffix: str) -> int:
    return sum(value for name, value in counters.items()
               if name.startswith(prefix) and name.endswith(suffix)
               and isinstance(value, int))


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def end_to_end(passes: List[Dict[str, Any]], setup_s: float,
               peak_rss_mb: float) -> Metrics:
    """Untraced metrics over every pass of a run: each is the median
    over the passes (every pass does the same simulated work)."""
    def rate(work: Any) -> float:
        return statistics.median(work(p) / p["wall_s"] for p in passes)

    return {
        "wall_s": (statistics.median(p["wall_s"] for p in passes), "s"),
        "setup_s": (setup_s, "s"),
        "sim_cycles_per_s": (rate(lambda p: p["print"]["cycles"]),
                             "cycles/s"),
        "sim_insts_per_s": (rate(lambda p: _total(
            p["print"]["counters"], "cpu.ctx", ".retired")), "insts/s"),
        "cells_per_s": (rate(lambda p: p["ops"]), "cells/s"),
        "lanes_per_s": (rate(lambda p: p["print"]["machines"]),
                        "lanes/s"),
        "peak_rss_mb": (peak_rss_mb, "MiB"),
    }


def _mechanism_columns() -> List[str]:
    """Defense columns that install a machine-level mechanism."""
    from repro.evaluation.defenses import DEFENSES
    return [name for name, spec in DEFENSES.items()
            if spec.machine is not None
            and spec.machine.defense is not None
            and spec.machine.defense.scheme]


def per_layer(tracer: Any, traced: Dict[str, Any],
              untraced: Dict[str, Any], workload: Any
              ) -> Tuple[Metrics, Dict[str, Any]]:
    """Per-layer metrics of the traced pass, plus string labels."""
    from repro.evaluation.defenses import defense_names
    self_s, calls, time_s = tracer.totals()
    counters = traced["print"]["counters"]
    cycles = tracer.sim_cycles
    stepped = tracer.stepped_cycles
    retired = _total(counters, "cpu.ctx", ".retired")
    issued = _total(counters, "cpu.ctx", ".issued")
    m: Metrics = {}

    # repro.cpu
    m["cpu.stepped_cycles"] = (stepped, "count")
    m["cpu.sim_cycles"] = (cycles, "cycles")
    m["cpu.ff_frac"] = (1.0 - _ratio(stepped, cycles), "ratio")
    m["cpu.self_s"] = (self_s["cpu"], "s")
    m["cpu.ns_per_stepped_cycle"] = (
        _ratio(self_s["cpu"] * 1e9, stepped), "ns")
    m["cpu.retired"] = (retired, "insts")
    m["cpu.issued"] = (issued, "count")
    m["cpu.squashed"] = (_total(counters, "cpu.ctx", ".squashed"),
                         "count")
    # Per machine: the counters and Machine.cycle both describe each
    # machine's final state (fleet lanes materialised, rewinds undone).
    m["cpu.ipc"] = (_ratio(retired, traced["print"]["cycles"]),
                    "insts/cycle")
    m["cpu.issue_useful_frac"] = (_ratio(retired, issued), "ratio")
    m["cpu.port.contended"] = (
        _total(counters, "cpu.port.", ".contended"), "count")

    # repro.mem
    accesses = calls.get("mem.access", 0)
    l1d_hits = counters.get("mem.l1d.hits", 0)
    m["mem.accesses"] = (accesses, "count")
    m["mem.l1d.hit_frac"] = (
        _ratio(l1d_hits, l1d_hits + counters.get("mem.l1d.misses", 0)),
        "ratio")
    m["mem.dram_accesses"] = (
        counters.get("mem.hierarchy.dram_accesses", 0), "count")
    m["mem.self_s"] = (self_s["mem"], "s")
    m["mem.ns_per_access"] = (_ratio(self_s["mem"] * 1e9, accesses),
                              "ns")

    # repro.vm
    tlb_misses = counters.get("vm.tlb.l1d.misses", 0)
    pwc_hits = counters.get("vm.pwc.hits", 0)
    m["vm.walks"] = (calls.get("vm.walk", 0), "count")
    m["vm.tlb.l1d.miss_frac"] = (_ratio(
        tlb_misses, tlb_misses + counters.get("vm.tlb.l1d.hits", 0)),
        "ratio")
    m["vm.pwc.hit_frac"] = (_ratio(
        pwc_hits, pwc_hits + counters.get("vm.pwc.misses", 0)), "ratio")
    m["vm.walker.mean_latency_cycles"] = (_ratio(
        counters.get("vm.walker.total_latency", 0),
        counters.get("vm.walker.walks", 0)), "cycles")
    m["vm.self_s"] = (self_s["vm"], "s")

    # repro.kernel
    m["kernel.page_faults"] = (calls.get("kernel.page_fault", 0),
                               "count")
    m["kernel.interrupts"] = (calls.get("kernel.interrupt", 0), "count")
    m["kernel.self_s"] = (self_s["kernel"], "s")

    # repro.core (MicroScope module and replayer)
    m["microscope.replays"] = (
        _total(counters, "microscope.recipe.", ".replays"), "count")
    m["microscope.handle_faults"] = (
        counters.get("microscope.handle_faults", 0), "count")
    m["microscope.probes"] = (counters.get("microscope.probes", 0),
                              "count")
    m["core.self_s"] = (self_s["core"], "s")

    # repro.evaluation
    cells = [s for s in tracer.spans if s[1] == "evaluation.cell"]
    durations = [s[4] - s[3] for s in cells]
    m["evaluation.cells"] = (len(cells), "count")
    m["evaluation.cell_s.p50"] = (
        statistics.median(durations) if durations else 0.0, "s")
    m["evaluation.cell_s.max"] = (max(durations, default=0.0), "s")
    by_defense: Dict[str, List[float]] = {}
    for span, duration in zip(cells, durations):
        by_defense.setdefault(span[7]["defense"], []).append(duration)
    for name in defense_names():
        m[f"evaluation.defense.{name}.cell_s"] = (
            statistics.mean(by_defense.get(name) or [0.0]), "s")
    mechanism = [t for name in _mechanism_columns()
                 for t in by_defense.get(name, [])]
    baseline = by_defense.get("none")
    m["evaluation.defense_overhead_frac"] = (
        statistics.mean(mechanism) / statistics.mean(baseline) - 1.0
        if mechanism and baseline else 0.0, "ratio")
    m["evaluation.self_s"] = (self_s["evaluation"], "s")

    # repro.harness
    reports = tracer.sweep_reports
    m["harness.attempts"] = (sum(r.attempts_total for r in reports),
                             "count")
    m["harness.retries"] = (sum(r.retries_total for r in reports),
                            "count")
    m["harness.overhead_s"] = (self_s["harness"], "s")

    # repro.service (matrix-replay only: the others bypass it)
    submitted_at = traced.get("submitted_at")
    via_service = submitted_at is not None and cells
    m["service.submit_to_first_cell_s"] = (
        min(s[3] for s in cells) - submitted_at if via_service else 0.0,
        "s")
    m["service.overhead_s"] = (
        traced["wall_s"] - sum(durations) if via_service else 0.0, "s")
    m["service.journal_records"] = (
        calls.get("service.journal.record", 0), "count")
    m["service.journal_s"] = (time_s.get("service.journal.record", 0.0),
                              "s")
    m["service.self_s"] = (self_s["service"], "s")

    # repro.memo
    hits = sum(tracer.store_gets)
    m["memo.store.puts"] = (calls.get("memo.store.put", 0), "count")
    m["memo.store.hits"] = (hits, "count")
    m["memo.store.misses"] = (len(tracer.store_gets) - hits, "count")
    m["memo.store_s"] = (time_s.get("memo.store.get", 0.0)
                         + time_s.get("memo.store.put", 0.0), "s")

    # repro.batch
    fleets = tracer.fleets
    lanes = sum(f["lanes"] for f in fleets)
    peeled = sum(f["peeled"] for f in fleets)
    m["batch.lanes"] = (lanes, "count")
    m["batch.peeled"] = (peeled, "count")
    m["batch.lockstep_frac"] = (1.0 - _ratio(peeled, lanes)
                                if lanes else 0.0, "ratio")
    m["batch.fleet_s"] = (time_s.get("batch.fleet", 0.0), "s")
    m["batch.leader_cycles"] = (sum(f["leader_cycles"] for f in fleets),
                                "cycles")
    m["batch.self_s"] = (self_s["batch"], "s")

    # the tracing itself
    m["trace.wall_s"] = (traced["wall_s"], "s")
    m["trace.overhead_frac"] = (
        traced["wall_s"] / untraced["wall_s"] - 1.0, "ratio")

    labels = {"workload": workload.name,
              "batch.engine": sorted({f["engine"] for f in fleets})}
    return m, labels


def write_trace(directory: Path, workload: str, seed: int, tracer: Any,
                metrics: Metrics, labels: Dict[str, Any],
                fingerprint: Dict[str, Any]) -> Path:
    """Write spans, counters, metrics and the fingerprint of the
    traced pass as one JSON file; returns its path."""
    self_s, calls, time_s = tracer.totals()
    directory.mkdir(exist_ok=True)
    path = directory / f"trace-{workload}-{seed}.json"
    path.write_text(json.dumps({
        "workload": workload, "seed": seed, "labels": labels,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
        "self_s": self_s,
        "calls": calls, "time_s": time_s,
        "stepped_cycles": tracer.stepped_cycles,
        "spans": tracer.span_dicts(),
        "fingerprint": fingerprint}, indent=1, sort_keys=True) + "\n")
    return path
