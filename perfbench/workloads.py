"""The benchmark's three workloads and their reference checks.

Each workload object offers the same four steps:

* ``setup()`` — everything before the timed part (reference load,
  server boot, plan build); returns a context;
* ``run_pass(ctx)`` — the timed part: one whole pass of the workload;
* ``check(ctx, output)`` — compare every operation of the pass with
  the reference; returns ``(attempted, failures)``;
* ``teardown(ctx)`` — stop what ``setup`` started.

Operations are matrix cells (``matrix-replay``, ``fig10-smt``) or
fleet lanes (``fleet-lanes``).  The benchmark's ``--seed`` is the
matrix master seed or the fleet's lane-seed base.  Matrix cell
trials ignore their seed, so cells compare with the committed
``docs/results.json`` at every seed (the position-dependent ``seed``
field excepted).
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
import threading
import time
from pathlib import Path
from typing import Any, Dict, List, Tuple

HERE = Path(__file__).resolve().parent
REFERENCE_DIR = HERE / "reference"

#: Seed the committed fleet references were produced at (the
#: published matrix master seed).
DEFAULT_SEED = 2019

#: The six replay-driven matrix rows (``port-contention`` is the
#: ``fig10-smt`` workload of its own).
REPLAY_ATTACKS = ("cf-cache", "secret-id", "loop-secret",
                  "interrupt-replay", "mispredict", "controlled-channel")

FLEET_LABEL = "fleet-lanes"
FLEET_LANES = 128
#: Lanes checked against scalar runs at a non-default seed.
FLEET_SAMPLE = 4


def _matrix_reference(root: Path) -> Dict[str, Any]:
    path = root / "docs" / "results.json"
    return json.loads(path.read_text())["matrix"]["cells"]


def _strip_seed(cell: Dict[str, Any]) -> Dict[str, Any]:
    return {k: v for k, v in cell.items() if k != "seed"}


def check_cells(cells: Dict[str, Any], reference: Dict[str, Any],
                expected: List[str]) -> Tuple[int, List[str]]:
    """Compare matrix cells (metrics and classification) with the
    reference; a missing, errored or differing cell is a failure."""
    failures = []
    for key in expected:
        cell = cells.get(key)
        if cell is None:
            failures.append(f"{key}: missing")
        elif key not in reference:
            failures.append(f"{key}: no reference")
        elif _strip_seed(cell) != _strip_seed(reference[key]):
            error = cell["metrics"].get("error")
            failures.append(f"{key}: differs from the reference"
                            + (f" ({error})" if error else ""))
    return len(expected), failures


class MatrixReplay:
    """The six replay-driven attacks × every defense, submitted cold
    as one job to an in-process ``repro.service`` server."""

    name = "matrix-replay"
    unit = "cells"

    def __init__(self, root: Path, seed: int, tiny: bool) -> None:
        from repro.evaluation.defenses import defense_names
        self.root = root
        self.seed = seed
        self.attacks = ("cf-cache", "loop-secret") if tiny \
            else REPLAY_ATTACKS
        self.defenses = ("none", "jv-counter") if tiny \
            else defense_names()

    def setup(self) -> Dict[str, Any]:
        from repro.service import JobSpec, ServiceClient
        from repro.service.server import serve
        reference = _matrix_reference(self.root)
        scratch = self.root / ".perfbench"
        scratch.mkdir(exist_ok=True)
        state = Path(tempfile.mkdtemp(prefix="service-", dir=scratch))
        ready = threading.Event()
        thread = threading.Thread(
            target=serve, args=(state,),
            kwargs={"on_ready": lambda _server: ready.set()},
            name="perfbench-server", daemon=True)
        thread.start()
        if not ready.wait(30):
            raise RuntimeError("service did not come up in 30 s")
        spec = JobSpec(attacks=self.attacks, defenses=self.defenses,
                       master_seed=self.seed, workers=1).resolved()
        return {"reference": reference, "state": state,
                "thread": thread, "spec": spec,
                "client": ServiceClient(state_dir=state, timeout=120)}

    def run_pass(self, ctx: Dict[str, Any]) -> Dict[str, Any]:
        client = ctx["client"]
        submitted_at = time.perf_counter()
        job = client.submit(ctx["spec"])["job"]
        state = None
        for event in client.watch(job):
            if event.get("event") == "state":
                state = event.get("state")
        if state != "done":
            raise RuntimeError(f"service job {job} ended {state!r}")
        return {"cells": client.result(job)["cells"],
                "submitted_at": submitted_at}

    def check(self, ctx: Dict[str, Any], output: Dict[str, Any]
              ) -> Tuple[int, List[str]]:
        expected = [f"{a}/{d}" for a in self.attacks
                    for d in self.defenses]
        return check_cells(output["cells"], ctx["reference"], expected)

    def teardown(self, ctx: Dict[str, Any]) -> None:
        try:
            ctx["client"].shutdown()
        finally:
            ctx["thread"].join(30)
            shutil.rmtree(ctx["state"], ignore_errors=True)
        if ctx["thread"].is_alive():
            raise RuntimeError("service thread did not stop")


class Fig10Smt:
    """``port-contention`` × {``none``, ``jv-counter``} through an
    in-process ``MatrixRunner(workers=1)``: the Fig. 10 headline."""

    name = "fig10-smt"
    unit = "cells"
    defenses = ("none", "jv-counter")

    def __init__(self, root: Path, seed: int, tiny: bool) -> None:
        self.root = root
        self.seed = seed
        self.tiny = tiny
        # Tiny mode shrinks the measurement; its cells then compare
        # with the benchmark's own tiny reference.
        self.overrides = ({"port-contention": {
            "measurements": 60, "calibrate_samples": 40}}
            if tiny else {})

    def setup(self) -> Dict[str, Any]:
        from repro.evaluation.matrix import MatrixRunner
        if self.tiny:
            reference = json.loads(
                (REFERENCE_DIR / "tiny.json").read_text())["fig10-smt"]
        else:
            reference = _matrix_reference(self.root)
        runner = MatrixRunner(attacks=("port-contention",),
                              defenses=self.defenses,
                              overrides=self.overrides,
                              master_seed=self.seed, workers=1)
        return {"reference": reference, "runner": runner}

    def run_pass(self, ctx: Dict[str, Any]) -> Dict[str, Any]:
        return {"cells": ctx["runner"].run().to_dict()["cells"]}

    def check(self, ctx: Dict[str, Any], output: Dict[str, Any]
              ) -> Tuple[int, List[str]]:
        expected = [f"port-contention/{d}" for d in self.defenses]
        return check_cells(output["cells"], ctx["reference"], expected)

    def teardown(self, ctx: Dict[str, Any]) -> None:
        pass


def fleet_workload_module(root: Path) -> Any:
    """The repository's shared FNV-checksum fleet workload."""
    path = str(root / "benchmarks")
    if path not in sys.path:
        sys.path.insert(0, path)
    import throughput_workloads
    return throughput_workloads


def fleet_lane_seeds(seed: int, lanes: int) -> List[int]:
    """Each lane's trial seed, as the sweep derives it."""
    from repro.harness import derive_seed
    return [derive_seed(seed, i, FLEET_LABEL) for i in range(lanes)]


class FleetLanes:
    """The FNV-checksum ``FleetTrial`` through
    ``Experiment(backend="batch", workers=1)``."""

    name = "fleet-lanes"
    unit = "lanes"

    def __init__(self, root: Path, seed: int, tiny: bool) -> None:
        self.root = root
        self.seed = seed
        self.lanes = 8 if tiny else FLEET_LANES
        #: Scalar outcomes of the sampled lanes (non-default seeds).
        self.sampled: Any = None

    def setup(self) -> Dict[str, Any]:
        from repro.experiment import Experiment
        workloads = fleet_workload_module(self.root)
        if self.seed == DEFAULT_SEED:
            reference = json.loads((REFERENCE_DIR / "fleet_lanes.json")
                                   .read_text())["outcomes"]
            if len(reference) < self.lanes:
                raise RuntimeError("fleet reference has too few lanes")
            reference = {i: reference[i] for i in range(self.lanes)}
        else:
            reference = None
        experiment = Experiment(
            trial=workloads.FLEET_TRIAL, sweep=[None] * self.lanes,
            master_seed=self.seed, label=FLEET_LABEL, backend="batch",
            workers=1)
        return {"reference": reference, "experiment": experiment,
                "plan": workloads.FLEET_PLAN}

    def run_pass(self, ctx: Dict[str, Any]) -> Dict[str, Any]:
        return {"outcomes": ctx["experiment"].run().results}

    def check(self, ctx: Dict[str, Any], output: Dict[str, Any]
              ) -> Tuple[int, List[str]]:
        outcomes = output["outcomes"]
        failures: Dict[int, str] = {}
        reference = ctx["reference"] or self.sampled
        if reference is None:
            # No committed outcomes at this seed: run a spread sample
            # of lanes through the scalar reference instead.
            from repro.batch import run_lane_scalar
            seeds = fleet_lane_seeds(self.seed, self.lanes)
            step = max(self.lanes // FLEET_SAMPLE, 1)
            reference = {i: list(run_lane_scalar(ctx["plan"], seeds[i],
                                                 None))
                         for i in range(0, self.lanes, step)}
            self.sampled = reference
        for lane in range(self.lanes):
            got = outcomes[lane] if lane < len(outcomes) else None
            if got is None:
                failures[lane] = f"lane {lane}: no result"
            elif lane in reference and list(got) != reference[lane]:
                failures[lane] = (f"lane {lane}: {got!r} != "
                                  f"{reference[lane]!r}")
        return self.lanes, list(failures.values())

    def teardown(self, ctx: Dict[str, Any]) -> None:
        pass


WORKLOADS = {cls.name: cls for cls in (MatrixReplay, Fig10Smt,
                                        FleetLanes)}
