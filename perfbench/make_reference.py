"""Regenerate the benchmark's committed references.

    python3 perfbench/make_reference.py

Writes, under ``perfbench/reference/``:

* ``fleet_lanes.json`` — every ``fleet-lanes`` lane's outcome at the
  default seed, from the scalar reference ``run_lane_scalar`` (one
  machine per lane, no fleet);
* ``tiny.json`` — the cells of the tiny ``fig10-smt`` run and the
  fingerprints of every tiny workload;
* ``fingerprints.json`` — the simulated-statistics fingerprint of one
  pass of each full-size workload.

Rerun it only when a change is meant to alter simulated results.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402


def write(name: str, payload: object) -> None:
    path = run.HERE / "reference" / name
    path.parent.mkdir(exist_ok=True)
    path.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
    print(f"wrote {path}")


def fingerprint_pass(workload: object) -> dict:
    import fingerprint
    ctx = workload.setup()
    try:
        output = run.run_one_pass(workload, ctx)
    finally:
        workload.teardown(ctx)
    return fingerprint.of(output["machines"])


def main() -> None:
    run.import_program()
    import workloads
    from repro.batch import run_lane_scalar
    plan = workloads.fleet_workload_module(run.ROOT).FLEET_PLAN
    seeds = workloads.fleet_lane_seeds(workloads.DEFAULT_SEED,
                                       workloads.FLEET_LANES)
    write("fleet_lanes.json", {
        "seed": workloads.DEFAULT_SEED, "label": workloads.FLEET_LABEL,
        "outcomes": [list(run_lane_scalar(plan, seed, None))
                     for seed in seeds]})

    # The tiny fig10-smt cells first: that workload's set-up reads
    # them as its reference.
    from repro.evaluation.matrix import MatrixRunner
    tiny_fig10 = workloads.Fig10Smt(run.ROOT, workloads.DEFAULT_SEED,
                                    tiny=True)
    cells = MatrixRunner(attacks=("port-contention",),
                         defenses=tiny_fig10.defenses,
                         overrides=tiny_fig10.overrides,
                         master_seed=workloads.DEFAULT_SEED,
                         workers=1).run().to_dict()["cells"]
    write("tiny.json", {"fig10-smt": cells, "fingerprints": {}})
    for tiny, name in ((True, "tiny.json"),
                       (False, "fingerprints.json")):
        prints = {key: fingerprint_pass(cls(run.ROOT,
                                            workloads.DEFAULT_SEED, tiny))
                  for key, cls in workloads.WORKLOADS.items()}
        write(name, {"fig10-smt": cells, "fingerprints": prints}
              if tiny else prints)


if __name__ == "__main__":
    main()
