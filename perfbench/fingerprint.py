"""Simulated-statistics fingerprint of one pass.

Every machine a pass builds is collected (``collect_machines``); the
fingerprint is the machine count, the summed ``Machine.cycle`` and the
sum-merged metrics dump (``merge_dumps``): cycles, retired, issued,
squashed, port contention, cache, TLB, page-walker, kernel, MicroScope
and defense counters.  The simulator is deterministic and no
workload's counts depend on the seed, so each workload has one
committed fingerprint (``reference/fingerprints.json``) and every
pass of every run must reproduce it exactly.  A change meant only to
make the simulator faster must leave it identical.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, List, Optional

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"


def of(machines: List[Any]) -> Dict[str, Any]:
    """The fingerprint of the machines one pass built."""
    from repro.observability import merge_dumps
    counters = merge_dumps([machine.metrics.dump()
                            for machine in machines])
    # A JSON round trip makes it compare equal to the committed form.
    return json.loads(json.dumps({
        "machines": len(machines),
        "cycles": sum(machine.cycle for machine in machines),
        "counters": counters}, sort_keys=True))


def load_reference(tiny: bool) -> Dict[str, Any]:
    """Committed fingerprints by workload name."""
    path = REFERENCE_DIR / ("tiny.json" if tiny else "fingerprints.json")
    payload = json.loads(path.read_text())
    return payload["fingerprints"] if tiny else payload


def compare(got: Dict[str, Any],
            expected: Optional[Dict[str, Any]]) -> List[str]:
    """Human-readable differences (empty when identical)."""
    if expected is None:
        return ["no committed fingerprint for this workload"]
    problems = [f"{key} {got[key]} != {expected[key]}"
                for key in ("machines", "cycles")
                if got[key] != expected[key]]
    counters, reference = got["counters"], expected["counters"]
    for name in sorted(set(counters) | set(reference)):
        if counters.get(name) != reference.get(name):
            problems.append(f"{name} {counters.get(name)!r} != "
                            f"{reference.get(name)!r}")
    return problems
