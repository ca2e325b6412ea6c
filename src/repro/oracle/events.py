"""Structured leakage events and their per-run summary.

A :class:`LeakageEvent` records one moment where the *observable*
component of a microarchitectural event — which cache set/way a load
touched, which issue port an instruction occupied, how long a page
walk took, which VPN a fault exposed, what a squash erased — depended
on tainted (secret-derived) state.  Events are raised by the
:class:`~repro.oracle.tracker.TaintOracle`, fed by a probe on the
core and by observers on the cache hierarchy and the page-walk path.

The oracle can see millions of events in one attack cell (a sticky
control taint flags every subsequent issue in that context), so the
:class:`LeakageSummary` keeps bounded state: per-kind counts plus the
first ``max_samples`` full events as exemplars.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Tuple

#: Event kinds, in the order the docs discuss them.
EVENT_KINDS: Tuple[str, ...] = (
    "cache-touch",      # a tainted-address (or secret-region) access
    "port-issue",       # a tainted op occupied an issue port
    "walk-latency",     # a tainted access took a page walk
    "page-fault",       # a taint-dependent VA faulted (OS-visible)
    "squash-replay",    # secret-dependent work was squashed/replayed
    "spec-issue",       # retroactive: squashed wrong-path issue under
                        # a tainted trigger (primed mispredicts)
)

#: Why an event's observable is taint-dependent.
REASONS: Tuple[str, ...] = ("data", "address", "region", "control")


@dataclass(frozen=True)
class LeakageEvent:
    """One secret-dependent observable microarchitectural event."""

    #: One of :data:`EVENT_KINDS`.
    kind: str
    #: Core cycle the event was observed at.
    cycle: int
    #: Hardware context the instruction ran on.
    context_id: int
    #: Program index (PC) of the responsible instruction.
    index: int
    #: Opcode mnemonic of the responsible instruction.
    op: str
    #: Subset of :data:`REASONS` explaining the taint dependence.
    reasons: Tuple[str, ...] = ()
    #: Kind-specific observables (set/way, port name, latency class,
    #: VPN, squash reason...).  JSON-clean values only.
    detail: Mapping[str, Any] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, Any]:
        """Deterministic JSON-ready form."""
        return {
            "kind": self.kind,
            "cycle": self.cycle,
            "context": self.context_id,
            "index": self.index,
            "op": self.op,
            "reasons": list(self.reasons),
            "detail": {k: self.detail[k] for k in sorted(self.detail)},
        }


class LeakageSummary:
    """Bounded accumulator for one oracle activation.

    Counts every event per kind and keeps the first ``max_samples``
    events verbatim; :meth:`to_dict` is deterministic and compact
    enough to embed in a matrix cell's ``detail``.
    """

    def __init__(self, max_samples: int = 32):
        self.max_samples = max_samples
        self.total = 0
        self.counts: Dict[str, int] = {}
        self.samples: List[LeakageEvent] = []

    def record(self, event: LeakageEvent) -> None:
        """Count *event*, keeping it verbatim while under the cap."""
        self.total += 1
        self.counts[event.kind] = self.counts.get(event.kind, 0) + 1
        if len(self.samples) < self.max_samples:
            self.samples.append(event)

    @property
    def verdict(self) -> str:
        """``"leaks"`` when any secret-dependent observable fired,
        else ``"clean"``."""
        return "leaks" if self.total else "clean"

    def to_dict(self) -> Dict[str, Any]:
        """Deterministic JSON-ready form (sorted kind counts)."""
        return {
            "verdict": self.verdict,
            "events": self.total,
            "counts": {k: self.counts[k] for k in sorted(self.counts)},
            "samples": [event.to_dict() for event in self.samples],
        }

    def __repr__(self) -> str:
        return (f"<LeakageSummary {self.verdict} total={self.total} "
                f"counts={self.counts}>")
