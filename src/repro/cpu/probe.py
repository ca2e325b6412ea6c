"""Probes: the one way to watch (and hold back) the core's pipeline.

Every consumer that observes the out-of-order core — the two tracers,
the taint oracle, the batch fleet, the machine-level defense
mechanisms and the attacks' SMT observers — is a :class:`Probe`
attached with :meth:`repro.cpu.core.Core.attach`.  A probe overrides
only the callbacks it needs; attach and detach rebuild one tuple of
bound callbacks per event, so an event nobody listens to costs the
core a single empty-tuple check.
"""

from __future__ import annotations

from typing import Any, Iterable, Tuple

#: Callback names; the core keeps one tuple of callbacks per name.
EVENTS: Tuple[str, ...] = ("on_fetch", "on_decode", "may_issue",
                           "on_issue", "on_complete", "on_retire",
                           "on_squash", "on_pte_race")


class Probe:
    """Base class for pipeline observers; every callback is optional.

    Each callback receives the core first, so ``core.cycle`` is the
    current cycle.  Over one dynamic instruction the events arrive in
    pipeline order — ``on_fetch``, ``on_decode``, then ``may_issue``
    on every cycle the entry is ready until one issue succeeds,
    ``on_issue``, ``on_complete``, ``on_retire`` — with ``on_squash``
    ending the lifetime instead of retire when the entry is flushed.
    A faulted load's ``on_pte_race`` comes just before its
    ``on_complete``.  When several probes implement one callback they
    run in attach order.

    ``on_complete`` fires once for every completion of a live
    (unsquashed) entry, *faulted ones included*.  It runs after branch
    misprediction recovery and after the §7.2 PTE race, so
    ``entry.faulted`` is final when a probe sees it; a faulted entry
    carries no value and wakes no dependents.
    """

    __slots__ = ()

    def on_fetch(self, core, context, entry) -> None:
        """*entry* was fetched into the ROB (operands not yet read)."""

    def on_decode(self, core, context, entry, sources: tuple) -> None:
        """Decode resolved *entry*'s operands.  *sources* has one
        element per operand slot: ``None`` (no source register),
        ``("arch", reg)`` (read from architectural state),
        ``("value", producer)`` (copied from a completed producer) or
        ``("pending", producer)`` (woken later by its completion).
        The rename map is updated after this call, so the producer
        identity cannot be recovered any later."""

    def may_issue(self, core, context, entry) -> bool:
        """Consulted before a ready *entry* starts executing.  False
        keeps it in the ready queue for a later cycle and consumes no
        port; the first False stops the remaining probes' checks."""
        return True

    def on_issue(self, core, context, entry) -> None:
        """*entry* began executing (a port or the LSU accepted it)."""

    def on_complete(self, core, context, entry) -> None:
        """*entry* finished executing (see the class docstring)."""

    def on_retire(self, core, context, entry) -> None:
        """*entry* retired; its result is architectural."""

    def on_squash(self, core, context, squashed, reason: str,
                  trigger) -> None:
        """*squashed* (possibly empty) was flushed from *context*.
        *reason* is ``"page-fault"``, ``"mispredict"``,
        ``"memory-order"``, ``"interrupt:<kind>"`` or
        ``"txn-abort:<kind>"``; *trigger* is the entry that caused the
        flush, or None for interrupts and transaction aborts."""

    def on_pte_race(self, core, context, entry) -> bool:
        """A faulted load's walk just finished.  True means the OS won
        the §7.2 race and set the present bit before the walker read
        the leaf entry: the load then completes normally.  The first
        True stops the remaining probes."""
        return False


def _overrides(probe: Probe, event: str) -> bool:
    return getattr(type(probe), event) is not getattr(Probe, event)


def callbacks(probes: Iterable[Probe], event: str) -> tuple:
    """The bound *event* callbacks of the *probes* that override it,
    in order."""
    return tuple(getattr(probe, event) for probe in probes
                 if _overrides(probe, event))


def steers(probe: Probe) -> bool:
    """Whether *probe* can change what the core executes: it overrides
    ``may_issue`` or ``on_pte_race``.  Snapshots and their digests
    never see probes, so a replay window run under such a probe cannot
    be memoized."""
    return _overrides(probe, "may_issue") or _overrides(probe,
                                                        "on_pte_race")


class IssueCounter(Probe):
    """Counts issues of chosen opcodes on the victim's context (0): the
    attacker's SMT view of which execution units the victim uses."""

    def __init__(self, opcodes: Iterable[Any]):
        self.counts = dict.fromkeys(opcodes, 0)

    def on_issue(self, core, context, entry) -> None:
        op = entry.instr.op
        if context.context_id == 0 and op in self.counts:
            self.counts[op] += 1

    def reset(self) -> None:
        """Zero every count (a new observation window)."""
        for op in self.counts:
            self.counts[op] = 0
