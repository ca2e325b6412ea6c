"""Single definition of record for every subsystem's counters.

Historically each subsystem declared its own ``*Stats`` dataclass and
mutated the fields from wherever was convenient; the same counter
semantics were re-implemented (reset, capture/restore tuples) eight
times over.  :class:`StatGroup` consolidates that: one slotted base
class owns the lifecycle — zeroed construction, :meth:`reset`,
bit-exact :meth:`capture`/:meth:`restore`, dict export — and every
concrete group below declares only its field names.

The concrete classes keep their historical names and attribute sets,
and the owning modules (``repro.cpu.context``, ``repro.mem.cache``,
…) re-export them, so legacy access like ``ctx.stats.retired`` and
``from repro.mem.cache import CacheStats`` keeps working unchanged
(see ``tests/observability/test_stats_shim.py``).

Hot paths still increment plain attributes (``self.stats.hits += 1``)
— there is no property or dispatch overhead.  The
:class:`~repro.observability.registry.MetricsRegistry` reads groups
*by reference* at dump time, so registration costs nothing during
simulation.
"""

from __future__ import annotations

from typing import Dict, Tuple


class StatGroup:
    """Base class for a named bundle of integer counters.

    Subclasses declare ``FIELDS`` (and mirror it in ``__slots__``).
    All fields start at zero; keyword arguments may preset them, which
    preserves the constructor surface of the old dataclasses.
    """

    FIELDS: Tuple[str, ...] = ()
    __slots__ = ()

    def __init__(self, **values: int):
        for name in self.FIELDS:
            setattr(self, name, values.pop(name, 0))
        if values:
            unexpected = ", ".join(sorted(values))
            raise TypeError(
                f"{type(self).__name__}: unexpected fields {unexpected}")

    def reset(self) -> None:
        for name in self.FIELDS:
            setattr(self, name, 0)

    def as_dict(self) -> Dict[str, int]:
        return {name: getattr(self, name) for name in self.FIELDS}

    # --- snapshot support -------------------------------------------------

    def capture(self) -> tuple:
        """Field values in declaration order (bit-exact, hashable)."""
        return tuple(getattr(self, name) for name in self.FIELDS)

    def restore(self, state: tuple) -> None:
        if len(state) != len(self.FIELDS):
            raise ValueError(
                f"{type(self).__name__}: snapshot carries {len(state)} "
                f"fields, expected {len(self.FIELDS)}")
        for name, value in zip(self.FIELDS, state):
            setattr(self, name, value)

    # --- conveniences -----------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self.capture() == other.capture()

    def __hash__(self) -> int:
        return hash((type(self).__name__, self.capture()))

    def __repr__(self) -> str:
        fields = ", ".join(f"{n}={getattr(self, n)}" for n in self.FIELDS)
        return f"{type(self).__name__}({fields})"


class ContextStats(StatGroup):
    """Per-hardware-context pipeline event counters."""

    FIELDS = ("fetched", "issued", "retired", "squashed", "squash_events",
              "faults", "replays", "txn_aborts", "interrupts")
    __slots__ = FIELDS


class CacheStats(StatGroup):
    """Per-cache-level hit/miss/eviction counters."""

    FIELDS = ("hits", "misses", "evictions", "invalidations")
    __slots__ = FIELDS


class HierarchyStats(StatGroup):
    """Whole-hierarchy counters (below the last cache level)."""

    FIELDS = ("dram_accesses",)
    __slots__ = FIELDS


class TLBStats(StatGroup):
    """Per-TLB-level counters."""

    FIELDS = ("hits", "misses", "evictions", "invalidations")
    __slots__ = FIELDS


class PWCStats(StatGroup):
    """Page-walk-cache counters."""

    FIELDS = ("hits", "misses")
    __slots__ = FIELDS


class WalkerStats(StatGroup):
    """Hardware page-walker counters."""

    FIELDS = ("walks", "faults", "total_latency")
    __slots__ = FIELDS


class PortStats(StatGroup):
    """Per-execution-port counters: ``issued`` ops, and ``contended``
    issue attempts that found the port held by a non-pipelined op (an
    attempt count, not a cycle count)."""

    FIELDS = ("issued", "contended")
    __slots__ = FIELDS


class PredictorStats(StatGroup):
    """Branch-predictor counters."""

    FIELDS = ("predictions", "mispredictions")
    __slots__ = FIELDS

    @property
    def accuracy(self) -> float:
        if not self.predictions:
            return 1.0
        return 1.0 - self.mispredictions / self.predictions


class KernelStats(StatGroup):
    """OS fault/interrupt accounting."""

    FIELDS = ("page_faults", "minor_faults", "demand_pages", "segfaults",
              "interrupts", "hook_claims")
    __slots__ = FIELDS


class MicroScopeStats(StatGroup):
    """MicroScope module counters (recipe fires, probes, primes)."""

    FIELDS = ("handle_faults", "pivot_faults", "releases", "probes",
              "primes")
    __slots__ = FIELDS


__all__ = [
    "StatGroup",
    "ContextStats",
    "CacheStats",
    "HierarchyStats",
    "TLBStats",
    "PWCStats",
    "WalkerStats",
    "PortStats",
    "PredictorStats",
    "KernelStats",
    "MicroScopeStats",
]
