"""A single set-associative cache level (tag store only).

Caches model presence, recency and dirtiness of 64-byte lines; data
itself always lives in :class:`~repro.mem.physical.PhysicalMemory`.
Observers can subscribe to line evictions/invalidations — the TSX model
uses this to abort transactions whose write set loses a line, exactly
the abort trigger MicroScope's Section 7.1 exploits.

The tag store is *sparse* in memory: per-set rows (tags, dirty bits)
exist only for sets that have been filled, and replacement metadata
only for those sets plus any set whose metadata differs from
``policy.new_state()`` (tree-PLRU bits outlive invalidation).  A
platform touches a few hundred lines of a hierarchy with thousands of
sets, so construction is O(1) and :meth:`Cache.restore` costs the
resident lines, not the geometry.

The *serialized* form stays the dense per-set layout: :meth:`Cache.
capture` returns one row per set, and pickling a live cache emits
exactly the bytes a dense tag store would.  Snapshot digests and memo
keys are SHA-256s of those bytes, and an enclave platform's digest
reaches the live machine (and so the live caches) through its kernel,
so the in-memory layout must not show through either path.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress, repeat
from operator import itemgetter, ne
from typing import Callable, Dict, List, Optional, Tuple

from repro.mem.replacement import ReplacementPolicy, make_policy
from repro.observability.stats import CacheStats

__all__ = ["Cache", "CacheConfig", "CacheStats", "LINE_SIZE",
           "LINE_SHIFT", "line_of"]

LINE_SIZE = 64
LINE_SHIFT = 6


def line_of(paddr: int) -> int:
    """Line address (paddr with the offset bits cleared)."""
    return paddr & ~(LINE_SIZE - 1)


@dataclass
class CacheConfig:
    """Geometry and timing of one cache level."""

    name: str
    size_bytes: int
    ways: int
    latency: int
    line_size: int = LINE_SIZE
    policy: str = "lru"
    policy_seed: int = 0

    @property
    def num_sets(self) -> int:
        sets = self.size_bytes // (self.ways * self.line_size)
        if sets <= 0 or self.size_bytes % (self.ways * self.line_size):
            raise ValueError(
                f"{self.name}: size {self.size_bytes} not divisible into "
                f"{self.ways}-way sets of {self.line_size}B lines")
        return sets


def _fresh_rows(template, count: int) -> list:
    """*count* independent copies of one set's *template* row, built at
    C speed.  Mirrors :meth:`ReplacementPolicy.clone_state`: list
    states are copied, anything else is immutable and shared."""
    if isinstance(template, list):
        return list(map(list, repeat(template, count)))
    return [template] * count


class Cache:
    """One level of the cache hierarchy."""

    # The pickled form lists the slots in this order: digests of
    # existing snapshots were computed over it.
    __slots__ = ("config", "name", "latency", "_num_sets", "_ways",
                 "_line_shift", "_policy", "_tags", "_dirty", "_meta",
                 "_where", "_occupied", "stats", "_evict_observers")

    def __init__(self, config: CacheConfig):
        config.num_sets  # validate geometry eagerly
        self.config = config
        self.name = config.name
        self.latency = config.latency
        self._num_sets = config.num_sets
        self._ways = config.ways
        self._line_shift = config.line_size.bit_length() - 1
        self._policy: ReplacementPolicy = make_policy(
            config.policy, config.ways, config.policy_seed)
        # Sparse per-set state keyed by set index.  A set gets its tag
        # row (line address per way, or None) and dirty row on first
        # fill; every set with rows also has metadata.  Metadata may
        # additionally exist for a set without rows when it differs
        # from policy.new_state().  A dirty bit is only ever set on a
        # resident line, so sets without rows are all-clean.
        self._tags: Dict[int, List[Optional[int]]] = {}
        self._dirty: Dict[int, List[bool]] = {}
        self._meta: dict = {}
        # line address -> (set index, way) for O(1) lookups that never
        # recompute the set index.
        self._where: Dict[int, Tuple[int, int]] = {}
        # Scratch occupancy buffer reused by every insert() so the hot
        # fill path allocates nothing.
        self._occupied: List[bool] = [False] * self._ways
        self.stats = CacheStats()
        self._evict_observers: List[Callable[[int, bool], None]] = []

    # --- geometry helpers ---------------------------------------------

    def set_index(self, paddr: int) -> int:
        return (paddr >> self._line_shift) % self._num_sets

    def lines_mapping_to(self, paddr: int, count: int,
                         stride_base: int = 1 << 30) -> List[int]:
        """Return *count* distinct line addresses that map to the same
        set as *paddr* (an eviction set), starting far away from it.

        The target line itself is never part of the set: when *paddr*
        lands at or above *stride_base* the naive arithmetic sequence
        walks straight through it, which would silently self-evict the
        probe target (or alias two attacker allocations).
        """
        target_line = line_of(paddr)
        target_set = self.set_index(paddr)
        span = self._num_sets << self._line_shift
        addr = stride_base + (target_set << self._line_shift)
        lines: List[int] = []
        while len(lines) < count:
            if addr != target_line:
                lines.append(addr)
            addr += span
        return lines

    # --- observers ------------------------------------------------------

    def add_evict_observer(self, callback: Callable[[int, bool], None]):
        """Register ``callback(line_addr, was_dirty)`` fired whenever a
        line leaves this cache (eviction or invalidation)."""
        self._evict_observers.append(callback)

    def _notify_evict(self, line_addr: int, dirty: bool):
        for callback in self._evict_observers:
            callback(line_addr, dirty)

    # --- main operations --------------------------------------------------

    def lookup(self, paddr: int, is_write: bool = False) -> bool:
        """Probe for *paddr*; update recency (and dirtiness on write)."""
        line_addr = paddr & ~(LINE_SIZE - 1)
        place = self._where.get(line_addr)
        if place is None:
            self.stats.misses += 1
            return False
        set_idx, way = place
        self._policy.on_access(self._meta[set_idx], way)
        if is_write:
            self._dirty[set_idx][way] = True
        self.stats.hits += 1
        return True

    def contains(self, paddr: int) -> bool:
        """Non-intrusive presence check (no recency update, no stats)."""
        return line_of(paddr) in self._where

    def locate(self, paddr: int) -> Optional[Tuple[int, int]]:
        """``(set index, way)`` of *paddr*'s line, or ``None`` when not
        resident.  Non-intrusive (no recency update, no stats) — this
        is the observable the leakage oracle attributes set/way-touch
        events to."""
        return self._where.get(line_of(paddr))

    def insert(self, paddr: int, dirty: bool = False) -> Optional[int]:
        """Fill the line of *paddr*; return the evicted line address (and
        record its dirtiness via the observer) or ``None``."""
        line_addr = paddr & ~(LINE_SIZE - 1)
        existing = self._where.get(line_addr)
        if existing is not None:
            set_idx, way = existing
            self._policy.on_access(self._meta[set_idx], way)
            if dirty:
                self._dirty[set_idx][way] = True
            return None
        set_idx = (paddr >> self._line_shift) % self._num_sets
        try:
            tags = self._tags[set_idx]
        except KeyError:
            tags = self._open_set(set_idx)
        occupied = self._occupied
        for way in range(self._ways):
            occupied[way] = tags[way] is not None
        meta = self._meta[set_idx]
        way = self._policy.choose_victim(meta, occupied)
        dirty_row = self._dirty[set_idx]
        evicted = tags[way]
        if evicted is not None:
            del self._where[evicted]
            self.stats.evictions += 1
            self._notify_evict(evicted, dirty_row[way])
        tags[way] = line_addr
        dirty_row[way] = dirty
        self._where[line_addr] = (set_idx, way)
        self._policy.on_fill(meta, way)
        return evicted

    def _open_set(self, set_idx: int) -> List[Optional[int]]:
        """Create the rows of a set on its first fill; keep metadata a
        restore carried over (tree-PLRU bits of an emptied set)."""
        ways = self._ways
        self._dirty[set_idx] = [False] * ways
        if set_idx not in self._meta:
            self._meta[set_idx] = self._policy.new_state()
        tags = self._tags[set_idx] = [None] * ways
        return tags

    def invalidate(self, paddr: int) -> bool:
        """Drop the line of *paddr* (clflush).  Returns ``True`` if it
        was present."""
        line_addr = line_of(paddr)
        place = self._where.pop(line_addr, None)
        if place is None:
            return False
        set_idx, way = place
        was_dirty = self._dirty[set_idx][way]
        self._tags[set_idx][way] = None
        self._dirty[set_idx][way] = False
        if hasattr(self._policy, "on_invalidate"):
            self._policy.on_invalidate(self._meta[set_idx], way)
        self.stats.invalidations += 1
        self._notify_evict(line_addr, was_dirty)
        return True

    def flush_all(self):
        """Drop every line."""
        for line_addr in list(self._where):
            self.invalidate(line_addr)

    def resident_lines(self) -> List[int]:
        """All line addresses currently cached (sorted, for tests)."""
        return sorted(self._where)

    def __len__(self) -> int:
        return len(self._where)

    # --- snapshot support -------------------------------------------------

    def _dense_rows(self) -> tuple:
        """Fresh dense ``(tags, dirty, meta)`` rows, one per set: the
        untouched sets from one template row each, the sparse rows
        copied over them."""
        n = self._num_sets
        ways = self._ways
        policy = self._policy
        tags = _fresh_rows([None] * ways, n)
        for set_idx, row in self._tags.items():
            tags[set_idx] = list(row)
        dirty = _fresh_rows([False] * ways, n)
        for set_idx, row in self._dirty.items():
            dirty[set_idx] = list(row)
        meta = _fresh_rows(policy.new_state(), n)
        clone = policy.clone_state
        for set_idx, state in self._meta.items():
            meta[set_idx] = clone(state)
        return tags, dirty, meta

    def _load_rows(self, tags: list, dirty: list, meta: list):
        """Rebuild the sparse rows from dense ones (``self._where``
        already set): rows for sets holding a resident line, metadata
        for those plus any set whose metadata is not the default."""
        touched = set(map(itemgetter(0), self._where.values()))
        self._tags = {s: list(tags[s]) for s in touched}
        self._dirty = {s: list(dirty[s]) for s in touched}
        policy = self._policy
        touched.update(compress(range(len(meta)),
                                map(ne, repeat(policy.new_state()), meta)))
        clone = policy.clone_state
        self._meta = {s: clone(meta[s]) for s in touched}

    def capture(self) -> tuple:
        """Clone all mutable tag-store state (see :mod:`repro.snapshot`)
        in the dense per-set layout."""
        tags, dirty, meta = self._dense_rows()
        return (
            tags,
            dirty,
            meta,
            dict(self._where),
            self._policy.capture_rng(),
            self.stats.capture(),
        )

    def restore(self, state: tuple):
        """Restore state captured by :meth:`capture`.  The snapshot is
        cloned again, so one capture supports many restores.  Observer
        registrations are identity, not state, and are left alone."""
        tags, dirty, meta, where, rng, stats = state
        self._where = dict(where)
        self._load_rows(tags, dirty, meta)
        self._policy.restore_rng(rng)
        self.stats.restore(stats)

    def __getstate__(self):
        # The default slots state, with the dense rows in place of the
        # sparse ones: pickles (and so digests) match a dense store.
        state = {name: getattr(self, name) for name in Cache.__slots__}
        state["_tags"], state["_dirty"], state["_meta"] = \
            self._dense_rows()
        return None, state

    def __setstate__(self, state):
        _, slots = state
        for name, value in slots.items():
            setattr(self, name, value)
        self._load_rows(slots["_tags"], slots["_dirty"], slots["_meta"])
