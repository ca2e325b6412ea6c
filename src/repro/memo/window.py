"""Level 1: replay-window memoization.

MicroScope's replay handle forces the pipeline to re-execute the same
instruction window over and over; a sweep replays the same windows
across trials as well.  :class:`WindowMemo` keys each window by the
stable digest of the machine snapshot at its start
(:func:`repro.snapshot.digest.state_digest`) plus the replay recipe's
fingerprint, and on a hit splices the recorded outcome — the final
platform snapshot, which carries the emitted monitor observations,
stat-group deltas and metrics instruments — back into the machine
instead of simulating a single cycle.

Soundness over hit rate: the digest is a pure function of logical
state, so two equal keys imply bit-identical executions; anything the
key cannot see (bound-method callbacks, non-primitive closure state,
core probes that steer execution) raises :class:`~repro.memo.keys.Unmemoizable` upstream and runs cold.
A poisoned entry (integrity digest mismatch, undecodable result,
failed restore, rejected by the verify hook) degrades to a recompute
with a counter bump — never a wrong result.
"""

from __future__ import annotations

import hashlib
import pickle
import time
from collections import OrderedDict
from typing import Any, Callable, Dict, Optional

from repro.memo.keys import canonical_json
from repro.snapshot.digest import state_digest
from repro.snapshot.machine import MachineSnapshot, SnapshotError

#: Counter names every :class:`WindowMemo` maintains.
WINDOW_COUNTERS = ("hits", "misses", "uncacheable", "corrupt",
                   "rejected", "evictions")


class _Entry:
    __slots__ = ("final", "payload", "sha256")

    def __init__(self, final: MachineSnapshot, payload: bytes):
        self.final = final
        self.payload = payload
        self.sha256 = hashlib.sha256(payload).hexdigest()


class WindowMemo:
    """An LRU cache of replayed-window outcomes.

    ``run(env, extra_key, run_fn)`` takes a pre-snapshot of *env*,
    keys it together with *extra_key* (typically the recipe
    fingerprint), and either restores a recorded final snapshot (hit)
    or executes *run_fn* cold and records its outcome (miss).  The
    returned value is ``run_fn``'s result, pickled on record so a hit
    returns an equal-but-independent object, exactly like a worker
    -process round trip.
    """

    def __init__(self, max_entries: int = 64, *,
                 metrics: Any = None, tracer: Any = None,
                 verify: Optional[Callable[[Any], bool]] = None):
        if max_entries < 1:
            raise ValueError("max_entries must be >= 1")
        self.max_entries = max_entries
        self.metrics = metrics
        self.tracer = tracer
        self.verify = verify
        self._entries: "OrderedDict[str, _Entry]" = OrderedDict()
        self._counts: Dict[str, int] = {name: 0
                                        for name in WINDOW_COUNTERS}
        self._bytes = 0
        self._t0 = time.perf_counter()

    # --- accounting -------------------------------------------------------

    def _bump(self, name: str, amount: int = 1) -> None:
        self._counts[name] += amount
        if self.metrics is not None:
            self.metrics.counter(f"memo.window.{name}").inc(amount)

    def _trace(self, name: str, started: float, **args: Any) -> None:
        if self.tracer is None:
            return
        from repro.observability.tracer import MEMO_TID
        now = time.perf_counter() - self._t0
        self.tracer.complete(name, int(started * 1e6),
                             int((now - started) * 1e6),
                             cat="memo", tid=MEMO_TID, **args)

    def counts(self) -> Dict[str, int]:
        """Copy of the hit/miss/degradation counters."""
        return dict(self._counts, bytes=self._bytes,
                    entries=len(self._entries))

    def note_uncacheable(self) -> None:
        """Record a window that could not be keyed (ran cold)."""
        self._bump("uncacheable")

    def __len__(self) -> int:
        return len(self._entries)

    def clear(self) -> None:
        """Drop every entry (counters are preserved)."""
        self._entries.clear()
        self._bytes = 0

    # --- the memoized run -------------------------------------------------

    @staticmethod
    def _key(pre: MachineSnapshot, extra_key: Any) -> str:
        material = (state_digest(pre)
                    + canonical_json(extra_key)).encode()
        return hashlib.sha256(material).hexdigest()

    def key_for(self, env: Any, extra_key: Any) -> str:
        """The window key for *env*'s current state + *extra_key*."""
        return self._key(MachineSnapshot.take(env), extra_key)

    def run(self, env: Any, extra_key: Any,
            run_fn: Callable[[], Any]) -> Any:
        """Execute (or splice) one window; returns *run_fn*'s result."""
        started = time.perf_counter() - self._t0
        pre = MachineSnapshot.take(env)
        key = self._key(pre, extra_key)
        entry = self._entries.get(key)
        if entry is not None:
            result = self._replay(env, pre, key, entry)
            if result is not _MISS:
                self._bump("hits")
                self._trace("memo.window.hit", started, key=key[:16])
                return result
        self._bump("misses")
        result = run_fn()
        payload = pickle.dumps(result,
                               protocol=pickle.HIGHEST_PROTOCOL)
        self._store(key, _Entry(MachineSnapshot.take(env), payload))
        self._trace("memo.window.miss", started, key=key[:16])
        return result

    def _replay(self, env: Any, pre: MachineSnapshot, key: str,
                entry: _Entry) -> Any:
        """Splice a recorded outcome into *env*; ``_MISS`` on any
        integrity failure (the entry is dropped and recomputed)."""
        if hashlib.sha256(entry.payload).hexdigest() != entry.sha256:
            self._drop(key, "corrupt")
            return _MISS
        try:
            result = pickle.loads(entry.payload)
        except Exception:
            self._drop(key, "corrupt")
            return _MISS
        if self.verify is not None and not self.verify(result):
            self._drop(key, "rejected")
            return _MISS
        try:
            entry.final.restore(env)
        except SnapshotError:
            pre.restore(env)
            self._drop(key, "corrupt")
            return _MISS
        self._entries.move_to_end(key)
        return result

    def _drop(self, key: str, reason: str) -> None:
        entry = self._entries.pop(key, None)
        if entry is not None:
            self._bytes -= len(entry.payload)
        self._bump(reason)

    def _store(self, key: str, entry: _Entry) -> None:
        old = self._entries.pop(key, None)
        if old is not None:
            self._bytes -= len(old.payload)
        self._entries[key] = entry
        self._bytes += len(entry.payload)
        if self.metrics is not None:
            self.metrics.counter("memo.window.bytes").inc(
                len(entry.payload))
        while len(self._entries) > self.max_entries:
            _evicted_key, evicted = self._entries.popitem(last=False)
            self._bytes -= len(evicted.payload)
            self._bump("evictions")


class _Miss:
    __slots__ = ()


#: Internal sentinel distinguishing "integrity miss" from a recorded
#: result of ``None``.
_MISS = _Miss()


__all__ = ["WindowMemo", "WINDOW_COUNTERS"]
