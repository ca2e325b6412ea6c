"""The sparse tag store against a dense reference model.

:class:`DenseCache` is the tag store as one row per set, allocated up
front — the layout every snapshot digest and memo key was computed
over.  Random operation sequences run on both; every observable
(hits, victims, observer calls, stats) and the serialized form of the
capture and of the live object must agree byte for byte.
"""

import copyreg
import pickle

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mem.cache import Cache, CacheConfig
from repro.mem.replacement import make_policy
from repro.observability.stats import CacheStats
from repro.snapshot.digest import canonical_dump


class DenseCache:
    """Reference: a dense tag store with the shipped cache's semantics."""

    def __init__(self, config):
        self.config, ways, n = config, config.ways, config.num_sets
        self.policy = make_policy(config.policy, ways, config.policy_seed)
        self.tags = [[None] * ways for _ in range(n)]
        self.dirty = [[False] * ways for _ in range(n)]
        self.meta = [self.policy.new_state() for _ in range(n)]
        self.where, self.occupied = {}, [False] * ways
        self.stats, self.observers = CacheStats(), []

    def lookup(self, paddr, is_write=False):
        place = self.where.get(paddr & ~63)
        if place is None:
            self.stats.misses += 1
            return False
        s, w = place
        self.policy.on_access(self.meta[s], w)
        if is_write:
            self.dirty[s][w] = True
        self.stats.hits += 1
        return True

    def insert(self, paddr, dirty=False):
        line = paddr & ~63
        if line in self.where:
            s, w = self.where[line]
            self.policy.on_access(self.meta[s], w)
            self.dirty[s][w] |= dirty
            return None
        s = (paddr >> 6) % self.config.num_sets
        tags = self.tags[s]
        self.occupied[:] = [tag is not None for tag in tags]
        w = self.policy.choose_victim(self.meta[s], self.occupied)
        evicted = tags[w]
        if evicted is not None:
            del self.where[evicted]
            self.stats.evictions += 1
            for callback in self.observers:
                callback(evicted, self.dirty[s][w])
        tags[w], self.dirty[s][w], self.where[line] = line, dirty, (s, w)
        self.policy.on_fill(self.meta[s], w)
        return evicted

    def invalidate(self, paddr):
        line = paddr & ~63
        place = self.where.pop(line, None)
        if place is None:
            return False
        s, w = place
        was_dirty = self.dirty[s][w]
        self.tags[s][w], self.dirty[s][w] = None, False
        self.policy.on_invalidate(self.meta[s], w)
        self.stats.invalidations += 1
        for callback in self.observers:
            callback(line, was_dirty)
        return True

    def flush_all(self):
        for line in list(self.where):
            self.invalidate(line)

    def capture(self):
        clone = self.policy.clone_state
        return ([list(r) for r in self.tags], [list(r) for r in self.dirty],
                [clone(m) for m in self.meta], dict(self.where),
                self.policy.capture_rng(), self.stats.capture())

    def restore(self, state):
        tags, dirty, meta, where, rng, stats = state
        self.tags = [list(r) for r in tags]
        self.dirty = [list(r) for r in dirty]
        self.meta = [self.policy.clone_state(m) for m in meta]
        self.where = dict(where)
        self.policy.restore_rng(rng)
        self.stats.restore(stats)

    # Pickle exactly as a dense ``Cache`` would (the pickler insists
    # that a __newobj__ class matches the object's __class__).
    @property
    def __class__(self):
        return Cache

    def __reduce_ex__(self, protocol):
        c = self.config
        return copyreg.__newobj__, (Cache,), (None, {
            "config": c, "name": c.name, "latency": c.latency,
            "_num_sets": c.num_sets, "_ways": c.ways,
            "_line_shift": c.line_size.bit_length() - 1,
            "_policy": self.policy, "_tags": self.tags,
            "_dirty": self.dirty, "_meta": self.meta, "_where": self.where,
            "_occupied": self.occupied, "stats": self.stats,
            "_evict_observers": self.observers})


def make_pair(policy, ways, sets):
    # The policy name is rebuilt so it is not the interned literal:
    # pickle memoizes strings by identity, and an interned "random"
    # would share a memo slot with RandomPolicy's module name — a
    # sharing no unpickled copy has, in either layout.
    config = CacheConfig("T", size_bytes=ways * sets * 64, ways=ways,
                         latency=3, policy="".join(policy), policy_seed=7)
    cache, ref = Cache(config), DenseCache(config)
    cache_log, ref_log = [], []
    cache.add_evict_observer(lambda line, d: cache_log.append((line, d)))
    ref.observers.append(lambda line, d: ref_log.append((line, d)))
    return cache, ref, cache_log, ref_log


def assert_same_bytes(cache, ref):
    assert canonical_dump(cache.capture()) == canonical_dump(ref.capture())
    assert canonical_dump(cache) == canonical_dump(ref)
    # Capture and live object in one stream: they share the
    # (set, way) tuples of the line index, as an enclave digest does.
    assert (canonical_dump((cache.capture(), cache))
            == canonical_dump((ref.capture(), ref)))


def pickle_round_trip(cache):
    """A pickled-and-loaded copy of *cache*, observers re-attached
    (registrations are identity, not state)."""
    observers, cache._evict_observers = cache._evict_observers, []
    clone = pickle.loads(pickle.dumps(cache))
    cache._evict_observers = clone._evict_observers = observers
    return clone


LINE = st.integers(0, 15).map(lambda i: i * 64 + 8)
OPS = st.lists(st.one_of(
    st.tuples(st.just("lookup"), LINE, st.booleans()),
    st.tuples(st.just("insert"), LINE, st.booleans()),
    st.tuples(st.just("invalidate"), LINE),
    st.tuples(st.just("flush")),
    st.tuples(st.just("capture")),
    st.tuples(st.just("restore"), st.integers(0, 7)),
    st.tuples(st.just("pickle")),
), max_size=60)


@settings(max_examples=120, deadline=None)
@given(policy=st.sampled_from(["lru", "plru", "random"]),
       ways=st.sampled_from([1, 2, 4]), sets=st.sampled_from([1, 2, 4]),
       ops=OPS)
def test_sparse_cache_matches_dense_reference(policy, ways, sets, ops):
    cache, ref, cache_log, ref_log = make_pair(policy, ways, sets)
    cache_caps, ref_caps = [], []
    for op in ops:
        kind = op[0]
        if kind == "lookup":
            assert cache.lookup(op[1], op[2]) == ref.lookup(op[1], op[2])
        elif kind == "insert":
            assert cache.insert(op[1], op[2]) == ref.insert(op[1], op[2])
        elif kind == "invalidate":
            assert cache.invalidate(op[1]) == ref.invalidate(op[1])
        elif kind == "flush":
            cache.flush_all()
            ref.flush_all()
        elif kind == "capture":
            cache_caps.append(cache.capture())
            ref_caps.append(ref.capture())
        elif kind == "restore" and cache_caps:
            k = op[1] % len(cache_caps)
            cache.restore(cache_caps[k])
            ref.restore(ref_caps[k])
        elif kind == "pickle":
            cache = pickle_round_trip(cache)
        assert cache_log == ref_log
        assert cache.stats.capture() == ref.stats.capture()
        assert cache.resident_lines() == sorted(ref.where)
        assert canonical_dump(cache.capture()) == canonical_dump(
            ref.capture())
    assert_same_bytes(cache, ref)
    assert_same_bytes(pickle_round_trip(cache), ref)


def test_plru_metadata_outlives_an_emptied_set():
    """Tree-PLRU bits stay in a set whose lines are all gone, through
    capture, restore into a fresh cache, and refill."""
    cache, ref, cache_log, ref_log = make_pair("plru", 4, 2)
    lines = [i * 128 for i in range(5)]  # all map to set 0
    for line in lines:
        cache.insert(line)
        ref.insert(line)
    cache.lookup(lines[2])
    ref.lookup(lines[2])
    for line in lines:
        assert cache.invalidate(line) == ref.invalidate(line)
    assert len(cache) == 0
    snapshot = cache.capture()
    default = make_policy("plru", 4).new_state()
    assert snapshot[2][0] != default  # the set is empty, its bits are not
    assert_same_bytes(cache, ref)

    fresh, _, fresh_log, _ = make_pair("plru", 4, 2)
    fresh.restore(snapshot)
    assert canonical_dump(fresh.capture()) == canonical_dump(snapshot)
    assert canonical_dump(fresh.capture()) == canonical_dump(ref.capture())
    mark = len(ref_log)
    for line in lines + lines[:2]:
        assert fresh.insert(line, dirty=True) == ref.insert(line, dirty=True)
        assert_same_bytes(fresh, ref)
    assert fresh_log == ref_log[mark:]
    assert cache_log == ref_log[:mark]
