"""A machine's memory cost does not grow with its cache geometry.

The tag store is sparse, so building a machine and restoring one from
a capture allocate the same whether the L3 has 2,048 sets or 32,768.
Allocation is counted with ``tracemalloc``, so the check does not
depend on host speed.
"""

import tracemalloc

from repro.config import MachineConfig
from repro.cpu.machine import Machine
from repro.mem.cache import CacheConfig
from repro.mem.hierarchy import HierarchyConfig

#: Slack between the two geometries, far below one dense L3 row table
#: (the 16x L3 below would need megabytes).
SLACK_BYTES = 4 * 1024


def big_l3_config() -> MachineConfig:
    l1, l2, l3 = HierarchyConfig().levels
    bigger = CacheConfig(l3.name, size_bytes=16 * l3.size_bytes,
                         ways=l3.ways, latency=l3.latency)
    return MachineConfig(hierarchy=HierarchyConfig(levels=(l1, l2, bigger)))


def peak_allocation(fn, repeats: int = 5) -> int:
    """Bytes allocated at the peak of ``fn()`` above the level before
    it (what it allocates and keeps, plus its transient high mark).
    The least of a few calls: objects recycled from CPython's free
    lists are not traced, which moves single readings by a few KiB."""
    readings = []
    for _ in range(repeats):
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            result = fn()
            readings.append(tracemalloc.get_traced_memory()[1] - before)
        finally:
            tracemalloc.stop()
        del result
    return min(readings)


def warmed_capture(config: MachineConfig):
    """A capture of a machine whose caches hold lines in many sets."""
    machine = Machine(config)
    for level in machine.hierarchy.levels:
        for line in range(0, 512 * 64, 64):
            level.insert(line, dirty=bool(line & 128))
    return machine.capture()


def test_machine_construction_is_geometry_independent():
    Machine(MachineConfig())  # warm imports and caches
    default, big = (peak_allocation(lambda: Machine(config))
                    for config in (MachineConfig(), big_l3_config()))
    assert abs(big - default) < SLACK_BYTES, (default, big)


def test_restore_is_geometry_independent():
    costs = []
    for config in (MachineConfig(), big_l3_config()):
        snapshot = warmed_capture(config)
        machine = Machine(config)
        machine.restore(snapshot)  # warm
        costs.append(peak_allocation(lambda: machine.restore(snapshot)))
    default, big = costs
    assert abs(big - default) < SLACK_BYTES, (default, big)
