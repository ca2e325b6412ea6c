"""The retry-counter contract of the dispatch stage.

``cpu.port.<p>.contended`` counts issue attempts that found a candidate
port busy, and ``defense.jamais_vu.blocked_issues`` counts issue
attempts a Jamais Vu gate held back.  Both are the evidence the defense
verdicts rest on, so they must count exactly the attempts the
straightforward dispatcher (try every ready entry, oldest first, price
it, then look for a port) counts — however dispatch is optimised.

Each scenario below runs a small program and compares three things
against goldens recorded from that straightforward dispatcher: the
final cycle, :func:`repro.snapshot.digest.state_digest` of the final
machine and a SHA-256 of the full ``MetricsRegistry`` dump.  The retry
counters are also compared by name, so a drift names the counter.

The scenarios run in one child interpreter with a fixed
``PYTHONHASHSEED``: an enclave platform's digest reaches frozensets of
strings (the port classes in ``CoreConfig``), and the C pickler emits
those in hash order, so their digest is only reproducible under a
fixed string-hash seed.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

from repro.config import MachineConfig
from repro.core.attacks.port_contention import PortContentionAttack
from repro.cpu.config import CoreConfig
from repro.cpu.machine import Machine
from repro.evaluation.defenses import get_defense
from repro.isa.program import ProgramBuilder
from repro.snapshot import MachineSnapshot, state_digest

DATA_BASE = 0x0010_0000
#: Smallest positive subnormal double and the smallest normal one.
TINY = 5e-324
MIN_NORMAL = 2.2250738585072014e-308


def _observe(env, machine: Machine) -> dict:
    dump = machine.metrics.dump()
    retry = {name: value for name, value in dump.items()
             if name.endswith(".contended")
             or name == "defense.jamais_vu.blocked_issues"}
    blob = json.dumps(dump, sort_keys=True, default=repr).encode()
    return {"cycle": machine.cycle,
            "digest": state_digest(MachineSnapshot.take(env)),
            "metrics_sha256": hashlib.sha256(blob).hexdigest(),
            "retry": retry}


def _bare(program0, program1=None, **core) -> dict:
    machine = Machine(MachineConfig(core=CoreConfig(**core)))
    machine.contexts[0].load_program(program0)
    if program1 is not None:
        machine.contexts[1].load_program(program1)
    machine.run(2_000_000)
    assert not machine.core.busy(), "program did not finish"
    return _observe(machine, machine)


# --- scenarios --------------------------------------------------------------


def port_contention_pair(defense: str) -> dict:
    """A short Fig. 10 run: an enclave victim replaying its divides on
    context 0 while the Monitor times fdiv bursts on context 1."""
    attack = PortContentionAttack(
        measurements=120, fault_handler_cost=2_500, max_cycles=2_000_000,
        machine=None if defense == "none"
        else get_defense(defense).machine)
    rep, recipe, monitor_proc, monitor, monitor_ctx = attack.prepare(1)
    result = attack.finish(rep, recipe, monitor_proc, monitor,
                           monitor_ctx, secret=1, threshold=110.0)
    assert result.replays >= 2
    return _observe(rep, rep.machine)


def _fdiv_program(base: int):
    b = ProgramBuilder("fdiv-operands")
    b.li("r1", base)
    b.fli("f0", TINY)            # subnormal dividend
    b.fli("f1", 3.0)
    b.fli("f2", MIN_NORMAL)      # normal, but tiny / 4 is subnormal
    b.fli("f3", 4.0)
    b.fli("f4", 0.0)
    b.fli("f5", -7.5)
    b.fli("f6", 1e300)
    b.li("r2", 0)
    b.li("r3", 3)
    b.label("loop")
    b.fdiv("f7", "f0", "f1")     # subnormal operand
    b.fdiv("f8", "f2", "f3")     # subnormal result
    b.fdiv("f9", "f5", "f4")     # zero divisor: -inf
    b.fdiv("f10", "f4", "f4")    # 0 / 0
    b.fdiv("f11", "f1", "f0")    # subnormal divisor: +inf
    b.fdiv("f12", "f6", "f3")    # plain divide
    b.fstore("r1", "f8", 0)
    b.addi("r2", "r2", 1)
    b.bne("r2", "r3", "loop")
    b.halt()
    return b.build()


def fdiv_operands() -> dict:
    """FDIV with subnormal operands, a subnormal result and a zero
    divisor on both contexts: the divider is the contended port."""
    return _bare(_fdiv_program(DATA_BASE), _fdiv_program(DATA_BASE + 4096))


def _store_squash_program(base: int):
    b = ProgramBuilder("mid-dispatch-squash")
    b.li("r1", base)
    b.li("r2", 7)
    b.li("r9", 99)
    b.store("r1", "r9", 0)
    b.li("r3", 0)
    b.li("r4", 2)
    b.label("loop")
    # The store's address waits on a divide chain, so the younger load
    # to the same word issues first (no-alias speculation) ...
    b.div("r5", "r2", "r2")
    b.div("r5", "r5", "r5")
    b.subi("r5", "r5", 1)
    b.add("r6", "r1", "r5")
    b.store("r6", "r2", 0)
    b.load("r7", "r1", 0)
    # ... and the fence keeps the younger, already-ready entries in the
    # ready list, so the store's squash lands in the middle of a scan.
    b.fence()
    b.addi("r8", "r7", 1)
    b.li("r10", 11)
    b.li("r11", 12)
    b.xori("r2", "r2", 1)
    b.addi("r3", "r3", 1)
    b.bne("r3", "r4", "loop")
    b.store("r1", "r8", 8)
    b.halt()
    return b.build()


def store_squash(fence_on_flush: bool) -> dict:
    """A store resolving in dispatch squashes a younger load that
    already issued, and the fence younger than it."""
    return _bare(_store_squash_program(DATA_BASE),
                 _store_squash_program(DATA_BASE + 4096),
                 fence_on_flush=fence_on_flush)


def _rdrand_program(base: int):
    b = ProgramBuilder("rdrand-flush")
    b.li("r1", base)
    b.li("r2", 0)
    b.li("r3", 6)
    b.label("loop")
    b.rdrand("r4")
    b.andi("r5", "r4", 1)
    b.li("r6", 0)
    b.beq("r5", "r6", "even")    # data-dependent: mispredicts
    b.fdiv("f1", "f2", "f3")
    b.addi("r7", "r7", 1)
    b.label("even")
    b.store("r1", "r4", 0)
    b.addi("r1", "r1", 8)
    b.addi("r2", "r2", 1)
    b.bne("r2", "r3", "loop")
    b.halt()
    return b.build()


def fenced_flush() -> dict:
    """``fence_on_flush`` with ``rdrand_fenced``: every mispredict
    serialises the refetched instruction, and every RDRAND blocks
    younger entries until it retires."""
    return _bare(_rdrand_program(DATA_BASE),
                 _rdrand_program(DATA_BASE + 4096),
                 fence_on_flush=True, rdrand_fenced=True)


SCENARIOS = {
    "port-contention/none": lambda: port_contention_pair("none"),
    "port-contention/jv-counter": lambda: port_contention_pair(
        "jv-counter"),
    "fdiv-operands": fdiv_operands,
    "store-squash": lambda: store_squash(False),
    "store-squash/fence-on-flush": lambda: store_squash(True),
    "fence-on-flush/rdrand-fenced": fenced_flush,
}

GOLDEN = {
    "fdiv-operands": {
        "cycle": 2961,
        "retry": {
            "cpu.port.p0.contended": 52324,
            "cpu.port.p1.contended": 0,
            "cpu.port.p2.contended": 0,
            "cpu.port.p3.contended": 0,
            "cpu.port.p4.contended": 0,
            "cpu.port.p5.contended": 0,
            "cpu.port.p6.contended": 0,
        },
        "digest": "110925be357a5f85a3ac92a8923fee6e"
                  "867aacfbff49f64563228c7be23127a5",
        "metrics_sha256": "07ca7f79c78d5d6418584525b3f6dcdc"
                          "c5d17ebebbed0e71df5fcffbd6f06fe8",
    },
    "fence-on-flush/rdrand-fenced": {
        "cycle": 1072,
        "retry": {
            "cpu.port.p0.contended": 63,
            "cpu.port.p1.contended": 0,
            "cpu.port.p2.contended": 0,
            "cpu.port.p3.contended": 0,
            "cpu.port.p4.contended": 0,
            "cpu.port.p5.contended": 0,
            "cpu.port.p6.contended": 0,
        },
        "digest": "bc40f7594847e45bbcc55008709e4ed5"
                  "7bdc90fe57938fa90e72328b8057b739",
        "metrics_sha256": "dccc4a3024bf4f702c548cf369a802e8"
                          "3fc81e271d67d169b5217aba2766e220",
    },
    "port-contention/jv-counter": {
        "cycle": 19928,
        "retry": {
            "cpu.port.p0.contended": 15275,
            "cpu.port.p1.contended": 0,
            "cpu.port.p2.contended": 0,
            "cpu.port.p3.contended": 0,
            "cpu.port.p4.contended": 0,
            "cpu.port.p5.contended": 0,
            "cpu.port.p6.contended": 0,
            "defense.jamais_vu.blocked_issues": 37369,
        },
        "digest": "259d0e8220c109c58187b10b5c52de29"
                  "20bc56cc63fe301b5ba0ebe6fabded17",
        "metrics_sha256": "50c4c128979d3e1debe4d3b2a7d3ccc3"
                          "dfdf8e43982b0dd103fe515fa525b33d",
    },
    "port-contention/none": {
        "cycle": 19827,
        "retry": {
            "cpu.port.p0.contended": 31258,
            "cpu.port.p1.contended": 0,
            "cpu.port.p2.contended": 0,
            "cpu.port.p3.contended": 0,
            "cpu.port.p4.contended": 0,
            "cpu.port.p5.contended": 0,
            "cpu.port.p6.contended": 0,
        },
        "digest": "546a91089bfc787605fc3bc528f3fa1e"
                  "70c1f409b7d6a706fb4575b32f27b379",
        "metrics_sha256": "7dbacf3050942224d027d83e179ebd39"
                          "16eff930189e0b4581650079fdcd4cc0",
    },
    "store-squash": {
        "cycle": 198,
        "retry": {
            "cpu.port.p0.contended": 75,
            "cpu.port.p1.contended": 0,
            "cpu.port.p2.contended": 0,
            "cpu.port.p3.contended": 0,
            "cpu.port.p4.contended": 0,
            "cpu.port.p5.contended": 0,
            "cpu.port.p6.contended": 0,
        },
        "digest": "56a134c9dcb07a1857a94950b0dab324"
                  "c8ba562bf4d2ab9626a87a618d665474",
        "metrics_sha256": "bc4f304f945c3e5bb92a6415937cc2d5"
                          "cb1a2f10ebc50895dd385c11f51a9375",
    },
    "store-squash/fence-on-flush": {
        "cycle": 199,
        "retry": {
            "cpu.port.p0.contended": 75,
            "cpu.port.p1.contended": 0,
            "cpu.port.p2.contended": 0,
            "cpu.port.p3.contended": 0,
            "cpu.port.p4.contended": 0,
            "cpu.port.p5.contended": 0,
            "cpu.port.p6.contended": 0,
        },
        "digest": "94cc8afb9992053663601963af304ce6"
                  "f45c7559dd029423edf5db656062960f",
        "metrics_sha256": "bc4f304f945c3e5bb92a6415937cc2d5"
                          "cb1a2f10ebc50895dd385c11f51a9375",
    },
}


@pytest.fixture(scope="module")
def observed():
    env = dict(os.environ, PYTHONHASHSEED="0",
               PYTHONPATH=str(Path(repro.__file__).parents[1]))
    child = subprocess.run([sys.executable, __file__], env=env,
                           capture_output=True, text=True, check=True)
    return json.loads(child.stdout)


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_dispatch_counters_match_golden(observed, name):
    observed = observed[name]
    golden = GOLDEN[name]
    assert observed["retry"] == golden["retry"]
    assert observed["cycle"] == golden["cycle"]
    assert observed["metrics_sha256"] == golden["metrics_sha256"]
    assert observed["digest"] == golden["digest"]


if __name__ == "__main__":
    print(json.dumps({name: run() for name, run in SCENARIOS.items()}))
