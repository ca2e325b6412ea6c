"""Layer attribution for the benchmark's traced run.

:class:`LayerTracer` wraps the public entry points of each layer of
the simulator from the outside (class attributes and registry entries
are swapped for timing wrappers, then restored) and changes nothing
under ``src/``.  Three kinds of boundary:

* **spans** — coarse calls (a matrix cell, a sweep, a fleet run, a
  service executor).  Each records its name, start, end, parent span
  and thread, kept in memory and written out when the run ends;
* **timed counters** — per-access calls (cache hierarchy, page walker,
  kernel traps, MicroScope module, ``Machine.run``).  One span per
  call would dwarf the work, so they keep a call count and
  accumulated time;
* **plain counters** — per-cycle calls (``Core.step``), counted, never
  timed.

Spans and timed counters share one per-thread call stack, so each
layer's *self time* is its time minus the time of the wrapped calls
nested inside it.  Self times of different layers are therefore
disjoint and add up to at most the wall time of the traced work.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import itertools
import threading
from time import perf_counter
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

#: Every layer the traced run attributes host time to.
LAYERS = ("cpu", "mem", "vm", "kernel", "core", "evaluation",
          "harness", "service", "memo", "batch")


class _ThreadState:
    """Call stack and accumulators of one thread."""

    __slots__ = ("stack", "self_s", "calls", "time_s")

    def __init__(self) -> None:
        #: Frames ``[layer, child seconds, span id or None]``.
        self.stack: List[list] = []
        self.self_s: Dict[str, float] = {}
        self.calls: Dict[str, int] = {}
        self.time_s: Dict[str, float] = {}


class LayerTracer:
    """Install with :meth:`install`, run the workload, then
    :meth:`uninstall` and read :meth:`totals` and :attr:`spans`."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self._threads: List[_ThreadState] = []
        self._patches: List[Tuple[Any, str, Any]] = []
        #: ``Core.step`` calls.  A plain increment: every workload
        #: steps machines from one thread at a time.
        self.stepped_cycles = 0
        #: Cycles ``Machine.run`` and ``Machine.step`` advanced,
        #: stepped or fast-forwarded.
        self.sim_cycles = 0
        self._span_ids = itertools.count(1)
        #: ``(id, name, layer, start, end, parent, thread, attrs)``.
        self.spans: List[Tuple] = []
        #: Span id that parent-less spans of any thread hang under.
        self.root_span: Optional[int] = None
        #: Results observed by ``on_result`` hooks.
        self.sweep_reports: List[Any] = []
        self.store_gets: List[bool] = []
        self.fleets: List[Dict[str, Any]] = []

    # --- per-thread state ---------------------------------------------------

    def _state(self) -> _ThreadState:
        state = getattr(self._local, "state", None)
        if state is None:
            state = _ThreadState()
            self._local.state = state
            with self._lock:
                self._threads.append(state)
        return state

    # --- wrappers -------------------------------------------------------------

    def _wrap(self, original: Callable, layer: str, name: str, *,
              span: bool = False,
              attrs: Optional[Callable[..., Dict[str, Any]]] = None,
              on_result: Optional[Callable[..., None]] = None
              ) -> Callable:
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            state = tracer._state()
            stack = state.stack
            span_id = next(tracer._span_ids) if span else None
            frame = [layer, 0.0, span_id]
            stack.append(frame)
            start = perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                elapsed = end - start
                state.self_s[layer] = (state.self_s.get(layer, 0.0)
                                       + elapsed - frame[1])
                state.calls[name] = state.calls.get(name, 0) + 1
                state.time_s[name] = (state.time_s.get(name, 0.0)
                                      + elapsed)
                if stack:
                    stack[-1][1] += elapsed
                if span:
                    parent = next((f[2] for f in reversed(stack)
                                   if f[2] is not None),
                                  tracer.root_span)
                    tracer.spans.append((
                        span_id, name, layer, start, end, parent,
                        threading.current_thread().name,
                        attrs(*args, **kwargs) if attrs else {}))
            if on_result is not None:
                on_result(args, kwargs, result)
            return result

        return wrapper

    def _patch(self, owner: Any, attr: str, layer: str, name: str,
               **kwargs: Any) -> None:
        original = owner.__dict__[attr]
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self._wrap(original, layer, name, **kwargs))

    def _count_steps(self, owner: Any, attr: str) -> None:
        original = owner.__dict__[attr]
        self._patches.append((owner, attr, original))
        tracer = self

        @functools.wraps(original)
        def step(*args, **kwargs):
            tracer.stepped_cycles += 1
            return original(*args, **kwargs)

        setattr(owner, attr, step)

    # --- install / uninstall ----------------------------------------------

    def install(self) -> None:
        """Wrap every layer boundary.  Call before the workload builds
        any machine: some objects bind methods at construction."""
        from repro.batch.fleet import MachineFleet
        from repro.core.module import MicroScopeModule
        from repro.cpu.core import Core
        from repro.cpu.machine import Machine
        from repro.evaluation import attacks as attack_registry
        from repro.experiment import Experiment
        from repro.harness import backends
        from repro.harness.journal import SweepJournal
        from repro.kernel.kernel import Kernel
        from repro.mem.hierarchy import MemoryHierarchy
        from repro.memo.store import TrialStore
        from repro.service.executor import CellExecutor
        from repro.vm.walker import PageWalker

        self._count_steps(Core, "step")
        self._patch(Machine, "run", "cpu", "cpu.run",
                    on_result=self._note_run)
        self._patch(Machine, "step", "cpu", "cpu.machine_step",
                    on_result=self._note_step)
        self._patch(MemoryHierarchy, "access", "mem", "mem.access")
        self._patch(PageWalker, "walk", "vm", "vm.walk")
        self._patch(Kernel, "handle_page_fault", "kernel",
                    "kernel.page_fault")
        self._patch(Kernel, "handle_interrupt", "kernel",
                    "kernel.interrupt")
        # The public MicroScope interface, plus the fault hook the
        # module registers with the kernel: the replay decisions of
        # the trap path run there.
        for attr in ("provide_replay_handle", "provide_pivot",
                     "provide_monitor_addr", "initiate_page_walk",
                     "initiate_page_fault", "apply_walk_tuning",
                     "expected_walk_latency", "prime_lines",
                     "probe_lines", "peek_lines", "arm", "disarm",
                     "_trampoline"):
            self._patch(MicroScopeModule, attr, "core", f"core.{attr}")
        registry = attack_registry.ATTACKS
        for name, spec in list(registry.items()):
            self._patches.append((registry, name, spec))
            registry[name] = dataclasses.replace(spec, runner=self._wrap(
                spec.runner, "evaluation", "evaluation.cell", span=True,
                attrs=lambda defense, _overrides, attack=name: {
                    "attack": attack, "defense": defense.name}))
        self._patch(Experiment, "run", "harness", "harness.experiment",
                    span=True, on_result=self._note_experiment)
        for cls in (backends.InlineBackend, backends.PoolBackend,
                    backends.ScalarBackend, backends.BatchBackend):
            self._patch(cls, "execute", "harness", "harness.execute",
                        span=True)
        self._patch(CellExecutor, "run", "service", "service.executor",
                    span=True, on_result=self._note_executor)
        self._patch(SweepJournal, "record", "service",
                    "service.journal.record")
        self._patch(TrialStore, "get", "memo", "memo.store.get",
                    on_result=self._note_store_get)
        self._patch(TrialStore, "put", "memo", "memo.store.put")
        self._patch(MachineFleet, "run", "batch", "batch.fleet",
                    span=True, on_result=self._note_fleet)

    def uninstall(self) -> None:
        """Restore every wrapped attribute and registry entry."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)

    # --- result hooks -------------------------------------------------------

    def _note_run(self, _args: tuple, _kwargs: dict,
                  cycles: int) -> None:
        self.sim_cycles += cycles

    def _note_step(self, args: tuple, kwargs: dict, _result: Any) -> None:
        self.sim_cycles += (args[1] if len(args) > 1
                            else kwargs.get("cycles", 1))

    def _note_experiment(self, _args: tuple, _kwargs: dict,
                         report: Any) -> None:
        self.sweep_reports.append(report.report)

    def _note_executor(self, _args: tuple, _kwargs: dict,
                       result: Any) -> None:
        self.sweep_reports.append(result[1])

    def _note_store_get(self, _args: tuple, _kwargs: dict,
                        result: Any) -> None:
        self.store_gets.append(bool(result[0]))

    def _note_fleet(self, args: tuple, _kwargs: dict,
                    _outcomes: Any) -> None:
        fleet = args[0]
        self.fleets.append(dict(fleet.stats,
                                leader_cycles=fleet.leader.cycle))

    # --- readout ------------------------------------------------------------

    @contextlib.contextmanager
    def pass_span(self, workload: str) -> Iterator[None]:
        """The span of one whole pass, opened by the benchmark itself;
        spans that start with an empty stack, in any thread, hang
        under it."""
        span_id = next(self._span_ids)
        self.root_span = span_id
        start = perf_counter()
        try:
            yield
        finally:
            self.spans.append((span_id, "perfbench.pass", "perfbench",
                               start, perf_counter(), None,
                               threading.current_thread().name,
                               {"workload": workload}))

    def totals(self) -> Tuple[Dict[str, float], Dict[str, int],
                              Dict[str, float]]:
        """``(self seconds per layer, calls per name, seconds per
        name)`` summed over every thread."""
        self_s = {layer: 0.0 for layer in LAYERS}
        calls: Dict[str, int] = {}
        time_s: Dict[str, float] = {}
        with self._lock:
            threads = list(self._threads)
        for state in threads:
            for layer, value in state.self_s.items():
                self_s[layer] = self_s.get(layer, 0.0) + value
            for name, value in state.calls.items():
                calls[name] = calls.get(name, 0) + value
            for name, value in state.time_s.items():
                time_s[name] = time_s.get(name, 0.0) + value
        return self_s, calls, time_s

    def span_dicts(self) -> List[Dict[str, Any]]:
        """The spans as JSON-ready dicts, in start order."""
        return [{"id": s[0], "name": s[1], "layer": s[2],
                 "start": s[3], "end": s[4], "parent": s[5],
                 "thread": s[6], "attrs": s[7]}
                for s in sorted(self.spans, key=lambda s: s[3])]
