"""The batched lockstep machine fleet.

A :class:`MachineFleet` runs N lanes — same programs, different
seeds/secrets — for the cost of roughly *one* machine.  The key
observation is that converged lanes share everything except data:
while no lane has diverged, the entire control plane (ROB occupancy,
cache tags, TLB state, port schedules, predictor, cycle counts,
statistics, RNG streams) is provably identical across lanes, so it is
stored exactly once, in a real scalar :class:`~repro.cpu.machine.
Machine` called the **leader** (lane 0).  Only the data plane is
lane-indexed: a sparse structure-of-arrays overlay of *taint tables*
mapping architectural locations to lane vectors (plain lists, element
0 = the leader's value; see :mod:`repro.batch.lanes` for the vector
engines):

* ``reg_taint[(ctx, reg)]``       — architectural registers,
* ``mem_taint[paddr]``            — ``(width, vector)`` memory words,
* ``val_taint[(ctx, seq)]``       — in-flight results,
* ``op_taint[(ctx, seq, slot)]``  — resolved source operands,
* ``store_taint[(ctx, seq)]``     — unretired store data.

A table entry exists only while the location actually differs across
lanes; lane-invariant values live solely in the leader.  The overlay
is maintained synchronously by the fleet itself, a read-only probe on
the leader's core (decode / issue / complete / retire), each callback
mirroring the exact scalar dataflow rule it shadows, so every
vector's element 0 always equals the leader's scalar value — the
invariant all bit-exactness rests on.

**Divergence and peel-off.**  The lockstep premise breaks the moment
per-lane data would change *control*: a branch whose lane outcome
differs from the leader's, a load/store whose lane virtual address
differs, an FDIV whose subnormal latency class differs, or any event
the overlay does not model (page faults, TSX, interrupts).  Detection
is synchronous — at the leader callback where the scalar core consumes
the value — and recovery is transparent: the divergent lane is
*peeled* to a fresh scalar Machine materialised from the last window
boundary (a cheap COW leader snapshot plus shallow copies of the
taint tables, taken every ``sync_base``..``sync_cap`` cycles), which
predates the divergence by construction, and runs the ordinary scalar
semantics to completion.  Other lanes are not perturbed.  Unmodelled
events conservatively peel every follower at once; a leader exception
additionally re-runs lane 0 from the boundary so the exception is
reproduced per-lane.

The result is bit-exact by construction rather than by vectorising
the out-of-order pipeline: every lane ends as either the leader
itself, a materialised copy of it patched with that lane's vector
elements, or an actual scalar Machine run — all three provably equal
to an independent scalar run with the same seed.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.batch.lanes import _all_of_type, _all_u64, make_ops
from repro.batch.plan import FleetPlan
from repro.cpu.core import MASK64, Core, _is_subnormal, _to_signed
from repro.cpu.machine import Machine
from repro.cpu.probe import Probe
from repro.isa.instructions import Opcode

#: Opcode -> lane-engine binop name (three-register ALU forms).
_BINOP_NAME = {
    Opcode.ADD: "add", Opcode.SUB: "sub", Opcode.AND: "and",
    Opcode.OR: "or", Opcode.XOR: "xor", Opcode.SHL: "shl",
    Opcode.SHR: "shr", Opcode.MUL: "mul", Opcode.DIV: "div",
    Opcode.FADD: "fadd", Opcode.FSUB: "fsub", Opcode.FMUL: "fmul",
    Opcode.FDIV: "fdiv",
}
#: Opcode -> lane-engine immop name (register-immediate ALU forms).
_IMMOP_NAME = {
    Opcode.ADDI: "addi", Opcode.SUBI: "subi", Opcode.ANDI: "andi",
    Opcode.ORI: "ori", Opcode.XORI: "xori", Opcode.SHLI: "shli",
    Opcode.SHRI: "shri",
}


def _invariant(vec: List) -> bool:
    """True when every element equals element 0 in value *and* type
    (int 5 and float 5.0 compare equal but are architecturally
    distinct).  NaN elements always count as variant — conservative
    and harmless."""
    v0 = vec[0]
    t0 = type(v0)
    for x in vec:
        if type(x) is not t0 or x != v0:
            return False
    return True


class LaneOutcome:
    """What one lane produced: a result or the error that ended it."""

    __slots__ = ("lane", "seed", "params", "result", "error", "peeled",
                 "reason")

    def __init__(self, lane: int, seed: int, params: Any, *,
                 result: Any = None,
                 error: Optional[BaseException] = None,
                 peeled: bool = False, reason: Optional[str] = None):
        self.lane = lane
        self.seed = seed
        self.params = params
        self.result = result
        self.error = error
        #: True when this lane fell back to a scalar re-run.
        self.peeled = peeled
        #: Why it peeled (``"branch"``, ``"addr"``, ``"fault"``, …).
        self.reason = reason

    def __repr__(self) -> str:
        status = (f"error={self.error!r}" if self.error is not None
                  else f"result={self.result!r}")
        tail = f" peeled:{self.reason}" if self.peeled else ""
        return f"<LaneOutcome lane={self.lane} {status}{tail}>"


class _Boundary:
    """A window boundary: leader snapshot + taint-table copies.

    The leader capture is copy-on-write (O(frames touched)); the
    taint dicts are shallow-copied, which suffices because lane
    vectors are never mutated in place.
    """

    __slots__ = ("capture", "reg", "mem", "val", "op", "store")

    def __init__(self, capture, reg, mem, val, op, store):
        self.capture = capture
        self.reg = reg
        self.mem = mem
        self.val = val
        self.op = op
        self.store = store


class MachineFleet(Probe):
    """N machines stepped in lockstep via a leader + taint overlay.

    ``lanes`` is a sequence of ``(seed, params)`` pairs, one per lane;
    lane data comes from ``plan.lane_init(seed, params)``.  ``ops``
    overrides the lane-vector engine (see
    :func:`repro.batch.lanes.make_ops`).  ``sync_base``/``sync_cap``
    bound the adaptive window interval: quiet windows double it up to
    the cap, any divergence resets it.

    :meth:`run` never raises for a per-lane failure — each lane's
    exception is captured in its :class:`LaneOutcome`.
    """

    def __init__(self, plan: FleetPlan,
                 lanes: Sequence[Tuple[int, Any]], *,
                 ops=None, sync_base: int = 1024,
                 sync_cap: int = 32768):
        if not lanes:
            raise ValueError("a fleet needs at least one lane")
        self.plan = plan
        self.lanes = list(lanes)
        self.n = len(self.lanes)
        self.ops = ops if ops is not None else make_ops()
        self.sync_base = max(1, sync_base)
        self.sync_cap = max(self.sync_base, sync_cap)

        if plan.config is not None:
            self.config = plan.config
        else:
            from repro.config import MachineConfig
            self.config = MachineConfig()

        # Taint tables (the structure-of-arrays data plane).
        self.reg_taint: Dict[Tuple[int, str], List] = {}
        self.mem_taint: Dict[int, Tuple[int, List]] = {}
        self.val_taint: Dict[Tuple[int, int], List] = {}
        self.op_taint: Dict[Tuple[int, int, int], List] = {}
        self.store_taint: Dict[Tuple[int, int], List] = {}

        # Lane status: None = batched, else the peel reason.
        self._lane_reason: List[Optional[str]] = [None] * self.n
        self._pending: Dict[int, str] = {}
        self._peel_all: Optional[str] = None

        #: Accounting for tests and benchmarks.
        self.stats = {"lanes": self.n, "windows": 0, "peeled": 0,
                      "boundaries": 0, "engine": self.ops.name}

        self.leader = self._build_leader()
        self.core = self.leader.core

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------

    def _build_leader(self) -> Machine:
        """Build lane 0 as a real machine and seed the initial taints
        from the per-lane init deltas."""
        plan = self.plan
        machine = Machine(self.config)
        inits = [plan.lane_init(seed, params)
                 for seed, params in self.lanes]

        # Per-lane final values for every touched location (later
        # writes win within a lane, like the sequential writes they
        # mirror), plus the pre-init base value for lanes that never
        # touch a location.
        reg_writes: List[Dict[Tuple[int, str], Any]] = []
        mem_writes: List[Dict[int, Any]] = []
        mem_width: Dict[int, int] = {}
        for init in inits:
            regs: Dict[Tuple[int, str], Any] = {}
            for context_id, reg, value in init.regs:
                regs[(context_id, reg)] = value
            reg_writes.append(regs)
            mem: Dict[int, Any] = {}
            for paddr, width, value in init.mem:
                known = mem_width.get(paddr)
                if known is None:
                    mem_width[paddr] = width
                elif known != width:
                    raise ValueError(
                        f"conflicting widths for paddr {paddr:#x} "
                        f"across lane inits ({known} vs {width})")
                mem[paddr] = value
            mem_writes.append(mem)

        reg_keys = sorted({k for w in reg_writes for k in w})
        mem_keys = sorted({k for w in mem_writes for k in w})
        reg_base = {key: machine.contexts[key[0]].read_reg(key[1])
                    for key in reg_keys}
        mem_base = {paddr: machine.phys.read(paddr, mem_width[paddr])
                    for paddr in mem_keys}

        # Apply lane 0 for real, in build_lane_machine order.
        for context_id, reg, value in inits[0].regs:
            machine.contexts[context_id].write_reg(reg, value)
        for paddr, width, value in inits[0].mem:
            machine.phys.write(paddr, value, width)
        for context_id, program in plan.programs:
            machine.contexts[context_id].load_program(program)

        # Taint every location that differs across lanes.  Register
        # vectors go through the same int()/float() coercion write_reg
        # applies; memory is stored raw, exactly like phys.write.
        for key in reg_keys:
            context_id, reg = key
            cast = (int if reg in machine.contexts[context_id].int_regs
                    else float)
            vec = [cast(w.get(key, reg_base[key])) for w in reg_writes]
            if not _invariant(vec):
                self.reg_taint[key] = vec
        for paddr in mem_keys:
            vec = [w.get(paddr, mem_base[paddr]) for w in mem_writes]
            if not _invariant(vec):
                self.mem_taint[paddr] = (mem_width[paddr], vec)
        return machine

    # ------------------------------------------------------------------
    # lane bookkeeping
    # ------------------------------------------------------------------

    def _diverge(self, lane: int, reason: str):
        """Mark a follower lane divergent; it peels at window end."""
        if lane == 0 or self._lane_reason[lane] is not None:
            return
        self._lane_reason[lane] = reason
        self._pending[lane] = reason

    def _flag_peel_all(self, reason: str):
        if self._peel_all is None:
            self._peel_all = reason

    def _active_followers(self) -> List[int]:
        return [i for i in range(1, self.n)
                if self._lane_reason[i] is None]

    # ------------------------------------------------------------------
    # leader probe (read-only mirrors of the scalar dataflow rules)
    # ------------------------------------------------------------------

    def on_decode(self, core, context, entry, sources):
        """Seed operand taint from the resolved sources."""
        if self._peel_all is not None:
            return
        if entry.instr.op is Opcode.TBEGIN:
            # Transactions snapshot/restore registers and buffer
            # stores — outside the overlay's model.
            self._flag_peel_all("tsx")
            return
        context_id = context.context_id
        op_taint = self.op_taint
        for slot, src in enumerate(sources):
            if src is None:
                continue
            kind, ref = src
            if kind == "arch":
                taint = self.reg_taint.get((context_id, ref))
            elif kind == "value":
                taint = self.val_taint.get((context_id, ref.seq))
            else:  # pending: delivered by on_complete later
                continue
            if taint is not None:
                op_taint[(context_id, entry.seq, slot)] = taint

    def on_complete(self, core, context, entry):
        """Mirror the dependent-distribution loop: a completing
        entry's value taint becomes its dependents' operand taint."""
        # A faulted entry distributes nothing; its on_issue already
        # set _peel_all, so the check below returns first.
        if self._peel_all is not None:
            return
        taint = self.val_taint.get((context.context_id, entry.seq))
        if taint is None:
            return
        context_id = context.context_id
        op_taint = self.op_taint
        for dependent, slot in entry.dependents:
            if dependent.squashed:
                continue
            op_taint[(context_id, dependent.seq, slot)] = taint

    def on_issue(self, core, context, entry):
        """Mirror the issued op across lanes, or flag divergence."""
        if self._peel_all is not None:
            return
        if entry.fault is not None:
            # Page faults trap through OS machinery the overlay does
            # not model; every follower re-runs scalar.
            self._flag_peel_all("fault")
            return
        context_id = context.context_id
        instr = entry.instr
        t0 = self.op_taint.get((context_id, entry.seq, 0))
        t1 = self.op_taint.get((context_id, entry.seq, 1))
        if instr.is_load:
            self._mirror_load(context, entry, t0)
        elif instr.is_store:
            self._mirror_store(context, entry, t0, t1)
        elif instr.is_cond_branch:
            self._check_branch(entry, t0, t1)
        elif t0 is None and t1 is None:
            return  # operands lane-invariant => value lane-invariant
        elif instr.is_branch:
            return  # JMP: no data dependence on direction
        else:
            self._mirror_alu(context_id, entry, t0, t1)

    def on_retire(self, core, context, entry):
        """Commit retired value taint to registers and memory."""
        if self._peel_all is not None:
            return
        context_id = context.context_id
        key = (context_id, entry.seq)
        instr = entry.instr
        dest = instr.dest()
        if dest is not None and entry.value is not None:
            taint = self.val_taint.get(key)
            reg_key = (context_id, dest)
            if taint is None:
                # Invariant value retired over a (possibly tainted)
                # register: the register is invariant again.
                self.reg_taint.pop(reg_key, None)
            else:
                if dest in context.int_regs:
                    vec = self._coerce_vec(int, taint,
                                           context.int_regs[dest])
                else:
                    vec = self._coerce_vec(float, taint,
                                           context.fp_regs[dest])
                if _invariant(vec):
                    self.reg_taint.pop(reg_key, None)
                else:
                    self.reg_taint[reg_key] = vec
        if instr.is_store:
            taint = self.store_taint.get(key)
            if taint is None:
                self.mem_taint.pop(entry.paddr, None)
            else:
                # phys.write stores the raw value; mirror exactly.
                self.mem_taint[entry.paddr] = (instr.width, taint)

    # --- per-op mirrors ---------------------------------------------------

    def _mirror_alu(self, context_id, entry, t0, t1):
        op = entry.instr.op
        n = self.n
        a = t0 if t0 is not None else [entry.operands[0]] * n
        name = _BINOP_NAME.get(op)
        if name is not None:
            b = t1 if t1 is not None else [entry.operands[1]] * n
            if op is Opcode.FDIV:
                self._check_fdiv_class(entry, a, b)
            vec = self._vec_binop(name, a, b, entry.value)
        elif op in _IMMOP_NAME:
            vec = self._vec_immop(_IMMOP_NAME[op], a, entry.instr.imm,
                                  entry.value)
        elif op is Opcode.MOV or op is Opcode.FMOV:
            vec = list(a)
        else:
            # A tainted operand reached an op the overlay does not
            # mirror — should be unreachable, but never guess.
            self._flag_peel_all(f"unmirrored-op:{op.value}")
            return
        if not _invariant(vec):
            self.val_taint[(context_id, entry.seq)] = vec

    def _mirror_load(self, context, entry, t0):
        instr = entry.instr
        if t0 is not None:
            self._check_va(entry, t0, instr.imm)
        context_id = context.context_id
        # Value source priority mirrors _execute_load: store-forward
        # from the youngest older matching store, else memory.  (The
        # transactional buffer path cannot be reached: TBEGIN peels at
        # decode.)  A width-mismatched match cannot exist — the scalar
        # core refuses to issue the load until it retires.
        donor = None
        for store in context.rob.stores_older_than(entry.seq):
            if (store.addr_resolved and store.addr == entry.addr
                    and store.instr.width == instr.width):
                donor = store
        if donor is not None:
            src = self.store_taint.get((context_id, donor.seq))
        else:
            tainted = self.mem_taint.get(entry.paddr)
            src = tainted[1] if tainted is not None else None
        if src is None:
            return
        # Fast path: the load coercion (float(), or the 64-bit mask)
        # leaves every lane unchanged.
        if len(src) == self.n and (
                _all_of_type(src, float) if instr.op is Opcode.FLOAD
                else _all_u64(src)):
            vec = src
        else:
            vec = []
            for lane in range(self.n):
                try:
                    vec.append(Core._coerce_load_value(instr, src[lane]))
                except Exception:
                    self._diverge(lane, "compute-error")
                    vec.append(entry.value)
        if not _invariant(vec):
            self.val_taint[(context_id, entry.seq)] = vec

    def _mirror_store(self, context, entry, t0, t1):
        if t0 is not None:
            self._check_va(entry, t0, entry.instr.imm)
        if t1 is not None:
            # store_value = operands[1], raw and uncoerced.
            self.store_taint[(context.context_id, entry.seq)] = t1

    # --- divergence checks ------------------------------------------------

    def _check_va(self, entry, t0, imm):
        """Per-lane virtual address must match the leader's: address
        divergence changes cache/TLB behaviour, forwarding and
        memory-order checks — all control plane."""
        va0 = entry.addr
        for lane in self._active_followers():
            try:
                va = (t0[lane] + imm) & MASK64
            except Exception:
                self._diverge(lane, "compute-error")
                continue
            if va != va0:
                self._diverge(lane, "addr")

    def _check_branch(self, entry, t0, t1):
        if t0 is None and t1 is None:
            return
        n = self.n
        a = t0 if t0 is not None else [entry.operands[0]] * n
        b = t1 if t1 is not None else [entry.operands[1]] * n
        op = entry.instr.op
        taken0 = entry.actual_taken
        for lane in self._active_followers():
            try:
                x = _to_signed(a[lane])
                y = _to_signed(b[lane])
                if op is Opcode.BEQ:
                    taken = x == y
                elif op is Opcode.BNE:
                    taken = x != y
                elif op is Opcode.BLT:
                    taken = x < y
                else:  # BGE
                    taken = x >= y
            except Exception:
                self._diverge(lane, "compute-error")
                continue
            if taken != taken0:
                self._diverge(lane, "branch")

    def _check_fdiv_class(self, entry, a, b):
        """FDIV latency depends on subnormal operands/results; a lane
        in a different latency class completes at a different cycle —
        control divergence."""
        leader_class = self._fdiv_class(entry.operands[0],
                                        entry.operands[1])
        for lane in self._active_followers():
            try:
                lane_class = self._fdiv_class(a[lane], b[lane])
            except Exception:
                self._diverge(lane, "compute-error")
                continue
            if lane_class != leader_class:
                self._diverge(lane, "latency")

    @staticmethod
    def _fdiv_class(a, b) -> bool:
        result_sub = False
        try:
            result_sub = _is_subnormal(float(a) / float(b))
        except (ZeroDivisionError, TypeError, OverflowError):
            pass
        return (_is_subnormal(float(a or 0.0))
                or _is_subnormal(float(b or 0.0)) or result_sub)

    # --- guarded vector compute -------------------------------------------

    def _coerce_vec(self, cast, vec, leader_value):
        """Apply write_reg's int()/float() coercion per lane, falling
        back to the leader's (already coerced) register value for
        lanes whose element cannot coerce."""
        if len(vec) == self.n and _all_of_type(vec, cast):
            return vec  # cast() is the identity on every lane
        out = []
        for lane in range(self.n):
            try:
                out.append(cast(vec[lane]))
            except Exception:
                self._diverge(lane, "compute-error")
                out.append(leader_value)
        return out

    def _vec_binop(self, name, a, b, leader_value):
        try:
            return self.ops.binop(name, a, b)
        except Exception:
            pass
        # Diverged lanes can hold type-mismatched garbage that makes
        # the whole-vector expression raise; recompute per element,
        # substituting the leader value for failing lanes.  An
        # *active* lane whose element raises is genuinely divergent —
        # its scalar re-run reproduces the exception faithfully.
        out = []
        for lane in range(self.n):
            try:
                out.append(self.ops.binop(name, [a[lane]], [b[lane]])[0])
            except Exception:
                self._diverge(lane, "compute-error")
                out.append(leader_value)
        return out

    def _vec_immop(self, name, a, imm, leader_value):
        try:
            return self.ops.immop(name, a, imm)
        except Exception:
            pass
        out = []
        for lane in range(self.n):
            try:
                out.append(self.ops.immop(name, [a[lane]], imm)[0])
            except Exception:
                self._diverge(lane, "compute-error")
                out.append(leader_value)
        return out

    # ------------------------------------------------------------------
    # window boundaries and materialisation
    # ------------------------------------------------------------------

    def _prune_taints(self):
        """Drop per-entry taints whose (ctx, seq) is no longer
        referenced.  Live in-flight entries sit in their context's ROB
        (rename/ready/load-index are subsets), but squashed entries
        linger in the event heap until their due cycle passes — never
        consulted by execution, yet still part of a bit-exact capture
        (a squashed speculative load keeps the lane-variant value it
        read), so heap membership keeps a taint alive too.  Seqs are
        never reused (refetch after a squash allocates fresh ones), so
        a key names exactly one entry object."""
        live = set()
        for context in self.core.contexts:
            context_id = context.context_id
            for entry in context.rob.entries:
                live.add((context_id, entry.seq))
        for _due, _tb, entry in self.core._events:
            live.add((entry.context_id, entry.seq))
        self.val_taint = {k: v for k, v in self.val_taint.items()
                          if k in live}
        self.store_taint = {k: v for k, v in self.store_taint.items()
                            if k in live}
        self.op_taint = {k: v for k, v in self.op_taint.items()
                         if (k[0], k[1]) in live}

    def _take_boundary(self) -> _Boundary:
        self._prune_taints()
        self.stats["boundaries"] += 1
        return _Boundary(self.leader.capture(),
                         dict(self.reg_taint), dict(self.mem_taint),
                         dict(self.val_taint), dict(self.op_taint),
                         dict(self.store_taint))

    def _materialize(self, boundary: _Boundary, lane: int) -> Machine:
        """A fresh scalar machine equal to what lane *lane* would be
        at the boundary: restore the leader snapshot, then patch every
        tainted location with the lane's vector element.  The restore
        memo preserves entry aliasing (ROB / rename / ready / heap all
        reference one object per seq), so re-patching an entry reached
        through both walks just re-assigns the same values.  The heap
        walk matters for squashed entries that live only there: dead
        to execution, but their lane-variant speculative values are
        still part of the bit-exact capture."""
        machine = Machine(self.config)
        machine.restore(boundary.capture)
        for (context_id, reg), vec in boundary.reg.items():
            machine.contexts[context_id].write_reg(reg, vec[lane])
        for paddr, (width, vec) in boundary.mem.items():
            machine.phys.write(paddr, vec[lane], width)

        def patch(context_id, entry):
            key = (context_id, entry.seq)
            taint = boundary.val.get(key)
            if taint is not None:
                entry.value = taint[lane]
            taint = boundary.store.get(key)
            if taint is not None:
                entry.store_value = taint[lane]
            for slot in (0, 1):
                taint = boundary.op.get((context_id, entry.seq, slot))
                if taint is not None:
                    entry.operands[slot] = taint[lane]

        for context in machine.contexts:
            context_id = context.context_id
            for entry in context.rob.entries:
                patch(context_id, entry)
        for _due, _tb, entry in machine.core._events:
            patch(entry.context_id, entry)
        return machine

    def _finish_lane(self, lane: int, boundary: _Boundary,
                     reason: str) -> LaneOutcome:
        """Peel: materialise the lane at the boundary and run the
        ordinary scalar semantics to completion."""
        seed, params = self.lanes[lane]
        self.stats["peeled"] += 1
        try:
            machine = self._materialize(boundary, lane)
            machine.run_until_cycle(self.plan.max_cycles)
            return LaneOutcome(lane, seed, params,
                               result=self.plan.extract(machine),
                               peeled=True, reason=reason)
        except Exception as exc:
            return LaneOutcome(lane, seed, params, error=exc,
                               peeled=True, reason=reason)

    def _extract_lane(self, lane: int, machine: Machine,
                      *, peeled: bool = False,
                      reason: Optional[str] = None) -> LaneOutcome:
        seed, params = self.lanes[lane]
        try:
            return LaneOutcome(lane, seed, params,
                               result=self.plan.extract(machine),
                               peeled=peeled, reason=reason)
        except Exception as exc:
            return LaneOutcome(lane, seed, params, error=exc,
                               peeled=peeled, reason=reason)

    # ------------------------------------------------------------------
    # the run loop
    # ------------------------------------------------------------------

    def run(self) -> List[LaneOutcome]:
        """Run every lane to completion; outcomes in lane order."""
        outcomes: List[Optional[LaneOutcome]] = [None] * self.n
        deadline = self.plan.max_cycles
        leader = self.leader
        leader_lost = False
        self.core.attach(self)
        try:
            boundary = self._take_boundary()
            interrupts0 = self._interrupt_count()
            interval = self.sync_base
            while True:
                followers = self._active_followers()
                if not followers:
                    break
                if not leader.core.busy() or leader.cycle >= deadline:
                    break
                target = min(leader.cycle + interval, deadline)
                self.stats["windows"] += 1
                try:
                    leader.run_until_cycle(
                        target,
                        until=lambda _m: self._peel_all is not None)
                except Exception:
                    # The leader machine may be mid-mutation: discard
                    # it and re-run every remaining lane — lane 0
                    # included — from the boundary, reproducing the
                    # exception (or not) per lane.
                    for lane in range(self.n):
                        if outcomes[lane] is None:
                            outcomes[lane] = self._finish_lane(
                                lane, boundary, "leader-exception")
                    leader_lost = True
                    break
                if (self._peel_all is None
                        and self._interrupt_count() != interrupts0):
                    self._flag_peel_all("interrupt")
                if self._peel_all is not None:
                    reason = self._peel_all
                    for lane in followers:
                        self._lane_reason[lane] = reason
                        outcomes[lane] = self._finish_lane(
                            lane, boundary, reason)
                    self._pending.clear()
                    break
                if self._pending:
                    for lane, reason in sorted(self._pending.items()):
                        outcomes[lane] = self._finish_lane(
                            lane, boundary, reason)
                    self._pending.clear()
                    interval = self.sync_base
                else:
                    interval = min(interval * 2, self.sync_cap)
                boundary = self._take_boundary()
                interrupts0 = self._interrupt_count()
        finally:
            self.core.detach(self)
        if not leader_lost:
            # Finish the leader plain (followers all peeled or all
            # still convergent — either way the overlay is done).
            remaining = [lane for lane in range(1, self.n)
                         if outcomes[lane] is None]
            if remaining:
                # Convergent to the end: materialise from the final
                # state; no further run needed (the leader stopped
                # exactly where each lane's scalar run would).
                final = self._take_boundary()
                for lane in remaining:
                    try:
                        outcomes[lane] = self._extract_lane(
                            lane, self._materialize(final, lane))
                    except Exception as exc:
                        seed, params = self.lanes[lane]
                        outcomes[lane] = LaneOutcome(lane, seed, params,
                                                     error=exc)
            else:
                try:
                    leader.run_until_cycle(deadline)
                except Exception as exc:
                    # A leader-only trap (every follower already
                    # peeled): the exception is lane 0's outcome,
                    # exactly as its scalar run would have raised it.
                    seed, params = self.lanes[0]
                    outcomes[0] = LaneOutcome(0, seed, params,
                                              error=exc)
            if outcomes[0] is None:
                outcomes[0] = self._extract_lane(0, leader)
        return [outcome for outcome in outcomes if outcome is not None]

    def _interrupt_count(self) -> int:
        total = 0
        for context in self.core.contexts:
            total += context.stats.interrupts
            if context.pending_interrupt is not None:
                total += 1
        return total


def run_fleet(plan: FleetPlan, lanes: Sequence[Tuple[int, Any]], *,
              ops=None, sync_base: int = 1024,
              sync_cap: int = 32768) -> List[LaneOutcome]:
    """Convenience wrapper: build a fleet, run it, return outcomes."""
    return MachineFleet(plan, lanes, ops=ops, sync_base=sync_base,
                        sync_cap=sync_cap).run()


__all__ = ["LaneOutcome", "MachineFleet", "run_fleet"]
