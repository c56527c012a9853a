"""Per-step taps for the two execution layers.

A *tap* is the one per-step observation mechanism of both simulators:
pass it to the constructor as ``trace=`` and every core calls its
``hook`` once per dynamic step, *before* the step executes — the IR
layer as ``hook(inst, frame)``, the machine as ``hook(pc, regs, xmm)``.
Each core hoists the hook into a local and tests ``hook is not None``
once per step, so an untapped run pays one local test.  A tapped run on
the codegen tier is served by the decoded core (generated code has no
per-step tap points); naive and decoded call the hook at the same
steps.  The simulator calls ``attach(sim)`` once at construction and
``finish`` at run end (IR: no arguments; machine: the final ``regs``
and ``xmm``), and reports the tap's ``trace`` as the run's
``extra["trace"]``.

The taps here:

* :class:`IRTracer` / :class:`MachineTracer` record the
  cross-layer-comparable sync events documented in
  :mod:`repro.trace.events` (a :class:`~repro.trace.events.TraceConfig`
  passed as ``trace=`` builds the layer's tracer);
* :class:`IRCountTap` / :class:`MachineCountTap` count the dynamic
  executions of every static instruction (IR iid / asm pc), the dynamic
  profile the protection planner and the mutation suite read;
* the site taps of :mod:`repro.fi.sections` record every dynamic
  injectable site.

Tracer details:

* the **IR tracer** evaluates sync operands straight from the
  interpreter's value environment, *before* the instruction executes;
* the **machine tracer** precompiles a per-static-instruction plan
  from instruction provenance (``prov_iid``/``role``) once at attach
  time, then reads registers at run time.  Conditional jumps are
  resolved one step later (taken iff the next pc equals the target);
  the ``jmp`` companion that lowering emits after every ``jcc`` covers
  the not-taken direction, so exactly one ``jump`` event is emitted
  per executed IR terminator.

A tap is single-use: attach it to one simulator instance, run once,
then read its result (``tracer.trace``, ``counter.counts``).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..backend.isa import GPRS, Role
from ..ir.instructions import Call, CondBr, Store
from .events import StepRecord, SyncEvent, Trace, TraceConfig, f64_bits

__all__ = ["Tap", "IRTracer", "MachineTracer", "IRCountTap",
           "MachineCountTap"]

_MASK64 = (1 << 64) - 1
_GPR_INDEX = {name: i for i, name in enumerate(GPRS)}
_XMM_INDEX = {f"xmm{i}": i for i in range(16)}

#: IR opcodes that are synchronization points
_IR_SYNC_OPS = frozenset(["store", "br", "condbr", "call", "ret"])


class Tap:
    """Base of every tap: no-op ``attach``/``finish`` and no trace.
    Subclasses define ``hook`` with their layer's signature."""

    #: what the tapped run reports as ``extra["trace"]``
    trace = None

    def attach(self, sim) -> None:
        pass

    def finish(self, *state) -> None:
        pass


class _CountTap(Tap):
    """Dynamic execution count per static id: ``counts`` maps each
    executed id to its steps, in ascending id order."""

    _counts: List[int]

    @property
    def counts(self) -> Dict[int, int]:
        return {i: c for i, c in enumerate(self._counts) if c}


class IRCountTap(_CountTap):
    """Counts every IR instruction by iid."""

    def attach(self, interp) -> None:
        self._counts = [0] * (max(
            (inst.iid for inst in interp.module.instructions()),
            default=0) + 1)

    def hook(self, inst, frame) -> None:
        self._counts[inst.iid] += 1


class MachineCountTap(_CountTap):
    """Counts every asm instruction by pc."""

    def attach(self, machine) -> None:
        self._counts = [0] * len(machine.program.uops)

    def hook(self, pc, regs, xmm) -> None:
        self._counts[pc] += 1


class _TracerBase(Tap):
    """Shared sync/step bookkeeping."""

    def __init__(self, config: Optional[TraceConfig] = None):
        self.config = config or TraceConfig()
        self.trace: Optional[Trace] = None
        self._steps_on = self.config.mode in ("ring", "sample", "full")
        self._every = (
            self.config.sample_every if self.config.mode == "sample" else 1
        )
        self._sync_limit = self.config.sync_limit
        self._n = 0
        self._out_len = 0

    def _make_trace(self, layer: str) -> Trace:
        if self.trace is not None:
            raise RuntimeError("tracer instances are single-use; "
                               "create a fresh one per run")
        self.trace = Trace(layer, self.config)
        return self.trace

    def _emit(self, kind: str, ref, value, step: int,
              loc: Optional[int]) -> None:
        trace = self.trace
        sync = trace.sync
        if self._sync_limit is not None and len(sync) >= self._sync_limit:
            trace.truncated = True
            return
        sync.append(SyncEvent(kind, ref, value, step, loc))

    def _flush_outputs(self, outputs: List[str], step: int,
                       loc: Optional[int]) -> None:
        n = len(outputs)
        if n != self._out_len:
            for item in outputs[self._out_len:n]:
                self._emit("output", None, item, step, loc)
            self._out_len = n


class IRTracer(_TracerBase):
    """Trace tap for :class:`repro.interp.interpreter.IRInterpreter`."""

    def __init__(self, config: Optional[TraceConfig] = None):
        super().__init__(config)
        self._interp = None
        self._stack_limit = 0
        #: (record, frame, iid) awaiting its post-execution value
        self._pending: Optional[Tuple[StepRecord, object, int]] = None

    def attach(self, interp) -> None:
        self._interp = interp
        self._stack_limit = interp.memory.stack_limit
        self._make_trace("ir")

    # called by the interpreter once per dynamic instruction, *before*
    # the instruction executes
    def hook(self, inst, frame) -> None:
        self._n = step = self._n + 1
        pend = self._pending
        if pend is not None:
            rec, pframe, piid = pend
            rec.value = pframe.temps.get(piid)
            self._pending = None
        interp = self._interp
        self._flush_outputs(interp.outputs, step, inst.iid)

        op = inst.opcode
        if op in _IR_SYNC_OPS:
            self._sync_ir(inst, frame, op, step, interp)

        if self._steps_on and step % self._every == 0:
            rec = StepRecord(step, inst.iid, op,
                             inst.short() if inst.has_result else None)
            self.trace._steps.append(rec)
            if inst.has_result:
                self._pending = (rec, frame, inst.iid)

    def _sync_ir(self, inst, frame, op: str, step: int, interp) -> None:
        val = interp._value
        iid = inst.iid
        if op == "store":
            v = val(frame, inst.operands[0])
            p = val(frame, inst.operands[1])
            ty = inst.operands[0].type
            if ty.is_float:
                size, bits = 8, f64_bits(float(v))
            else:
                size = 1 if ty.size == 1 else 8
                bits = int(v) & ((1 << (8 * size)) - 1)
            addr = int(p) & _MASK64
            # stack-slot addresses are layer-local (frame layouts
            # differ); global/heap addresses are shared via the layout
            if addr >= self._stack_limit:
                addr = "stack"
            self._emit("store", iid, (addr, size, bits), step, iid)
        elif op == "condbr":
            taken = val(frame, inst.operands[0])
            label = (inst.then_block.label if taken
                     else inst.else_block.label)
            self._emit("jump", iid, label, step, iid)
        elif op == "br":
            self._emit("jump", iid, inst.target.label, step, iid)
        elif op == "call":
            if not isinstance(inst.callee, str):
                args = []
                for a in inst.operands:
                    av = val(frame, a)
                    if a.type.is_float:
                        args.append(f64_bits(float(av)))
                    else:
                        args.append(int(av) & _MASK64)
                self._emit("call", iid, tuple(args), step, iid)
        else:  # ret
            if inst.operands:
                rv = val(frame, inst.operands[0])
                if frame.fn.return_type.is_float:
                    value = f64_bits(float(rv))
                else:
                    value = int(rv) & _MASK64
            else:
                value = None
            self._emit("ret", iid, value, step, iid)

    def finish(self) -> None:
        pend = self._pending
        if pend is not None:
            rec, pframe, piid = pend
            rec.value = pframe.temps.get(piid)
            self._pending = None
        if self._interp is not None:
            self._flush_outputs(self._interp.outputs, self._n, None)
        self.trace.steps_seen = self._n


# machine sync-plan opcodes
_P_STORE_R, _P_STORE_I, _P_STORE_F, _P_JCC, _P_JMP, _P_CALL, _P_RET = range(7)


class MachineTracer(_TracerBase):
    """Trace tap for :class:`repro.machine.machine.AsmMachine`.

    Pass the IR ``module`` to get full call-argument and return-value
    payloads (required for cross-layer diffing); without it, call and
    ret events carry ``None`` values and are only comparable to other
    module-less assembly traces.
    """

    def __init__(self, config: Optional[TraceConfig] = None, module=None):
        super().__init__(config)
        self.module = module
        self._machine = None
        self._stack_limit = 0
        self._plan: List[Optional[tuple]] = []
        self._dest: List[Optional[Tuple[str, int]]] = []
        self._ops: List[str] = []
        self._outputs: List[str] = []
        #: (iid, target index, label, jcc pc) of an unresolved jcc
        self._pending_jump: Optional[Tuple[int, int, str, int]] = None
        #: (record, pc) awaiting its post-execution value
        self._pending_step: Optional[Tuple[StepRecord, int]] = None

    def attach(self, machine) -> None:
        self._machine = machine
        self._outputs = machine.outputs
        self._stack_limit = machine.memory.stack_limit
        self._compile_plan(machine.program)
        self._make_trace("asm")

    # -- static plan -------------------------------------------------------

    def _compile_plan(self, program) -> None:
        from ..machine.machine import (
            CALL, CALLRT, JCC, JMP, MOVSD_MX, MOV_MI, MOV_MR, RET,
        )

        flat = program.flat
        insts = flat.insts
        uops = program.uops
        module = self.module
        calls: Dict[int, Call] = {}
        ret_kind: Dict[str, Optional[str]] = {}
        if module is not None:
            for inst in module.instructions():
                if isinstance(inst, Call):
                    calls[inst.iid] = inst
            for fn in module.functions.values():
                if not fn.is_declaration:
                    ret_kind[fn.name] = (
                        None if fn.return_type.is_void
                        else "f" if fn.return_type.is_float else "i"
                    )

        plan: List[Optional[tuple]] = [None] * len(uops)
        dest: List[Optional[Tuple[str, int]]] = [None] * len(uops)
        ops: List[str] = [""] * len(uops)
        for i, u in enumerate(uops):
            inst = insts[i]
            code = u[0]
            ops[i] = inst.opcode if inst.cc is None else (
                f"{inst.opcode}{inst.cc}"
            )
            reg = inst.dest_reg()
            if reg is not None:
                if reg.is_xmm:
                    dest[i] = ("x", _XMM_INDEX[reg.name])
                else:
                    dest[i] = ("g", _GPR_INDEX[reg.name])
            prov = inst.prov_iid
            if code in (MOV_MR, MOV_MI, MOVSD_MX):
                # memory writes with role MAIN implement IR stores;
                # every other memory write is a spill or frame traffic
                if prov is None or inst.role != Role.MAIN:
                    continue
                if code == MOV_MR:
                    plan[i] = (_P_STORE_R, prov, u[1], u[2], u[4], u[3])
                elif code == MOV_MI:
                    size = u[4]
                    bits = u[3] & ((1 << (8 * size)) - 1)
                    plan[i] = (_P_STORE_I, prov, u[1], u[2], size, bits)
                else:
                    plan[i] = (_P_STORE_F, prov, u[1], u[2], u[3])
            elif code == JCC:
                label = insts[i].operands[0].name
                plan[i] = (_P_JCC, prov, u[1], label)
            elif code == JMP:
                if prov is None:
                    continue
                # br jumps, const-folded condbrs, and the companion
                # jmp after a jcc (which only executes on the jcc's
                # not-taken fallthrough) all resolve one IR terminator
                plan[i] = (_P_JMP, prov, insts[i].operands[0].name)
            elif code == CALL:
                call = calls.get(prov)
                argplan: Optional[tuple] = None
                if call is not None:
                    int_idx = fp_idx = 0
                    slots = []
                    for a in call.operands:
                        if a.type.is_float:
                            slots.append(("f", fp_idx))
                            fp_idx += 1
                        else:
                            slots.append(("i", int_idx))
                            int_idx += 1
                    argplan = tuple(slots)
                plan[i] = (_P_CALL, prov, argplan)
            elif code == RET:
                fn = flat.inst_fn[i]
                plan[i] = (_P_RET, prov, ret_kind.get(fn))
        self._plan = plan
        self._dest = dest
        self._ops = ops

    # -- runtime hook ------------------------------------------------------

    # called by the machine once per dynamic instruction, *before* the
    # instruction executes (so the previous instruction's effects are
    # visible in regs/xmm)
    def hook(self, pc: int, regs: List[int], xmm: List[float]) -> None:
        self._n = step = self._n + 1
        pend = self._pending_step
        if pend is not None:
            rec, ppc = pend
            dplan = self._dest[ppc]
            if dplan is not None:
                kind, idx = dplan
                rec.value = regs[idx] if kind == "g" else xmm[idx]
            self._pending_step = None
        pj = self._pending_jump
        if pj is not None:
            self._pending_jump = None
            iid, target, label, jpc = pj
            if pc == target:
                self._emit("jump", iid, label, step, jpc)
            # not taken: the companion jmp (current pc) emits instead
        if len(self._outputs) != self._out_len:
            self._flush_outputs(self._outputs, step, pc)

        plan = self._plan[pc]
        if plan is not None:
            code = plan[0]
            if code == _P_STORE_R:
                _, iid, base, disp, size, src = plan
                addr = (disp + (regs[base] if base >= 0 else 0)) & _MASK64
                if addr >= self._stack_limit:
                    addr = "stack"
                bits = regs[src] & ((1 << (8 * size)) - 1)
                self._emit("store", iid, (addr, size, bits), step, pc)
            elif code == _P_STORE_I:
                _, iid, base, disp, size, bits = plan
                addr = (disp + (regs[base] if base >= 0 else 0)) & _MASK64
                if addr >= self._stack_limit:
                    addr = "stack"
                self._emit("store", iid, (addr, size, bits), step, pc)
            elif code == _P_STORE_F:
                _, iid, base, disp, x = plan
                addr = (disp + (regs[base] if base >= 0 else 0)) & _MASK64
                if addr >= self._stack_limit:
                    addr = "stack"
                self._emit("store", iid, (addr, 8, f64_bits(xmm[x])),
                           step, pc)
            elif code == _P_JCC:
                self._pending_jump = (plan[1], plan[2], plan[3], pc)
            elif code == _P_JMP:
                self._emit("jump", plan[1], plan[2], step, pc)
            elif code == _P_CALL:
                _, iid, argplan = plan
                if argplan is None:
                    value = None
                else:
                    from ..backend.isa import FP_ARG_REGS, INT_ARG_REGS

                    args = []
                    for kind, idx in argplan:
                        if kind == "i":
                            args.append(
                                regs[_GPR_INDEX[INT_ARG_REGS[idx]]]
                            )
                        else:
                            args.append(
                                f64_bits(xmm[_XMM_INDEX[FP_ARG_REGS[idx]]])
                            )
                    value = tuple(args)
                self._emit("call", iid, value, step, pc)
            else:  # _P_RET
                _, iid, kind = plan
                if kind == "i":
                    value = regs[_GPR_INDEX["rax"]]
                elif kind == "f":
                    value = f64_bits(xmm[0])
                else:
                    value = None
                self._emit("ret", iid, value, step, pc)

        if self._steps_on and step % self._every == 0:
            rec = StepRecord(step, pc, self._ops[pc])
            dplan = self._dest[pc]
            if dplan is not None:
                rec.dest = self._machine.program.flat.insts[pc].dest_reg().name
                self._pending_step = (rec, pc)
            self.trace._steps.append(rec)

    def finish(self, regs: List[int], xmm: List[float]) -> None:
        pend = self._pending_step
        if pend is not None:
            rec, ppc = pend
            dplan = self._dest[ppc]
            if dplan is not None:
                kind, idx = dplan
                rec.value = regs[idx] if kind == "g" else xmm[idx]
            self._pending_step = None
        self._flush_outputs(self._outputs, self._n, None)
        self.trace.steps_seen = self._n
