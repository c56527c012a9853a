"""The IR interpreter — the "LLVM level" execution layer.

Executes a verified module instruction by instruction with an explicit
call stack (no host recursion), counting dynamic instructions and
optionally injecting a single bit-flip into the *destination value* of
one dynamic instruction — the LLFI-style fault model of the paper:

* injection sites are instructions that produce a result (loads, binops,
  compares, geps, casts, selects, calls-with-result);
* ``store``/``br``/``condbr``/``ret`` have no destination and are NOT
  injection sites — the root of the cross-layer deficiency;
* the flipped bit is uniform over the destination's type width.

Two further fault models open the scenario space (DESIGN §14):

* ``fault_model="set"`` — a single-event transient: a two-adjacent-bit
  burst in the produced value (:func:`_set_value`); same injectable
  sites as SEU, wider corruption;
* ``fault_model="cf"`` — a control-flow fault: the injectable sites
  become dynamic ``br``/``condbr`` executions, and a hit retargets the
  transfer to a uniformly drawn basic block of the current function.
  The corrupted edge is reported in ``ExecResult.extra["cf_edge"]``.

The interpreter shares the memory model and global layout with the
machine so program semantics (pointer values, trap behaviour, output
bytes) agree across layers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Union

from ..errors import CheckpointsDone, FaultDetected, IRError, SimTrap
from ..execresult import ExecResult
from ..ir import types as T
from ..ir.instructions import (
    Alloca,
    BinOp,
    Br,
    Call,
    Cast,
    CondBr,
    FCmp,
    Gep,
    ICmp,
    Instruction,
    Load,
    Ret,
    Select,
    Store,
    Unreachable,
)
from ..ir.intrinsics import (
    DETECT,
    INTRINSICS,
    PRINT_CHAR,
    PRINT_F64,
    PRINT_I64,
    math_impl,
)
from ..ir.module import BasicBlock, Function, Module
from ..ir.values import Argument, Constant, GlobalVariable, Value
from ..simulator import Simulator, Snapshot
from ..utils import bits
from ..utils.fmt import format_char, format_f64, format_i64
from .layout import GlobalLayout

__all__ = ["IRInterpreter", "IRSnapshot", "run_ir", "DEFAULT_MAX_STEPS"]

DEFAULT_MAX_STEPS = 50_000_000

_MATH_CACHE: Dict[str, Callable[..., float]] = {}


def _math(name: str) -> Callable[..., float]:
    fn = _MATH_CACHE.get(name)
    if fn is None:
        fn = math_impl(name)
        _MATH_CACHE[name] = fn
    return fn


@dataclass
class _Frame:
    fn: Function
    block: BasicBlock
    index: int
    temps: Dict[int, Union[int, float]]
    sp_save: int
    #: iid in the *caller's* temps to receive our return value
    ret_target: Optional[int]
    #: actual argument values, indexed by Argument.index
    arg_values: List[Union[int, float]] = None  # type: ignore[assignment]
    #: bit to flip in our return value when it lands in the caller
    ret_flip_bit: Optional[int] = None
    #: decoded code list of ``block`` (pre-decoded dispatch only)
    code: Optional[list] = None


class IRSnapshot(Snapshot):
    """Complete mid-run interpreter state (see :class:`Snapshot`): the
    shared fields plus the stack pointer and the call frames.

    Replaying from a snapshot with ``inject_index`` equal to its index
    executes only the post-injection suffix and is bit-identical to a
    full run — the basis of the checkpoint-replay campaign engine.
    """

    __slots__ = ("sp", "frames")

    def __init__(self, mem, sp, outputs, dyn_total, dyn_injectable,
                 frames):
        super().__init__(mem, outputs, dyn_total, dyn_injectable)
        self.sp = sp
        #: tuple of (fn, block, code, index, temps, sp_save, ret_target,
        #: ret_flip_bit, arg_values) per frame, innermost last
        self.frames = frames


def _flip_value(value: Union[int, float], ty: T.Type, bit: int) -> Union[int, float]:
    """Flip one bit of a destination value according to its type."""
    if ty.is_float:
        return bits.flip_float_bit(float(value), bit % 64)
    if ty.is_pointer:
        return (int(value) ^ (1 << (bit % 64))) & bits.mask(64)
    width = ty.bits
    return bits.flip_int_bit(int(value), bit % width, width)


def _set_value(value: Union[int, float], ty: T.Type, bit: int) -> Union[int, float]:
    """Corrupt a destination value with a two-adjacent-bit burst.

    The IR analogue of a single-event transient (SET): a glitch in
    combinational logic is latched by the consuming flip-flops, so the
    corruption is wider than one latch.  The asm layer additionally
    corrupts a condition flag for GPR-writing instructions; flags have
    no IR analogue, so here a SET is the burst alone.  Degrades to a
    single flip at width 1 (both positions coincide mod the width).
    """
    if ty.is_float:
        v = bits.flip_float_bit(float(value), bit % 64)
        return bits.flip_float_bit(v, (bit + 1) % 64)
    if ty.is_pointer:
        m = (1 << (bit % 64)) | (1 << ((bit + 1) % 64))
        return (int(value) ^ m) & bits.mask(64)
    width = ty.bits
    b1 = bit % width
    b2 = (bit + 1) % width
    v = bits.flip_int_bit(int(value), b1, width)
    if b2 != b1:
        v = bits.flip_int_bit(v, b2, width)
    return v


def _c_div(a: int, b: int) -> int:
    """C-style truncating integer division."""
    q = abs(a) // abs(b)
    return -q if (a < 0) != (b < 0) else q


class IRInterpreter(Simulator):
    """One interpreter instance per execution (holds mutable run state);
    the run contract lives in :class:`~repro.simulator.Simulator`."""

    layer = "ir"

    def __init__(
        self,
        module: Module,
        layout: Optional[GlobalLayout] = None,
        max_steps: int = DEFAULT_MAX_STEPS,
        heap_size: int = 1 << 20,
        stack_size: int = 1 << 19,
        trace=None,
        dispatch: str = "decoded",
        contain: Optional[bool] = None,
        max_call_depth: Optional[int] = None,
        output_budget: Optional[int] = None,
        mem_budget: Optional[int] = None,
        fault_model: Optional[str] = None,
    ):
        self.module = module
        super().__init__(layout or GlobalLayout(module), max_steps,
                         heap_size, stack_size, trace, dispatch, contain,
                         max_call_depth, output_budget, mem_budget,
                         fault_model)
        self.sp = self.memory.stack_base
        self.injected_iid: Optional[int] = None

    # -- public API ------------------------------------------------------

    def run(
        self,
        entry: str = "main",
        args: Sequence[Union[int, float]] = (),
        inject_index: Optional[int] = None,
        inject_bit: int = 0,
        resume_from: Optional[IRSnapshot] = None,
        checkpoints: Optional[Sequence[int]] = None,
        checkpoint_cb=None,
    ) -> ExecResult:
        """Execute ``entry`` and classify the run.

        ``inject_index`` selects the N-th injectable dynamic site
        (0-based) of the fault model, ``inject_bit`` the fault
        coordinate.  Per-step observation (tracing, site enumeration,
        dynamic instruction counts) is a tap passed to the constructor
        as ``trace=``; see :mod:`repro.trace.tap`.

        Checkpoint-replay runs on either snapshot tier (decoded or
        codegen; naive refuses it): ``checkpoints`` is a sorted list of
        distinct injectable indices; right before the step that
        allocates each one, ``checkpoint_cb(index, snapshot)`` receives
        an :class:`IRSnapshot`.  After the last snapshot the run stops
        early (status OK, ``extra["early_stop"]``); checkpointing runs
        on the decoded core whatever the tier.  ``resume_from`` restores
        a snapshot and executes only the suffix.
        """
        return self._run((self.module.function(entry), list(args)),
                         inject_index, inject_bit, resume_from,
                         checkpoints, checkpoint_cb)

    @staticmethod
    def _tracer_class():
        from ..trace.tap import IRTracer

        return IRTracer

    def _finish(self, value):
        if self.tracer is not None:
            self.tracer.finish()
        return {"return_value": value,
                "injected_iid": self.injected_iid}, {}

    def _naive(self, start):
        return self._execute(*start)

    # -- execution core -----------------------------------------------------

    def _execute(self, entry_fn: Function, args: List[Union[int, float]]):
        if entry_fn.is_declaration:
            raise IRError(f"cannot execute declaration @{entry_fn.name}")
        stack: List[_Frame] = []
        frame = self._push_frame(entry_fn, args, None)
        mem = self.memory
        tracer = self.tracer
        hook = tracer.hook if tracer is not None else None
        fm = self.fault_model
        cf_mode = fm == "cf"
        flip = _set_value if fm == "set" else _flip_value
        self._armed = True

        while True:
            block = frame.block
            insts = block.instructions
            if frame.index >= len(insts):
                raise IRError(
                    f"fell off block {block.label} in @{frame.fn.name}"
                )
            inst = insts[frame.index]
            frame.index += 1

            self.dyn_total += 1
            if self.dyn_total > self.max_steps:
                raise SimTrap("step-budget",
                              f"exceeded {self.max_steps} steps")
            if hook is not None:
                hook(inst, frame)

            op = inst.opcode

            # ---- terminators & control flow (no destination value) -----
            # under the cf model br/condbr ARE the injection sites: a
            # hit retargets the transfer to a uniformly drawn block
            if op == "br":
                target_block = inst.target
                if cf_mode:
                    idx = self.dyn_injectable
                    self.dyn_injectable = idx + 1
                    if idx == self.inject_index:
                        target_block = self._redirect_block(
                            frame, inst, target_block)
                frame.block = target_block
                frame.index = 0
                continue
            if op == "condbr":
                cond = self._value(frame, inst.operands[0])
                target_block = inst.then_block if cond else inst.else_block
                if cf_mode:
                    idx = self.dyn_injectable
                    self.dyn_injectable = idx + 1
                    if idx == self.inject_index:
                        target_block = self._redirect_block(
                            frame, inst, target_block)
                frame.block = target_block
                frame.index = 0
                continue
            if op == "ret":
                retval = (
                    self._value(frame, inst.operands[0]) if inst.operands else None
                )
                self.sp = frame.sp_save
                if not stack:
                    return retval
                target, flip_bit = frame.ret_target, frame.ret_flip_bit
                callee_ret = frame.fn.return_type
                frame = stack.pop()
                if target is not None:
                    if flip_bit is not None:
                        retval = flip(retval, callee_ret, flip_bit)
                        self.injected = True
                    frame.temps[target] = retval
                continue
            if op == "store":
                value = self._value(frame, inst.operands[0])
                addr = self._value(frame, inst.operands[1])
                self._store_typed(addr, value, inst.operands[0].type)
                continue
            if op == "unreachable":
                raise SimTrap("unreachable", f"@{frame.fn.name}/{block.label}")

            if op == "call":
                frame = self._do_call(inst, frame, stack)
                continue

            if op == "alloca":
                size = max(1, inst.allocated_type.size)
                self.sp = (self.sp - size) & ~7
                if self.sp < mem.stack_limit:
                    raise SimTrap("stack-overflow", f"@{frame.fn.name}")
                frame.temps[inst.iid] = self.sp
                continue

            # ---- value-producing instructions (injection sites) --------
            # flip before allocating the index (same order as the
            # decoded loop) so a host exception inside the flip leaves
            # both dispatch modes with identical counters; under the cf
            # model value producers allocate no indices at all
            result = self._compute(frame, inst, op)
            if not cf_mode:
                idx = self.dyn_injectable
                if idx == self.inject_index:
                    result = flip(result, inst.type, self.inject_bit)
                    self.injected = True
                    self.injected_iid = inst.iid
                self.dyn_injectable = idx + 1
            frame.temps[inst.iid] = result

    # -- pre-decoded execution core ---------------------------------------

    def _decoded(self, start, resume_from: Optional[IRSnapshot],
                 checkpoints: Optional[Sequence[int]], checkpoint_cb):
        if resume_from is None:
            from .decode import decode_module

            frame, stack = self._enter(
                start, decode_module(self.module, self.layout,
                                     self.fault_model).functions)
        else:
            # a resume runs the decoded code its snapshot frames carry,
            # so it skips the module fingerprint walk of decode_module
            frame, stack = self._restore(resume_from)
        self._armed = True
        return self._run_decoded(frame, stack, checkpoints, checkpoint_cb)

    def _enter(self, start, functions):
        """``(frame, stack)`` of a fresh run of ``start`` over decoded
        ``functions``."""
        entry_fn, args = start
        if entry_fn.is_declaration:
            raise IRError(f"cannot execute declaration @{entry_fn.name}")
        frame = self._push_frame(entry_fn, args, None)
        frame.block, frame.code = functions[entry_fn].entry_pair
        return frame, []

    def _run_decoded(self, frame: _Frame, stack: List[_Frame],
                     watch: Optional[Sequence[int]] = None,
                     watch_cb=None, chunks: Optional[dict] = None):
        """The pre-decoded dispatch loop, for every fault model.

        Entries are ``(kind, payload, iid, inst)`` tuples decoded under
        the fault model's site rule (see :mod:`repro.interp.decode`);
        kinds ``<= 1`` allocate injectable dynamic indices exactly as
        the naive loop does.  The cf-rule kinds come last in the test
        chain: SEU/SET steps run the code they always ran, and a call
        pays one extra comparison.

        With ``chunks``, the codegen chunk map of the frame's function
        (``entry_bb``), the loop is the codegen tier's careful stepper:
        it returns at the next control transfer, which always lands on
        a chunk boundary, with the codegen driver's action — ``(1, rv)``
        before a return pops, ``(2, ...)`` before a call pushes, ``(5,
        bb)`` after a branch or a cf redirect.  Only the control-transfer
        branches test the mode.
        """
        stack_limit = self.memory.stack_limit
        max_call_depth = self.max_call_depth
        tracer = self.tracer
        hook = tracer.hook if tracer is not None else None

        dt = self.dyn_total
        inj = self.dyn_injectable
        max_steps = self.max_steps
        target = self.inject_index if self.inject_index is not None else -1
        inject_bit = self.inject_bit
        flip = _set_value if self.fault_model == "set" else _flip_value

        watch_iter = iter(watch) if watch is not None else None
        next_watch = (next(watch_iter, None)
                      if watch_iter is not None else None)

        code = frame.code
        i = frame.index
        try:
            while True:
                e = code[i]
                kind = e[0]

                if (next_watch is not None and kind <= 1
                        and inj == next_watch):
                    frame.index = i
                    self.dyn_total = dt
                    self.dyn_injectable = inj
                    watch_cb(next_watch, self._snapshot(stack, frame))
                    next_watch = next(watch_iter, None)
                    if next_watch is None:
                        raise CheckpointsDone()

                i += 1
                dt += 1
                if dt > max_steps:
                    raise SimTrap("step-budget",
                                  f"exceeded {max_steps} steps")
                if hook is not None:
                    frame.index = i
                    self.dyn_total = dt
                    self.dyn_injectable = inj
                    hook(e[3], frame)

                if kind == 0:       # value producer (injection site)
                    r = e[1](self, frame)
                    if inj == target:
                        r = flip(r, e[3].type, inject_bit)
                        self.injected = True
                        self.injected_iid = e[2]
                    inj += 1
                    frame.temps[e[2]] = r
                elif kind == 5:     # br
                    frame.block, code = e[1]
                    frame.code = code
                    i = 0
                    if chunks is not None:
                        return (5, chunks[frame.block, 0])
                elif kind == 6:     # condbr
                    p = e[1]
                    frame.block, code = p[1] if p[0](self, frame) else p[2]
                    frame.code = code
                    i = 0
                    if chunks is not None:
                        return (5, chunks[frame.block, 0])
                elif kind == 2:     # store / void intrinsic / raiser
                    e[1](self, frame)
                elif kind == 4:     # ret
                    p = e[1]
                    rv = p(self, frame) if p is not None else None
                    if chunks is not None:
                        return (1, rv)
                    self.sp = frame.sp_save
                    if not stack:
                        return rv
                    tgt = frame.ret_target
                    fb = frame.ret_flip_bit
                    callee_ret = frame.fn.return_type
                    frame = stack.pop()
                    code = frame.code
                    i = frame.index
                    if tgt is not None:
                        if fb is not None:
                            rv = flip(rv, callee_ret, fb)
                            self.injected = True
                        frame.temps[tgt] = rv
                elif kind == 7:     # alloca
                    sp = (self.sp - e[1]) & ~7
                    self.sp = sp
                    if sp < stack_limit:
                        raise SimTrap("stack-overflow",
                                      f"@{frame.fn.name}")
                    frame.temps[e[2]] = sp
                elif kind == 1 or kind == 3:    # call (1: a site)
                    p = e[1]
                    call_args = p[0](self, frame)
                    flip_bit = None
                    if kind == 1:
                        if inj == target:
                            flip_bit = inject_bit
                            self.injected_iid = e[2]
                        inj += 1
                    dfn = p[1]
                    if chunks is not None:
                        frame.index = i
                        return (2, dfn, call_args, p[2], flip_bit,
                                chunks[frame.block, i])
                    if len(stack) >= max_call_depth:
                        raise SimTrap(
                            "stack-overflow",
                            f"call depth {max_call_depth} exceeded "
                            f"calling @{dfn.fn.name}")
                    sp_save = self.sp
                    sp = sp_save - 16
                    self.sp = sp
                    if sp < stack_limit:
                        raise SimTrap("stack-overflow",
                                      f"calling @{dfn.fn.name}")
                    frame.index = i
                    stack.append(frame)
                    block, code = dfn.entry_pair
                    frame = _Frame(
                        fn=dfn.fn, block=block, index=0, temps={},
                        sp_save=sp_save, ret_target=p[2],
                        arg_values=call_args, ret_flip_bit=flip_bit,
                        code=code,
                    )
                    i = 0
                elif kind == 8:     # value producer (not a cf site)
                    frame.temps[e[2]] = e[1](self, frame)
                else:               # br (-1) / condbr (-2): a cf site
                    if kind == -1:
                        pair = e[1]
                    else:
                        p = e[1]
                        pair = p[1] if p[0](self, frame) else p[2]
                    if inj == target:
                        pair = self._redirect(frame, e, pair)
                    inj += 1
                    frame.block, code = pair
                    frame.code = code
                    i = 0
                    if chunks is not None:
                        return (5, chunks[frame.block, 0])
        except IndexError:
            raise IRError(
                f"fell off block {frame.block.label} in @{frame.fn.name}"
            ) from None
        except KeyError as k:
            raise IRError(
                f"use of unevaluated %t{k.args[0]} in @{frame.fn.name}"
            ) from None
        finally:
            self.dyn_total = dt
            self.dyn_injectable = inj

    # -- codegen execution core -------------------------------------------

    def _codegen(self, start, resume_from: Optional[IRSnapshot]):
        """Generated-code twin of :meth:`_decoded` (DESIGN §13): a fresh
        run enters the entry function's first chunk; a resume re-enters
        at the chunk its innermost frame stopped at, or through the
        careful stepper when it stopped mid-chunk."""
        from .codegen import codegen_module

        gm = codegen_module(self.module, self.layout, self.fault_model)
        if resume_from is None:
            frame, stack = self._enter(start, gm.dm.functions)
            bbs: List[int] = []
            bb = 0
        else:
            frame, stack = self._restore(resume_from)
            # outer frames always suspend at after-call positions, which
            # are chunk boundaries by construction
            bbs = [gm.functions[f.fn].entry_bb[(f.block, f.index)]
                   for f in stack]
            # a snapshot that stopped mid-chunk enters through the
            # careful stepper (bb -1)
            bb = gm.functions[frame.fn].entry_bb.get(
                (frame.block, frame.index), -1)
        self._armed = True
        return self._run_codegen(gm, frame, stack, bbs, bb)

    def _run_codegen(self, gm, frame: _Frame, stack: List[_Frame],
                     bbs: List[int], bb: int):
        """Trampoline driver for generated code.

        Generated functions execute whole chunks and return action
        tuples (see :mod:`repro.interp.codegen`); this loop handles the
        frame pushes/pops (with the decoded loop's exact depth and
        stack-overflow semantics), return-value flips, re-entry into
        the compile unit that holds a branch's target chunk, and the
        one exceptional exit, ``(4,)``: the chunk could run out of step
        budget or holds the injection target, so the decoded loop steps
        it as the careful stepper (:meth:`_run_decoded` with the
        function's chunk map) and answers with the action of the
        chunk's closing control transfer.  ``bb`` -1 enters through
        that exit.
        """
        c = [self.dyn_total, self.dyn_injectable,
             self.inject_index if self.inject_index is not None else -1,
             self.inject_bit]
        stack_limit = self.memory.stack_limit
        max_call_depth = self.max_call_depth
        fns = gm.functions
        flip = _set_value if self.fault_model == "set" else _flip_value
        try:
            r = None if bb >= 0 else (4,)
            while True:
                if r is None:
                    r = fns[frame.fn].units[bb](self, frame, c, bb)
                tag = r[0]
                if tag == 5:        # a branch to chunk bb
                    bb = r[1]
                elif tag == 1:      # ret
                    rv = r[1]
                    self.sp = frame.sp_save
                    if not stack:
                        return rv
                    tgt = frame.ret_target
                    fb = frame.ret_flip_bit
                    callee_ret = frame.fn.return_type
                    frame = stack.pop()
                    bb = bbs.pop()
                    if tgt is not None:
                        if fb is not None:
                            rv = flip(rv, callee_ret, fb)
                            self.injected = True
                        frame.temps[tgt] = rv
                elif tag == 2:      # call
                    dfn = r[1]
                    if len(stack) >= max_call_depth:
                        raise SimTrap(
                            "stack-overflow",
                            f"call depth {max_call_depth} exceeded "
                            f"calling @{dfn.fn.name}")
                    sp_save = self.sp
                    sp = sp_save - 16
                    self.sp = sp
                    if sp < stack_limit:
                        raise SimTrap("stack-overflow",
                                      f"calling @{dfn.fn.name}")
                    stack.append(frame)
                    bbs.append(r[5])
                    block, code = dfn.entry_pair
                    frame = _Frame(
                        fn=dfn.fn, block=block, index=0, temps={},
                        sp_save=sp_save, ret_target=r[3],
                        arg_values=r[2], ret_flip_bit=r[4], code=code,
                    )
                    bb = 0
                else:               # (4,): careful-step this chunk
                    self.dyn_total = c[0]
                    self.dyn_injectable = c[1]
                    try:
                        r = self._run_decoded(
                            frame, stack, chunks=fns[frame.fn].entry_bb)
                    finally:
                        c[0] = self.dyn_total
                        c[1] = self.dyn_injectable
                    continue
                r = None
        except KeyError as k:
            raise IRError(
                f"use of unevaluated %t{k.args[0]} in @{frame.fn.name}"
            ) from None
        finally:
            self.dyn_total = c[0]
            self.dyn_injectable = c[1]

    def _snapshot(self, stack: List[_Frame], frame: _Frame) -> IRSnapshot:
        frames = tuple(
            (f.fn, f.block, f.code, f.index, dict(f.temps), f.sp_save,
             f.ret_target, f.ret_flip_bit, list(f.arg_values))
            for f in (*stack, frame)
        )
        return IRSnapshot(
            mem=self.memory.snapshot(),
            sp=self.sp,
            outputs=tuple(self.outputs),
            dyn_total=self.dyn_total,
            dyn_injectable=self.dyn_injectable,
            frames=frames,
        )

    def _restore(self, snap: IRSnapshot):
        """Reset the complete run state to ``snap`` (one interpreter may
        serve many replays); returns the resumed ``(frame, stack)``."""
        self._resume(snap)
        self.injected_iid = None
        self.sp = snap.sp
        frames = [
            _Frame(fn=f, block=b, index=i, temps=dict(t), sp_save=s,
                   ret_target=rt, arg_values=list(av), ret_flip_bit=rf,
                   code=c)
            for (f, b, c, i, t, s, rt, rf, av) in snap.frames
        ]
        frame = frames.pop()
        return frame, frames

    # -- helpers -----------------------------------------------------------

    def _push_frame(
        self,
        fn: Function,
        args: Sequence[Union[int, float]],
        ret_target: Optional[int],
    ) -> _Frame:
        if len(args) != len(fn.args):
            raise IRError(
                f"@{fn.name} expects {len(fn.args)} args, got {len(args)}"
            )
        # Model the call's stack footprint (return address + saved frame
        # pointer) so runaway recursion traps as a stack overflow, exactly
        # as at assembly level.
        sp_save = self.sp
        self.sp -= 16
        if self.sp < self.memory.stack_limit:
            raise SimTrap("stack-overflow", f"calling @{fn.name}")
        return _Frame(
            fn=fn,
            block=fn.entry,
            index=0,
            temps={},
            sp_save=sp_save,
            ret_target=ret_target,
            arg_values=list(args),
        )

    def _redirect(self, frame: _Frame, e: tuple, normal: tuple) -> tuple:
        """The decoded tiers' cf fault at branch entry ``e``: the
        uniformly drawn (block, code) pair replacing ``normal``."""
        pairs = e[4]
        pair = pairs[self.inject_bit % len(pairs)]
        self._note_cf_edge(frame, e[3], normal[0], pair[0])
        return pair

    def _note_cf_edge(self, frame: _Frame, inst: Instruction,
                      normal: BasicBlock, redirect: BasicBlock) -> None:
        """Record the corrupted edge of a control-flow fault."""
        self.injected = True
        self.injected_iid = inst.iid
        self._cf_edge = {
            "layer": "ir",
            "fn": frame.fn.name,
            "from": frame.block.label,
            "iid": inst.iid,
            "to": normal.label,
            "redirect": redirect.label,
        }

    def _redirect_block(self, frame: _Frame, inst: Instruction,
                        normal: BasicBlock) -> BasicBlock:
        """Pick the uniformly drawn redirect target of a cf fault."""
        blocks = frame.fn.blocks
        redirect = blocks[self.inject_bit % len(blocks)]
        self._note_cf_edge(frame, inst, normal, redirect)
        return redirect

    def _value(self, frame: _Frame, v: Value) -> Union[int, float]:
        if isinstance(v, Instruction):
            try:
                return frame.temps[v.iid]
            except KeyError:
                raise IRError(
                    f"use of unevaluated %t{v.iid} in @{frame.fn.name}"
                ) from None
        if isinstance(v, Constant):
            return v.value
        if isinstance(v, GlobalVariable):
            return self.layout.address_of(v)
        if isinstance(v, Argument):
            return frame.arg_values[v.index]
        raise IRError(f"cannot evaluate operand {v!r}")

    def _load_typed(self, addr: int, ty: T.Type) -> Union[int, float]:
        if ty.is_float:
            return self.memory.read_f64(addr)
        if ty.is_pointer:
            return self.memory.read_int(addr, 8, signed=False)
        return self.memory.read_int(addr, ty.size)

    def _store_typed(self, addr: int, value: Union[int, float], ty: T.Type) -> None:
        if ty.is_float:
            self.memory.write_f64(addr, float(value))
        else:
            self.memory.write_int(addr, int(value), ty.size)

    def _do_call(self, inst: Call, frame: _Frame, stack: List[_Frame]) -> _Frame:
        args = [self._value(frame, a) for a in inst.operands]
        has_result = not inst.type.is_void

        # decide whether this call's *result* receives the fault (calls
        # are not sites under the cf model — IR callees are direct)
        flip_bit: Optional[int] = None
        if has_result and self.fault_model != "cf":
            idx = self.dyn_injectable
            self.dyn_injectable += 1
            if idx == self.inject_index:
                flip_bit = self.inject_bit
                self.injected_iid = inst.iid

        if isinstance(inst.callee, str):
            result = self._intrinsic(inst.callee, args)
            if has_result:
                if flip_bit is not None:
                    flip = (_set_value if self.fault_model == "set"
                            else _flip_value)
                    result = flip(result, inst.type, flip_bit)
                    self.injected = True
                frame.temps[inst.iid] = result
            return frame

        callee: Function = inst.callee
        if callee.is_declaration:
            raise IRError(f"call to declaration @{callee.name}")
        if len(stack) >= self.max_call_depth:
            raise SimTrap(
                "stack-overflow",
                f"call depth {self.max_call_depth} exceeded "
                f"calling @{callee.name}")
        stack.append(frame)
        new = self._push_frame(
            callee, args, inst.iid if has_result else None
        )
        new.ret_flip_bit = flip_bit
        return new

    def _intrinsic(self, name: str, args: List[Union[int, float]]):
        if name == PRINT_I64:
            self.outputs.append(format_i64(int(args[0])) + "\n")
            return None
        if name == PRINT_F64:
            self.outputs.append(format_f64(float(args[0])) + "\n")
            return None
        if name == PRINT_CHAR:
            self.outputs.append(format_char(int(args[0])))
            return None
        if name == DETECT:
            raise FaultDetected("checker")
        if name in INTRINSICS:
            return _math(name)(*[float(a) for a in args])
        raise IRError(f"unknown intrinsic @{name}")

    # -- pure computation --------------------------------------------------

    def _compute(self, frame: _Frame, inst: Instruction, op: str):
        val = self._value
        if op == "load":
            addr = val(frame, inst.operands[0])
            return self._load_typed(addr, inst.type)
        if op == "gep":
            base = val(frame, inst.operands[0])
            index = val(frame, inst.operands[1])
            return (base + index * inst.element_size) & bits.mask(64)
        if op == "icmp":
            a = val(frame, inst.operands[0])
            b = val(frame, inst.operands[1])
            return 1 if _icmp(inst.pred, int(a), int(b),
                              inst.operands[0].type) else 0
        if op == "fcmp":
            a = float(val(frame, inst.operands[0]))
            b = float(val(frame, inst.operands[1]))
            return 1 if _fcmp(inst.pred, a, b) else 0
        if op == "select":
            c = val(frame, inst.operands[0])
            return val(frame, inst.operands[1 if c else 2])
        if op in _INT_ARITH:
            a = int(val(frame, inst.operands[0]))
            b = int(val(frame, inst.operands[1]))
            return _int_arith(op, a, b, inst.type.bits)
        if op in _FLOAT_ARITH:
            a = float(val(frame, inst.operands[0]))
            b = float(val(frame, inst.operands[1]))
            return _float_arith(op, a, b)
        if op in ("sext", "zext", "trunc", "sitofp", "fptosi",
                  "bitcast", "ptrtoint", "inttoptr"):
            return _cast(op, val(frame, inst.operands[0]),
                         inst.operands[0].type, inst.type)
        raise IRError(f"cannot execute opcode {op!r}")


_INT_ARITH = frozenset(
    ["add", "sub", "mul", "sdiv", "srem", "and", "or", "xor", "shl", "ashr", "lshr"]
)
_FLOAT_ARITH = frozenset(["fadd", "fsub", "fmul", "fdiv"])


def _int_arith(op: str, a: int, b: int, width: int) -> int:
    if op == "add":
        return bits.wrap_signed(a + b, width)
    if op == "sub":
        return bits.wrap_signed(a - b, width)
    if op == "mul":
        return bits.wrap_signed(a * b, width)
    if op == "sdiv":
        if b == 0:
            raise SimTrap("div-by-zero")
        return bits.wrap_signed(_c_div(a, b), width)
    if op == "srem":
        if b == 0:
            raise SimTrap("div-by-zero")
        return bits.wrap_signed(a - _c_div(a, b) * b, width)
    if op == "and":
        return bits.wrap_signed(a & b, width)
    if op == "or":
        return bits.wrap_signed(a | b, width)
    if op == "xor":
        return bits.wrap_signed(a ^ b, width)
    sh = b & (width - 1)
    ua = bits.to_unsigned(a, width)
    if op == "shl":
        return bits.wrap_signed(ua << sh, width)
    if op == "ashr":
        return bits.wrap_signed(a >> sh, width)
    if op == "lshr":
        return bits.wrap_signed(ua >> sh, width)
    raise IRError(f"unknown int op {op!r}")


def _float_arith(op: str, a: float, b: float) -> float:
    try:
        if op == "fadd":
            return a + b
        if op == "fsub":
            return a - b
        if op == "fmul":
            return a * b
        if op == "fdiv":
            if b == 0.0:
                return float("inf") if a > 0 else (
                    float("-inf") if a < 0 else float("nan")
                )
            return a / b
    except OverflowError:
        return float("inf")
    raise IRError(f"unknown float op {op!r}")


def _icmp(pred: str, a: int, b: int, ty: T.Type) -> bool:
    if pred in ("ult", "ule", "ugt", "uge"):
        width = 64 if ty.is_pointer else ty.bits
        a = bits.to_unsigned(a, width)
        b = bits.to_unsigned(b, width)
        pred = {"ult": "slt", "ule": "sle", "ugt": "sgt", "uge": "sge"}[pred]
    if pred == "eq":
        return a == b
    if pred == "ne":
        return a != b
    if pred == "slt":
        return a < b
    if pred == "sle":
        return a <= b
    if pred == "sgt":
        return a > b
    if pred == "sge":
        return a >= b
    raise IRError(f"unknown icmp predicate {pred!r}")


def _fcmp(pred: str, a: float, b: float) -> bool:
    import math

    if math.isnan(a) or math.isnan(b):
        return False  # ordered predicates are all false on NaN
    if pred == "oeq":
        return a == b
    if pred == "one":
        return a != b
    if pred == "olt":
        return a < b
    if pred == "ole":
        return a <= b
    if pred == "ogt":
        return a > b
    if pred == "oge":
        return a >= b
    raise IRError(f"unknown fcmp predicate {pred!r}")


def _cast(op: str, v, from_ty: T.Type, to_ty: T.Type):
    import math

    if op == "sext":
        return int(v)  # canonical signed form is width-independent
    if op == "zext":
        return bits.to_unsigned(int(v), from_ty.bits)
    if op == "trunc":
        return bits.truncate(int(v), to_ty.bits)
    if op == "sitofp":
        return float(int(v))
    if op == "fptosi":
        f = float(v)
        if math.isnan(f) or math.isinf(f):
            return 0
        return bits.wrap_signed(int(f), to_ty.bits)
    if op in ("bitcast", "ptrtoint", "inttoptr"):
        return int(v) & bits.mask(64)
    raise IRError(f"unknown cast {op!r}")


def run_ir(
    module: Module,
    entry: str = "main",
    args: Sequence[Union[int, float]] = (),
    layout: Optional[GlobalLayout] = None,
    inject_index: Optional[int] = None,
    inject_bit: int = 0,
    max_steps: int = DEFAULT_MAX_STEPS,
    trace=None,
    dispatch: str = "decoded",
    fault_model: Optional[str] = None,
) -> ExecResult:
    """Convenience wrapper: build an interpreter and run once."""
    interp = IRInterpreter(module, layout=layout, max_steps=max_steps,
                           trace=trace, dispatch=dispatch,
                           fault_model=fault_model)
    return interp.run(
        entry=entry,
        args=args,
        inject_index=inject_index,
        inject_bit=inject_bit,
    )
