"""The assembly machine — the "PIN level" execution and injection layer.

Executes a lowered :class:`~repro.backend.program.FlatProgram` on a
simulated x86-like CPU: 16 GPRs, 16 XMM registers, ZF/SF/OF/CF/UF
flags, and the same byte-addressable memory image as the IR interpreter
(so program output is bit-identical across layers).

For speed on a single host core, the instruction stream is *pre-compiled*
once into compact integer-coded micro-ops (a profile-guided optimisation
following the scientific-Python guidance: the campaign loop executes
millions of these, so attribute lookups and string compares are hoisted
out of the hot loop).

Fault models (PIN-style, matching §4.3; see :mod:`repro.faultmodel`):

``seu``  a campaign selects one dynamic instruction *with a register
         destination* and flips one bit of that destination after the
         instruction writes it — GPR/XMM bits 0..63, or one of the five
         FLAGS bits for ``cmp``/``test``/``ucomisd``;
``set``  same sites, but the transient corrupts the whole datapath:
         two adjacent destination bits flip, and a GPR-writing ALU
         result additionally flips one FLAGS bit (a FLAGS site flips
         two flags);
``cf``   sites are the dynamic control transfers (``jmp``/``jcc``/
         ``call``; ``ret`` and runtime calls excluded) and the fault
         redirects the transfer to ``bit % len(uops)`` — a uniformly
         drawn legal instruction boundary.  The corrupted edge is
         reported in ``ExecResult.extra["cf_edge"]``.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence, Tuple

from ..errors import CheckpointsDone, FaultDetected, LoweringError, SimTrap
from ..execresult import ExecResult
from ..interp.layout import GlobalLayout
from ..ir.intrinsics import INTRINSICS, math_impl
from ..memorymodel import MemoryImage
from ..simulator import Simulator, Snapshot
from ..utils.fmt import format_char, format_f64, format_i64
from ..backend.isa import AsmInst, GPRS, Imm, Label, Mem, Reg
from ..backend.program import FlatProgram

__all__ = ["AsmMachine", "AsmSnapshot", "CompiledProgram",
           "compile_program", "run_asm", "DEFAULT_MAX_STEPS"]

DEFAULT_MAX_STEPS = 100_000_000
_MASK64 = (1 << 64) - 1
_SENTINEL_RET = 0x7FFF_FFFF_FFFF_FFF0

_GPR_INDEX = {name: i for i, name in enumerate(GPRS)}
_XMM_INDEX = {f"xmm{i}": i for i in range(16)}
_RSP = _GPR_INDEX["rsp"]
_RBP = _GPR_INDEX["rbp"]
_RAX = _GPR_INDEX["rax"]
_RDX = _GPR_INDEX["rdx"]
_RCX = _GPR_INDEX["rcx"]
_RDI = _GPR_INDEX["rdi"]

_CC_IDS = {
    "e": 0, "ne": 1, "l": 2, "le": 3, "g": 4, "ge": 5,
    "b": 6, "be": 7, "a": 8, "ae": 9,
    "fe": 10, "fne": 11, "fb": 12, "fbe": 13, "fa": 14, "fae": 15,
}

#: flag-word bit assignment shared by the injection paths below (the
#: ``(1, 2, 4, 8, 16)[bit % 5]`` tuples) and the bit-level liveness
#: analysis (:mod:`repro.analysis.bitlive`): a drawn fault coordinate
#: ``b`` at a FLAGS site flips the flag at position ``b % 5`` in this
#: order
FLAG_BITS = {"zf": 1, "sf": 2, "of": 4, "cf": 8, "uf": 16}

# micro-op opcodes
(
    MOV_RR, MOV_RI, MOV_RM, MOV_MR, MOV_MI,
    MOVSD_XX, MOVSD_XI, MOVSD_XM, MOVSD_MX,
    LEA,
    ADD_RR, ADD_RI, SUB_RR, SUB_RI, IMUL_RR, IMUL_RI,
    AND_RR, AND_RI, OR_RR, OR_RI, XOR_RR, XOR_RI,
    SHL_RC, SHL_RI, SAR_RC, SAR_RI, SHR_RC, SHR_RI,
    IDIV,
    CMP_RR, CMP_RI, TEST_RR,
    SETCC, CMOV,
    JMP, JCC, CALL, CALLRT, RET, PUSH, POP,
    ADDSD, SUBSD, MULSD, DIVSD, UCOMISD,
    CVTSI2SD, CVTTSD2SI,
    UD2,
) = range(49)

# runtime (intrinsic) ids
_RT_PRINT_I64 = 0
_RT_PRINT_F64 = 1
_RT_PRINT_CHAR = 2
_RT_DETECT = 3
_RT_MATH1 = 4  # (id, fn)
_RT_MATH2 = 5


class CompiledProgram:
    """Micro-op form of a FlatProgram, ready for repeated execution."""

    def __init__(
        self,
        flat: FlatProgram,
        uops: List[tuple],
        inj_kind: List[int],
        entry_index: int,
        injectable_indices: List[int],
        cf_kind: Optional[List[int]] = None,
    ):
        self.flat = flat
        self.uops = uops
        #: 0 = not a site, 1 = GPR dest, 2 = XMM dest, 3 = FLAGS dest
        self.inj_kind = inj_kind
        #: control-flow-fault sites: 1 for jmp/jcc/call uops, else 0
        self.cf_kind = (cf_kind if cf_kind is not None else
                        [1 if u[0] in (JMP, JCC, CALL) else 0
                         for u in uops])
        self.entry_index = entry_index
        self.injectable_static = injectable_indices

    def inst_at(self, index: int) -> AsmInst:
        return self.flat.insts[index]


def _mem_key(mem: Mem) -> Tuple[int, int]:
    base = _GPR_INDEX[mem.base.name] if mem.base is not None else -1
    return base, mem.disp


def _resolve_label(flat: FlatProgram, fn: str, label: Label) -> int:
    qualified = f"{fn}.{label.name}"
    idx = flat.label_index.get(qualified)
    if idx is None:
        idx = flat.label_index.get(label.name)
    if idx is None:
        raise LoweringError(f"unresolved label {label.name!r} in {fn}")
    return idx


_MATH_RT: Dict[str, tuple] = {}


def _runtime_id(name: str) -> tuple:
    """(kind, payload) runtime descriptor for an intrinsic call."""
    if name == "print_i64":
        return (_RT_PRINT_I64, None)
    if name == "print_f64":
        return (_RT_PRINT_F64, None)
    if name == "print_char":
        return (_RT_PRINT_CHAR, None)
    if name == "__detect":
        return (_RT_DETECT, None)
    if name in INTRINSICS:
        params, _ = INTRINSICS[name]
        fn = _MATH_RT.get(name)
        if fn is None:
            fn = math_impl(name)
            _MATH_RT[name] = fn
        return ((_RT_MATH2 if len(params) == 2 else _RT_MATH1), fn)
    raise LoweringError(f"call to unknown symbol {name!r}")


def compile_program(flat: FlatProgram) -> CompiledProgram:
    """Translate AsmInsts into integer-coded micro-ops."""
    uops: List[tuple] = []
    inj_kind: List[int] = []
    injectable: List[int] = []

    int_2op = {"add": (ADD_RR, ADD_RI), "sub": (SUB_RR, SUB_RI),
               "imul": (IMUL_RR, IMUL_RI), "and": (AND_RR, AND_RI),
               "or": (OR_RR, OR_RI), "xor": (XOR_RR, XOR_RI)}
    shifts = {"shl": (SHL_RC, SHL_RI), "sar": (SAR_RC, SAR_RI),
              "shr": (SHR_RC, SHR_RI)}
    fp_2op = {"addsd": ADDSD, "subsd": SUBSD, "mulsd": MULSD, "divsd": DIVSD}

    for i, inst in enumerate(flat.insts):
        fn = flat.inst_fn[i]
        op = inst.opcode
        ops = inst.operands
        if op == "mov":
            dst, src = ops
            if isinstance(dst, Reg):
                d = _GPR_INDEX[dst.name]
                if isinstance(src, Reg):
                    uops.append((MOV_RR, d, _GPR_INDEX[src.name]))
                elif isinstance(src, Imm):
                    uops.append((MOV_RI, d, int(src.value) & _MASK64))
                else:
                    base, disp = _mem_key(src)
                    uops.append((MOV_RM, d, base, disp, inst.size))
            else:
                base, disp = _mem_key(dst)
                if isinstance(src, Reg):
                    uops.append((MOV_MR, base, disp,
                                 _GPR_INDEX[src.name], inst.size))
                else:
                    uops.append((MOV_MI, base, disp,
                                 int(src.value) & _MASK64, inst.size))
        elif op == "movsd":
            dst, src = ops
            if isinstance(dst, Reg):
                d = _XMM_INDEX[dst.name]
                if isinstance(src, Reg):
                    uops.append((MOVSD_XX, d, _XMM_INDEX[src.name]))
                elif isinstance(src, Imm):
                    uops.append((MOVSD_XI, d, float(src.value)))
                else:
                    base, disp = _mem_key(src)
                    uops.append((MOVSD_XM, d, base, disp))
            else:
                base, disp = _mem_key(dst)
                uops.append((MOVSD_MX, base, disp, _XMM_INDEX[src.name]))
        elif op == "lea":
            dst, src = ops
            base, disp = _mem_key(src)
            uops.append((LEA, _GPR_INDEX[dst.name], base, disp))
        elif op in int_2op:
            dst, src = ops
            rr, ri = int_2op[op]
            d = _GPR_INDEX[dst.name]
            if isinstance(src, Imm):
                uops.append((ri, d, int(src.value) & _MASK64))
            else:
                uops.append((rr, d, _GPR_INDEX[src.name]))
        elif op in shifts:
            dst, src = ops
            rc, ri = shifts[op]
            d = _GPR_INDEX[dst.name]
            if isinstance(src, Imm):
                uops.append((ri, d, int(src.value) & 63))
            else:
                uops.append((rc, d))  # count always in rcx
        elif op == "idiv":
            uops.append((IDIV, _GPR_INDEX[ops[0].name]))
        elif op == "cmp":
            a, b = ops
            ai = _GPR_INDEX[a.name]
            if isinstance(b, Imm):
                uops.append((CMP_RI, ai, int(b.value) & _MASK64))
            else:
                uops.append((CMP_RR, ai, _GPR_INDEX[b.name]))
        elif op == "test":
            a, b = ops
            uops.append((TEST_RR, _GPR_INDEX[a.name], _GPR_INDEX[b.name]))
        elif op == "setcc":
            uops.append((SETCC, _GPR_INDEX[ops[0].name], _CC_IDS[inst.cc]))
        elif op == "cmov":
            dst, src = ops
            uops.append((CMOV, _GPR_INDEX[dst.name],
                         _GPR_INDEX[src.name], _CC_IDS[inst.cc]))
        elif op == "jmp":
            uops.append((JMP, _resolve_label(flat, fn, ops[0])))
        elif op == "jcc":
            uops.append((JCC, _resolve_label(flat, fn, ops[0]),
                         _CC_IDS[inst.cc]))
        elif op == "call":
            target = ops[0]
            assert isinstance(target, Label)
            if target.name in flat.label_index:
                uops.append((CALL, flat.label_index[target.name]))
            else:
                kind, payload = _runtime_id(target.name)
                uops.append((CALLRT, kind, payload))
        elif op == "ret":
            uops.append((RET,))
        elif op == "push":
            uops.append((PUSH, _GPR_INDEX[ops[0].name]))
        elif op == "pop":
            uops.append((POP, _GPR_INDEX[ops[0].name]))
        elif op in fp_2op:
            dst, src = ops
            uops.append((fp_2op[op], _XMM_INDEX[dst.name],
                         _XMM_INDEX[src.name]))
        elif op == "ucomisd":
            a, b = ops
            uops.append((UCOMISD, _XMM_INDEX[a.name], _XMM_INDEX[b.name]))
        elif op == "cvtsi2sd":
            dst, src = ops
            uops.append((CVTSI2SD, _XMM_INDEX[dst.name], _GPR_INDEX[src.name]))
        elif op == "cvttsd2si":
            dst, src = ops
            uops.append((CVTTSD2SI, _GPR_INDEX[dst.name], _XMM_INDEX[src.name]))
        elif op == "ud2":
            uops.append((UD2,))
        else:  # pragma: no cover
            raise LoweringError(f"cannot compile opcode {op!r}")

        kind = inst.dest_kind()
        if kind == "gpr":
            inj_kind.append(1)
            injectable.append(i)
        elif kind == "xmm":
            inj_kind.append(2)
            injectable.append(i)
        elif kind == "flags":
            inj_kind.append(3)
            injectable.append(i)
        else:
            inj_kind.append(0)

    entry = flat.label_index[flat.entry_label]
    return CompiledProgram(flat, uops, inj_kind, entry, injectable)


def _sx(v: int) -> int:
    """Unsigned 64 -> signed."""
    return v - (1 << 64) if v >= (1 << 63) else v


def _f2b(value: float) -> int:
    import struct

    return struct.unpack("<Q", struct.pack("<d", value))[0]


def _b2f(bits: int) -> float:
    import struct

    return struct.unpack("<d", struct.pack("<Q", bits & _MASK64))[0]


class AsmSnapshot(Snapshot):
    """Frozen machine state captured at an injection-site boundary (see
    :class:`Snapshot`): the shared fields plus registers, flags,
    program counter and call depth.

    Snapshots are taken *before* the watched instruction executes (the
    fault model flips the destination *after* execution, so a replay
    resumed from the snapshot re-executes the instruction and then
    applies the flip).
    """

    __slots__ = ("regs", "xmm", "fl", "pc", "depth")

    def __init__(self, mem: MemoryImage, regs: tuple, xmm: tuple, fl: int,
                 pc: int, dyn_total: int, dyn_injectable: int,
                 outputs: tuple, depth: int = 0):
        super().__init__(mem, outputs, dyn_total, dyn_injectable)
        self.regs = regs
        self.xmm = xmm
        self.fl = fl
        self.pc = pc
        self.depth = depth


class AsmMachine(Simulator):
    """One machine instance per execution (mutable run state); the run
    contract, ``run()`` included, lives in
    :class:`~repro.simulator.Simulator`."""

    layer = "asm"

    def __init__(
        self,
        program: CompiledProgram,
        layout: GlobalLayout,
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
        self.program = program
        super().__init__(layout, max_steps, heap_size, stack_size, trace,
                         dispatch, contain, max_call_depth, output_budget,
                         mem_budget, fault_model)
        self.injected_index: Optional[int] = None  # static asm index

    @staticmethod
    def _tracer_class():
        from ..trace.tap import MachineTracer

        return MachineTracer

    def _finish(self, value):
        if self.injected_index is None:
            return {"injected_iid": None}, {}
        inst = self.program.inst_at(self.injected_index)
        return {"injected_iid": inst.prov_iid}, {
            "asm_index": self.injected_index,
            "asm_role": inst.role,
            "asm_opcode": inst.opcode,
        }

    def _naive(self, start) -> None:
        self._loop(self.inject_index, self.inject_bit)

    # -- the hot loop -------------------------------------------------------

    def _loop(self, inject_index: Optional[int], inject_bit: int) -> None:
        prog = self.program
        uops = prog.uops
        fm = self.fault_model
        cf_fault = fm == "cf"
        set_fault = fm == "set"
        # the injectable-site universe follows the fault model: register
        # destinations for seu/set, dynamic control transfers for cf
        inj_kind = prog.cf_kind if cf_fault else prog.inj_kind
        n_insts = len(uops)
        mem = self.memory
        data = mem.data
        lo = mem.global_base
        hi = mem.size
        stack_limit = mem.stack_limit
        outputs = self.outputs

        regs = [0] * 16
        xmm = [0.0] * 16
        zf = sf = of = cf = uf = 0

        # this oracle loop stores without extent checks and never
        # captures or resumes: count the whole image as written
        mem.widen(lo, hi - lo)

        # set up the stack with a sentinel return address
        sp = mem.stack_base - 8
        data[sp : sp + 8] = _SENTINEL_RET.to_bytes(8, "little")
        regs[_RSP] = sp
        regs[_RBP] = sp

        pc = prog.entry_index
        steps = 0
        injectable = 0
        depth = 0
        max_call_depth = self.max_call_depth
        max_steps = self.max_steps
        tracer = self.tracer
        hook = tracer.hook if tracer is not None else None

        target = inject_index if inject_index is not None else -1
        injected = False
        self._armed = True

        try:
            while True:
                if pc < 0 or pc >= n_insts:
                    raise SimTrap("bad-jump", f"pc={pc}")
                u = uops[pc]
                steps += 1
                if steps > max_steps:
                    self.dyn_total = steps
                    self.dyn_injectable = injectable
                    raise SimTrap("step-budget",
                                  f"exceeded {max_steps} steps")
                if hook is not None:
                    hook(pc, regs, xmm)

                code = u[0]
                cur = pc
                pc += 1

                try:
                    if code == MOV_RR:
                        regs[u[1]] = regs[u[2]]
                    elif code == MOV_RI:
                        regs[u[1]] = u[2]
                    elif code == MOV_RM:
                        base = u[2]
                        addr = (u[3] + (regs[base] if base >= 0 else 0)) & _MASK64
                        size = u[4]
                        if addr < lo or addr + size > hi:
                            raise SimTrap("segfault", f"read {size} at {addr:#x}")
                        regs[u[1]] = int.from_bytes(data[addr : addr + size], "little")
                    elif code == MOV_MR:
                        base = u[1]
                        addr = (u[2] + (regs[base] if base >= 0 else 0)) & _MASK64
                        size = u[4]
                        if addr < lo or addr + size > hi:
                            raise SimTrap("segfault", f"write {size} at {addr:#x}")
                        data[addr : addr + size] = (regs[u[3]] & ((1 << (8 * size)) - 1)).to_bytes(size, "little")
                    elif code == MOV_MI:
                        base = u[1]
                        addr = (u[2] + (regs[base] if base >= 0 else 0)) & _MASK64
                        size = u[4]
                        if addr < lo or addr + size > hi:
                            raise SimTrap("segfault", f"write {size} at {addr:#x}")
                        data[addr : addr + size] = (u[3] & ((1 << (8 * size)) - 1)).to_bytes(size, "little")
                    elif code == MOVSD_XX:
                        xmm[u[1]] = xmm[u[2]]
                    elif code == MOVSD_XI:
                        xmm[u[1]] = u[2]
                    elif code == MOVSD_XM:
                        base = u[2]
                        addr = (u[3] + (regs[base] if base >= 0 else 0)) & _MASK64
                        if addr < lo or addr + 8 > hi:
                            raise SimTrap("segfault", f"fp read at {addr:#x}")
                        xmm[u[1]] = _b2f(int.from_bytes(data[addr : addr + 8], "little"))
                    elif code == MOVSD_MX:
                        base = u[1]
                        addr = (u[2] + (regs[base] if base >= 0 else 0)) & _MASK64
                        if addr < lo or addr + 8 > hi:
                            raise SimTrap("segfault", f"fp write at {addr:#x}")
                        data[addr : addr + 8] = _f2b(xmm[u[3]]).to_bytes(8, "little")
                    elif code == LEA:
                        base = u[2]
                        regs[u[1]] = (u[3] + (regs[base] if base >= 0 else 0)) & _MASK64
                    elif code == ADD_RR or code == ADD_RI:
                        a = regs[u[1]]
                        b = regs[u[2]] if code == ADD_RR else u[2]
                        s = a + b
                        cf = 1 if s > _MASK64 else 0
                        r = s & _MASK64
                        zf = 1 if r == 0 else 0
                        sf = r >> 63
                        of = ((~(a ^ b)) & (a ^ r)) >> 63 & 1
                        uf = 0
                        regs[u[1]] = r
                    elif code == SUB_RR or code == SUB_RI:
                        a = regs[u[1]]
                        b = regs[u[2]] if code == SUB_RR else u[2]
                        cf = 1 if a < b else 0
                        r = (a - b) & _MASK64
                        zf = 1 if r == 0 else 0
                        sf = r >> 63
                        of = ((a ^ b) & (a ^ r)) >> 63 & 1
                        uf = 0
                        regs[u[1]] = r
                    elif code == IMUL_RR or code == IMUL_RI:
                        a = _sx(regs[u[1]])
                        b = _sx(regs[u[2]] if code == IMUL_RR else u[2])
                        r = (a * b) & _MASK64
                        zf = 1 if r == 0 else 0
                        sf = r >> 63
                        cf = of = uf = 0
                        regs[u[1]] = r
                    elif code == AND_RR or code == AND_RI:
                        r = regs[u[1]] & (regs[u[2]] if code == AND_RR else u[2])
                        zf = 1 if r == 0 else 0
                        sf = r >> 63
                        cf = of = uf = 0
                        regs[u[1]] = r
                    elif code == OR_RR or code == OR_RI:
                        r = regs[u[1]] | (regs[u[2]] if code == OR_RR else u[2])
                        zf = 1 if r == 0 else 0
                        sf = r >> 63
                        cf = of = uf = 0
                        regs[u[1]] = r
                    elif code == XOR_RR or code == XOR_RI:
                        r = regs[u[1]] ^ (regs[u[2]] if code == XOR_RR else u[2])
                        zf = 1 if r == 0 else 0
                        sf = r >> 63
                        cf = of = uf = 0
                        regs[u[1]] = r
                    elif code == SHL_RC or code == SHL_RI:
                        n = (regs[_RCX] if code == SHL_RC else u[2]) & 63
                        r = (regs[u[1]] << n) & _MASK64
                        zf = 1 if r == 0 else 0
                        sf = r >> 63
                        cf = of = uf = 0
                        regs[u[1]] = r
                    elif code == SAR_RC or code == SAR_RI:
                        n = (regs[_RCX] if code == SAR_RC else u[2]) & 63
                        r = (_sx(regs[u[1]]) >> n) & _MASK64
                        zf = 1 if r == 0 else 0
                        sf = r >> 63
                        cf = of = uf = 0
                        regs[u[1]] = r
                    elif code == SHR_RC or code == SHR_RI:
                        n = (regs[_RCX] if code == SHR_RC else u[2]) & 63
                        r = regs[u[1]] >> n
                        zf = 1 if r == 0 else 0
                        sf = r >> 63
                        cf = of = uf = 0
                        regs[u[1]] = r
                    elif code == IDIV:
                        b = _sx(regs[u[1]])
                        if b == 0:
                            raise SimTrap("div-by-zero")
                        a = _sx(regs[_RAX])
                        q = abs(a) // abs(b)
                        if (a < 0) != (b < 0):
                            q = -q
                        regs[_RAX] = q & _MASK64
                        regs[_RDX] = (a - q * b) & _MASK64
                        zf = sf = of = cf = uf = 0
                    elif code == CMP_RR or code == CMP_RI:
                        a = regs[u[1]]
                        b = regs[u[2]] if code == CMP_RR else u[2]
                        cf = 1 if a < b else 0
                        r = (a - b) & _MASK64
                        zf = 1 if r == 0 else 0
                        sf = r >> 63
                        of = ((a ^ b) & (a ^ r)) >> 63 & 1
                        uf = 0
                    elif code == TEST_RR:
                        r = regs[u[1]] & regs[u[2]]
                        zf = 1 if r == 0 else 0
                        sf = r >> 63
                        cf = of = uf = 0
                    elif code == SETCC:
                        regs[u[1]] = _eval_cc(u[2], zf, sf, of, cf, uf)
                    elif code == CMOV:
                        if _eval_cc(u[3], zf, sf, of, cf, uf):
                            regs[u[1]] = regs[u[2]]
                    elif code == JMP:
                        pc = u[1]
                    elif code == JCC:
                        if _eval_cc(u[2], zf, sf, of, cf, uf):
                            pc = u[1]
                    elif code == CALL:
                        sp = (regs[_RSP] - 8) & _MASK64
                        if sp < stack_limit or sp + 8 > hi:
                            raise SimTrap("stack-overflow", f"call at pc={cur}")
                        depth += 1
                        if depth > max_call_depth:
                            raise SimTrap(
                                "stack-overflow",
                                f"call depth {max_call_depth} exceeded "
                                f"at pc={cur}")
                        data[sp : sp + 8] = pc.to_bytes(8, "little")
                        regs[_RSP] = sp
                        pc = u[1]
                    elif code == CALLRT:
                        self._runtime(u[1], u[2], regs, xmm, outputs)
                    elif code == RET:
                        sp = regs[_RSP]
                        if sp < lo or sp + 8 > hi:
                            raise SimTrap("segfault", f"ret with rsp={sp:#x}")
                        addr = int.from_bytes(data[sp : sp + 8], "little")
                        regs[_RSP] = (sp + 8) & _MASK64
                        if addr == _SENTINEL_RET:
                            break  # main returned
                        if addr >= n_insts:
                            raise SimTrap("bad-jump", f"ret to {addr:#x}")
                        depth -= 1
                        pc = addr
                    elif code == PUSH:
                        sp = (regs[_RSP] - 8) & _MASK64
                        if sp < stack_limit or sp + 8 > hi:
                            raise SimTrap("stack-overflow", f"push at pc={cur}")
                        data[sp : sp + 8] = regs[u[1]].to_bytes(8, "little")
                        regs[_RSP] = sp
                    elif code == POP:
                        sp = regs[_RSP]
                        if sp < lo or sp + 8 > hi:
                            raise SimTrap("segfault", f"pop with rsp={sp:#x}")
                        regs[u[1]] = int.from_bytes(data[sp : sp + 8], "little")
                        regs[_RSP] = (sp + 8) & _MASK64
                    elif code == ADDSD:
                        xmm[u[1]] = _fp(xmm[u[1]] + xmm[u[2]])
                    elif code == SUBSD:
                        xmm[u[1]] = _fp(xmm[u[1]] - xmm[u[2]])
                    elif code == MULSD:
                        xmm[u[1]] = _fp(xmm[u[1]] * xmm[u[2]])
                    elif code == DIVSD:
                        a, b = xmm[u[1]], xmm[u[2]]
                        if b == 0.0:
                            xmm[u[1]] = (
                                float("nan") if a == 0.0 or math.isnan(a)
                                else (float("inf") if a > 0 else float("-inf"))
                            )
                        else:
                            xmm[u[1]] = _fp(a / b)
                    elif code == UCOMISD:
                        a, b = xmm[u[1]], xmm[u[2]]
                        if math.isnan(a) or math.isnan(b):
                            uf, zf, cf = 1, 1, 1
                            sf = of = 0
                        else:
                            uf = 0
                            zf = 1 if a == b else 0
                            cf = 1 if a < b else 0
                            sf = of = 0
                    elif code == CVTSI2SD:
                        xmm[u[1]] = float(_sx(regs[u[2]]))
                    elif code == CVTTSD2SI:
                        f = xmm[u[2]]
                        if math.isnan(f) or math.isinf(f):
                            regs[u[1]] = 0
                        else:
                            regs[u[1]] = int(f) & _MASK64
                    elif code == UD2:
                        raise SimTrap("unreachable", f"ud2 at pc={cur}")
                    else:  # pragma: no cover
                        raise SimTrap("bad-jump", f"bad uop {code}")
                except OverflowError:
                    # huge shift results etc. under faulty inputs
                    raise SimTrap("overflow", f"pc={cur}")

                kind = inj_kind[cur]
                if kind:
                    if injectable == target:
                        injected = True
                        self.injected_index = cur
                        if cf_fault:
                            red = inject_bit % n_insts
                            self._record_cf_edge(cur, pc, red)
                            pc = red
                        elif kind == 1:
                            dest = self._gpr_dest(cur)
                            if set_fault:
                                regs[dest] ^= (
                                    (1 << (inject_bit & 63))
                                    | (1 << ((inject_bit + 1) & 63)))
                                which = inject_bit % 5
                            else:
                                regs[dest] ^= 1 << (inject_bit & 63)
                                which = -1
                            if which == 0:
                                zf ^= 1
                            elif which == 1:
                                sf ^= 1
                            elif which == 2:
                                of ^= 1
                            elif which == 3:
                                cf ^= 1
                            elif which == 4:
                                uf ^= 1
                        elif kind == 2:
                            dest = _XMM_INDEX[
                                self.program.inst_at(cur).dest_reg().name
                            ]
                            mask = 1 << (inject_bit & 63)
                            if set_fault:
                                mask |= 1 << ((inject_bit + 1) & 63)
                            xmm[dest] = _b2f(_f2b(xmm[dest]) ^ mask)
                        else:  # flags
                            for which in (
                                (inject_bit % 5, (inject_bit + 1) % 5)
                                if set_fault else (inject_bit % 5,)
                            ):
                                if which == 0:
                                    zf ^= 1
                                elif which == 1:
                                    sf ^= 1
                                elif which == 2:
                                    of ^= 1
                                elif which == 3:
                                    cf ^= 1
                                else:
                                    uf ^= 1
                    injectable += 1

        finally:
            self.dyn_total = steps
            self.dyn_injectable = injectable
            self.injected = injected
            if tracer is not None:
                tracer.finish(regs, xmm)

    # -- the decoded hot loop -----------------------------------------------

    def _decoded(self, start, resume_from: Optional[AsmSnapshot],
                 watch: Optional[Sequence[int]], watch_cb) -> None:
        """Closure-dispatch twin of :meth:`_loop`.

        Identical observable behaviour; additionally supports resuming
        from an :class:`AsmSnapshot` and streaming snapshots out at the
        requested ``watch`` injection indices (ascending order).
        """
        self._decoded_core(*self._start(resume_from), watch, watch_cb)

    def _decoded_core(
        self,
        st,
        pc: int,
        steps: int,
        injectable: int,
        watch: Optional[Sequence[int]] = None,
        watch_cb=None,
    ) -> None:
        """The decoded driver loop proper, entered with live counters.

        Split out from :meth:`_decoded` so the codegen tier can
        hand over mid-run (step budget nearly exhausted) with exact
        ``steps``/``injectable`` values.  Reads ``self.injected`` as the
        starting flip state: a hand-over after the flip has been applied
        must not lose it.
        """
        from .decode import _Halt, decode_program

        prog = self.program
        mem = self.memory
        dp = decode_program(prog, mem)
        fns = dp.fns
        inj_kind = (prog.cf_kind if self.fault_model == "cf"
                    else prog.inj_kind)
        regs = st.regs
        xmm = st.xmm

        watch_iter = iter(watch) if watch is not None else None
        next_watch = (next(watch_iter, None)
                      if watch_iter is not None else None)

        max_steps = self.max_steps
        tracer = self.tracer
        hook = tracer.hook if tracer is not None else None

        target = self.inject_index if self.inject_index is not None else -1
        injected = self.injected
        self._armed = True

        try:
            while True:
                try:
                    f = fns[pc]
                except IndexError:
                    raise SimTrap("bad-jump", f"pc={pc}") from None
                kind = inj_kind[pc]
                if (next_watch is not None and kind
                        and injectable == next_watch):
                    self.dyn_total = steps
                    self.dyn_injectable = injectable
                    watch_cb(next_watch, AsmSnapshot(
                        mem.snapshot(), tuple(regs), tuple(xmm), st.fl,
                        pc, steps, injectable, tuple(self.outputs),
                        st.depth))
                    next_watch = next(watch_iter, None)
                    if next_watch is None:
                        raise CheckpointsDone()
                steps += 1
                if steps > max_steps:
                    self.dyn_total = steps
                    self.dyn_injectable = injectable
                    raise SimTrap("step-budget",
                                  f"exceeded {max_steps} steps")
                if hook is not None:
                    hook(pc, regs, xmm)
                cur = pc
                try:
                    pc = f(st)
                except _Halt:
                    break
                except OverflowError:
                    raise SimTrap("overflow", f"pc={cur}") from None
                if kind:
                    if injectable == target:
                        injected = True
                        pc = self._apply_fault(st, dp, cur, pc, kind)
                    injectable += 1
        finally:
            self.dyn_total = steps
            self.dyn_injectable = injectable
            self.injected = injected
            if tracer is not None:
                tracer.finish(regs, xmm)

    def _codegen(self, start, resume_from: Optional[AsmSnapshot]) -> None:
        """Generated-code twin of :meth:`_decoded` (DESIGN §13).

        Drives the specialized executor chunk to chunk; drops to the
        decoded single-stepper when a corrupted return address leaves
        the leader map, and hands the whole run to the decoded core
        when the step budget could expire inside the next chunk.
        """
        from .codegen import careful_until_leader, codegen_program
        from .decode import _Halt, decode_program

        prog = self.program
        mem = self.memory
        cp = codegen_program(prog, mem, self.fault_model)
        dp = decode_program(prog, mem)
        st, pc, steps, injectable = self._start(resume_from)

        target = self.inject_index if self.inject_index is not None else -1
        self._armed = True
        # counter carrier shared with the generated code and the
        # careful stepper: [steps, injectable, target, bit]
        c = [steps, injectable, target, self.inject_bit]
        run = cp.run
        leaders = cp.leaders
        try:
            while True:
                k = leaders.get(pc)
                if k is None:
                    try:
                        pc = careful_until_leader(self, st, dp, leaders,
                                                  c, pc)
                    except _Halt:
                        break
                    continue
                r = run(self, st, c, k)
                tag = r[0]
                if tag == 2:
                    pc = r[1]
                elif tag == 1:
                    break
                else:
                    # budget hand-over: the decoded core owns the
                    # exact step-budget raise point
                    try:
                        self._decoded_core(st, r[1], c[0], c[1])
                    finally:
                        c[0] = self.dyn_total
                        c[1] = self.dyn_injectable
                    break
        finally:
            self.dyn_total = c[0]
            self.dyn_injectable = c[1]

    def _start(self, resume_from: Optional[AsmSnapshot]):
        """Run state of a decoded or generated run: a fresh start, or a
        full reset to ``resume_from`` (one machine may serve many
        replays).  Returns ``(st, pc, steps, injectable)``."""
        from .decode import AsmState

        self.injected = False
        mem = self.memory
        st = AsmState()
        st.data = mem.data
        st.mem = mem
        st.outputs = self.outputs
        st.machine = self
        st.max_depth = self.max_call_depth
        if resume_from is None:
            regs = [0] * 16
            sp = mem.stack_base - 8
            mem.widen(sp, 8)
            mem.data[sp:sp + 8] = _SENTINEL_RET.to_bytes(8, "little")
            regs[_RSP] = sp
            regs[_RBP] = sp
            st.regs = regs
            st.xmm = [0.0] * 16
            st.fl = 0
            st.depth = 0
            return st, self.program.entry_index, 0, 0
        snap = resume_from
        self._resume(snap)
        self.injected_index = None
        st.regs = list(snap.regs)
        st.xmm = list(snap.xmm)
        st.fl = snap.fl
        st.depth = snap.depth
        return st, snap.pc, snap.dyn_total, snap.dyn_injectable

    def _apply_fault(self, st, dp, cur: int, pc: int, kind: int) -> int:
        """Apply the drawn fault at site ``cur``, whose uop just ran and
        would continue at ``pc``: redirect the transfer (cf), or flip
        its GPR/XMM/FLAGS destination (SEU; SET adds the adjacent bit,
        and a FLAGS bit for GPR writers).  Shared by the decoded core
        and the codegen tier's careful stepper; runs once per run.
        Returns the pc execution continues at."""
        self.injected_index = cur
        bit = self.inject_bit
        fm = self.fault_model
        if fm == "cf":
            red = bit % len(self.program.uops)
            self._record_cf_edge(cur, pc, red)
            return red
        set_fault = fm == "set"
        if kind == 1:
            regs = st.regs
            if set_fault:
                regs[dp.gpr_dest[cur]] ^= (
                    (1 << (bit & 63)) | (1 << ((bit + 1) & 63)))
                st.fl ^= (1, 2, 4, 8, 16)[bit % 5]
            else:
                regs[dp.gpr_dest[cur]] ^= 1 << (bit & 63)
        elif kind == 2:
            xmm = st.xmm
            d = dp.xmm_dest[cur]
            mask = 1 << (bit & 63)
            if set_fault:
                mask |= 1 << ((bit + 1) & 63)
            xmm[d] = _b2f(_f2b(xmm[d]) ^ mask)
        else:  # flags
            st.fl ^= (1, 2, 4, 8, 16)[bit % 5]
            if set_fault:
                st.fl ^= (1, 2, 4, 8, 16)[(bit + 1) % 5]
        return pc

    def _gpr_dest(self, index: int) -> int:
        inst = self.program.inst_at(index)
        reg = inst.dest_reg()
        assert reg is not None
        return _GPR_INDEX[reg.name]

    def _record_cf_edge(self, index: int, to: int, redirect: int) -> None:
        """Forensics for a control-flow fault: the static transfer, the
        target it would have reached, and where the fault sent it."""
        self.injected_index = index
        self._cf_edge = {
            "layer": "asm",
            "pc": index,
            "opcode": self.program.inst_at(index).opcode,
            "to": to,
            "redirect": redirect,
        }

    def _runtime(self, kind: int, payload, regs, xmm, outputs) -> None:
        if kind == _RT_PRINT_I64:
            outputs.append(format_i64(_sx(regs[_RDI])) + "\n")
        elif kind == _RT_PRINT_F64:
            outputs.append(format_f64(xmm[0]) + "\n")
        elif kind == _RT_PRINT_CHAR:
            outputs.append(format_char(regs[_RDI]))
        elif kind == _RT_DETECT:
            self.dyn_total = 0  # refreshed by caller paths; keep simple
            raise FaultDetected("checker")
        elif kind == _RT_MATH1:
            xmm[0] = payload(xmm[0])
        else:
            xmm[0] = payload(xmm[0], xmm[1])


def _fp(x: float) -> float:
    return x


def _eval_cc(cc: int, zf: int, sf: int, of: int, cf: int, uf: int) -> int:
    if cc == 0:    # e
        return 1 if zf else 0
    if cc == 1:    # ne
        return 0 if zf else 1
    if cc == 2:    # l
        return 1 if sf != of else 0
    if cc == 3:    # le
        return 1 if zf or sf != of else 0
    if cc == 4:    # g
        return 1 if not zf and sf == of else 0
    if cc == 5:    # ge
        return 1 if sf == of else 0
    if cc == 6:    # b
        return 1 if cf else 0
    if cc == 7:    # be
        return 1 if cf or zf else 0
    if cc == 8:    # a
        return 1 if not cf and not zf else 0
    if cc == 9:    # ae
        return 1 if not cf else 0
    # FP condition codes: all false when unordered except fne... which is
    # also false (ordered 'one' semantics); unordered compares simply fail
    if uf:
        return 0
    if cc == 10:   # fe
        return 1 if zf else 0
    if cc == 11:   # fne
        return 0 if zf else 1
    if cc == 12:   # fb
        return 1 if cf else 0
    if cc == 13:   # fbe
        return 1 if cf or zf else 0
    if cc == 14:   # fa
        return 1 if not cf and not zf else 0
    if cc == 15:   # fae
        return 1 if not cf else 0
    raise SimTrap("bad-jump", f"bad cc {cc}")


def run_asm(
    program: CompiledProgram,
    layout: GlobalLayout,
    inject_index: Optional[int] = None,
    inject_bit: int = 0,
    max_steps: int = DEFAULT_MAX_STEPS,
    trace=None,
    dispatch: str = "decoded",
    fault_model: Optional[str] = None,
) -> ExecResult:
    """Convenience wrapper: fresh machine, one execution."""
    machine = AsmMachine(program, layout, max_steps=max_steps, trace=trace,
                         dispatch=dispatch, fault_model=fault_model)
    return machine.run(inject_index=inject_index, inject_bit=inject_bit)
