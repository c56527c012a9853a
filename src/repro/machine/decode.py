"""One-time decode pass: micro-ops -> bound Python closures.

Mirror of :mod:`repro.interp.decode` for the assembly machine: every
micro-op of a :class:`~repro.machine.machine.CompiledProgram` is
compiled once into a closure ``fn(st) -> next_pc`` with register
indices, immediates, memory geometry (bounds, stack limit), fall-through
targets, and condition-code evaluators all pre-bound, replacing the
per-step ``code == ...`` ladder of the naive loop.

Run state travels in an :class:`AsmState`: GPR/XMM register files
(lists, shared with the driver loop), the five status flags packed into
one integer (``zf | sf<<1 | of<<2 | cf<<3 | uf<<4``), the memory
bytearray, and the output list.  Flags-as-int makes an ALU flag write a
single store, and a FLAGS fault injection a single XOR.  Every store
closure (``MOV_MR``, ``MOV_MI``, ``MOVSD_MX``, ``PUSH``, ``CALL``) also
keeps the :class:`~repro.memorymodel.Memory` written extent, reached
through ``st.mem``, covering what it writes (DESIGN §10).

``main`` returning through its sentinel return address raises
:class:`_Halt`, which the driver turns into a normal stop.

Decoding is cached on the program object, keyed by memory geometry, so
any number of :class:`~repro.machine.machine.AsmMachine` instances
(one per injection) share one decode.
"""

from __future__ import annotations

import struct
from typing import Callable, List

from ..errors import FaultDetected, SimTrap
from ..memorymodel import Memory
from ..utils.fmt import format_char, format_f64, format_i64
from .machine import (
    ADD_RI, ADD_RR, ADDSD, AND_RI, AND_RR, CALL, CALLRT, CMOV, CMP_RI,
    CMP_RR, CVTSI2SD, CVTTSD2SI, DIVSD, IDIV, IMUL_RI, IMUL_RR, JCC, JMP,
    LEA, MOV_MI, MOV_MR, MOV_RI, MOV_RM, MOV_RR, MOVSD_MX, MOVSD_XI,
    MOVSD_XM, MOVSD_XX, MULSD, OR_RI, OR_RR, POP, PUSH, RET, SAR_RC,
    SAR_RI, SETCC, SHL_RC, SHL_RI, SHR_RC, SHR_RI, SUB_RI, SUB_RR, SUBSD,
    TEST_RR, UCOMISD, UD2, XOR_RI, XOR_RR,
    _GPR_INDEX, _MASK64, _RAX, _RCX, _RDI, _RDX, _RSP, _SENTINEL_RET,
    _RT_DETECT, _RT_MATH1, _RT_MATH2, _RT_PRINT_CHAR, _RT_PRINT_F64,
    _RT_PRINT_I64, _XMM_INDEX,
    CompiledProgram, _b2f, _f2b, _sx,
)

__all__ = ["AsmState", "DecodedProgram", "decode_program", "_Halt"]

_M64 = _MASK64
_PACK_Q = struct.Struct("<Q")
_PACK_D = struct.Struct("<d")


class _Halt(Exception):
    """Internal signal: ``main`` returned through the sentinel."""


class AsmState:
    """Mutable run state shared between driver loop and closures.

    ``depth``/``max_depth`` carry the call-depth budget (DESIGN §11):
    the decode cache is keyed by memory geometry and shared across
    machines, so per-run budgets must travel in the state, not in the
    closures.
    """

    __slots__ = ("regs", "xmm", "fl", "data", "mem", "outputs", "machine",
                 "depth", "max_depth")


class DecodedProgram:
    """Closure form of a CompiledProgram for one memory geometry."""

    __slots__ = ("program", "fns", "gpr_dest", "xmm_dest")

    def __init__(self, program: CompiledProgram,
                 fns: List[Callable], gpr_dest: List[int],
                 xmm_dest: List[int]):
        self.program = program
        self.fns = fns
        #: destination register index per static site (-1 if not a site)
        self.gpr_dest = gpr_dest
        self.xmm_dest = xmm_dest


def decode_program(program: CompiledProgram, mem: Memory) -> DecodedProgram:
    """Decode ``program`` for ``mem``'s geometry (cached on the program)."""
    key = (mem.global_base, mem.size, mem.stack_limit)
    cache = getattr(program, "_decoded", None)
    if cache is None:
        cache = {}
        program._decoded = cache
    dp = cache.get(key)
    if dp is None:
        dp = _decode(program, mem.global_base, mem.size, mem.stack_limit)
        cache[key] = dp
    return dp


# -- condition codes over the packed flag int ----------------------------
# fl = zf | sf<<1 | of<<2 | cf<<3 | uf<<4


def _cc_fn(cc: int) -> Callable[[int], int]:
    if cc == 0:                                    # e
        return lambda fl: fl & 1
    if cc == 1:                                    # ne
        return lambda fl: 0 if fl & 1 else 1
    if cc == 2:                                    # l: sf != of
        return lambda fl: ((fl >> 1) ^ (fl >> 2)) & 1
    if cc == 3:                                    # le
        return lambda fl: 1 if (fl & 1) or (((fl >> 1) ^ (fl >> 2)) & 1) \
            else 0
    if cc == 4:                                    # g
        return lambda fl: 0 if (fl & 1) or (((fl >> 1) ^ (fl >> 2)) & 1) \
            else 1
    if cc == 5:                                    # ge: sf == of
        return lambda fl: 0 if ((fl >> 1) ^ (fl >> 2)) & 1 else 1
    if cc == 6:                                    # b
        return lambda fl: (fl >> 3) & 1
    if cc == 7:                                    # be: cf or zf
        return lambda fl: 1 if fl & 0b1001 else 0
    if cc == 8:                                    # a
        return lambda fl: 0 if fl & 0b1001 else 1
    if cc == 9:                                    # ae
        return lambda fl: 0 if fl & 0b1000 else 1
    # FP condition codes: all false when unordered (uf, bit 4)
    if cc == 10:                                   # fe
        return lambda fl: 0 if fl & 16 else fl & 1
    if cc == 11:                                   # fne
        return lambda fl: 0 if fl & 16 else (0 if fl & 1 else 1)
    if cc == 12:                                   # fb
        return lambda fl: 0 if fl & 16 else (fl >> 3) & 1
    if cc == 13:                                   # fbe
        return lambda fl: 0 if fl & 16 else (1 if fl & 0b1001 else 0)
    if cc == 14:                                   # fa
        return lambda fl: 0 if fl & 16 else (0 if fl & 0b1001 else 1)
    if cc == 15:                                   # fae
        return lambda fl: 0 if fl & 16 else (0 if fl & 0b1000 else 1)
    raise SimTrap("bad-jump", f"bad cc {cc}")


_CC_FNS = [_cc_fn(cc) for cc in range(16)]


def _always_trap(kind: str, detail: str):
    def f(st):
        raise SimTrap(kind, detail)
    return f


def _decode(program: CompiledProgram, lo: int, hi: int,
            stack_limit: int) -> DecodedProgram:
    uops = program.uops
    n_insts = len(uops)
    fns: List[Callable] = []
    nan = float("nan")
    inf = float("inf")
    ninf = float("-inf")

    for i, u in enumerate(uops):
        code = u[0]
        nxt = i + 1

        if code == MOV_RR:
            d, s = u[1], u[2]

            def f(st, d=d, s=s, nxt=nxt):
                st.regs[d] = st.regs[s]
                return nxt
        elif code == MOV_RI:
            d, v = u[1], u[2]

            def f(st, d=d, v=v, nxt=nxt):
                st.regs[d] = v
                return nxt
        elif code == MOV_RM:
            d, base, disp, size = u[1], u[2], u[3], u[4]
            if base < 0:
                addr = disp & _M64
                if addr < lo or addr + size > hi:
                    f = _always_trap("segfault", f"read {size} at {addr:#x}")
                elif size == 8:
                    def f(st, d=d, addr=addr, nxt=nxt):
                        st.regs[d] = _PACK_Q.unpack_from(st.data, addr)[0]
                        return nxt
                else:
                    def f(st, d=d, addr=addr, size=size, nxt=nxt):
                        st.regs[d] = int.from_bytes(
                            st.data[addr:addr + size], "little")
                        return nxt
            elif size == 8:
                def f(st, d=d, base=base, disp=disp, nxt=nxt):
                    addr = (disp + st.regs[base]) & _M64
                    if addr < lo or addr + 8 > hi:
                        raise SimTrap("segfault", f"read 8 at {addr:#x}")
                    st.regs[d] = _PACK_Q.unpack_from(st.data, addr)[0]
                    return nxt
            else:
                def f(st, d=d, base=base, disp=disp, size=size, nxt=nxt):
                    addr = (disp + st.regs[base]) & _M64
                    if addr < lo or addr + size > hi:
                        raise SimTrap("segfault",
                                      f"read {size} at {addr:#x}")
                    st.regs[d] = int.from_bytes(
                        st.data[addr:addr + size], "little")
                    return nxt
        elif code == MOV_MR:
            base, disp, s, size = u[1], u[2], u[3], u[4]
            if base < 0:
                addr = disp & _M64
                if addr < lo or addr + size > hi:
                    f = _always_trap("segfault",
                                     f"write {size} at {addr:#x}")
                elif size == 8:
                    def f(st, addr=addr, s=s, nxt=nxt):
                        m = st.mem
                        if addr < m.hi_start and addr + 8 > m.lo_end:
                            m.widen(addr, 8)
                        _PACK_Q.pack_into(st.data, addr, st.regs[s])
                        return nxt
                else:
                    def f(st, addr=addr, s=s, size=size, nxt=nxt):
                        m = st.mem
                        if addr < m.hi_start and addr + size > m.lo_end:
                            m.widen(addr, size)
                        st.data[addr:addr + size] = (
                            st.regs[s] & ((1 << (8 * size)) - 1)
                        ).to_bytes(size, "little")
                        return nxt
            elif size == 8:
                def f(st, base=base, disp=disp, s=s, nxt=nxt):
                    addr = (disp + st.regs[base]) & _M64
                    if addr < lo or addr + 8 > hi:
                        raise SimTrap("segfault", f"write 8 at {addr:#x}")
                    m = st.mem
                    if addr < m.hi_start and addr + 8 > m.lo_end:
                        m.widen(addr, 8)
                    _PACK_Q.pack_into(st.data, addr, st.regs[s])
                    return nxt
            else:
                def f(st, base=base, disp=disp, s=s, size=size, nxt=nxt):
                    addr = (disp + st.regs[base]) & _M64
                    if addr < lo or addr + size > hi:
                        raise SimTrap("segfault",
                                      f"write {size} at {addr:#x}")
                    m = st.mem
                    if addr < m.hi_start and addr + size > m.lo_end:
                        m.widen(addr, size)
                    st.data[addr:addr + size] = (
                        st.regs[s] & ((1 << (8 * size)) - 1)
                    ).to_bytes(size, "little")
                    return nxt
        elif code == MOV_MI:
            base, disp, v, size = u[1], u[2], u[3], u[4]
            payload = (v & ((1 << (8 * size)) - 1)).to_bytes(size, "little")
            if base < 0:
                addr = disp & _M64
                if addr < lo or addr + size > hi:
                    f = _always_trap("segfault",
                                     f"write {size} at {addr:#x}")
                else:
                    def f(st, addr=addr, payload=payload, size=size,
                          nxt=nxt):
                        m = st.mem
                        if addr < m.hi_start and addr + size > m.lo_end:
                            m.widen(addr, size)
                        st.data[addr:addr + size] = payload
                        return nxt
            else:
                def f(st, base=base, disp=disp, payload=payload,
                      size=size, nxt=nxt):
                    addr = (disp + st.regs[base]) & _M64
                    if addr < lo or addr + size > hi:
                        raise SimTrap("segfault",
                                      f"write {size} at {addr:#x}")
                    m = st.mem
                    if addr < m.hi_start and addr + size > m.lo_end:
                        m.widen(addr, size)
                    st.data[addr:addr + size] = payload
                    return nxt
        elif code == MOVSD_XX:
            d, s = u[1], u[2]

            def f(st, d=d, s=s, nxt=nxt):
                st.xmm[d] = st.xmm[s]
                return nxt
        elif code == MOVSD_XI:
            d, v = u[1], u[2]

            def f(st, d=d, v=v, nxt=nxt):
                st.xmm[d] = v
                return nxt
        elif code == MOVSD_XM:
            d, base, disp = u[1], u[2], u[3]
            if base < 0:
                addr = disp & _M64
                if addr < lo or addr + 8 > hi:
                    f = _always_trap("segfault", f"fp read at {addr:#x}")
                else:
                    def f(st, d=d, addr=addr, nxt=nxt):
                        st.xmm[d] = _PACK_D.unpack_from(st.data, addr)[0]
                        return nxt
            else:
                def f(st, d=d, base=base, disp=disp, nxt=nxt):
                    addr = (disp + st.regs[base]) & _M64
                    if addr < lo or addr + 8 > hi:
                        raise SimTrap("segfault", f"fp read at {addr:#x}")
                    st.xmm[d] = _PACK_D.unpack_from(st.data, addr)[0]
                    return nxt
        elif code == MOVSD_MX:
            base, disp, s = u[1], u[2], u[3]
            if base < 0:
                addr = disp & _M64
                if addr < lo or addr + 8 > hi:
                    f = _always_trap("segfault", f"fp write at {addr:#x}")
                else:
                    def f(st, addr=addr, s=s, nxt=nxt):
                        m = st.mem
                        if addr < m.hi_start and addr + 8 > m.lo_end:
                            m.widen(addr, 8)
                        _PACK_D.pack_into(st.data, addr, st.xmm[s])
                        return nxt
            else:
                def f(st, base=base, disp=disp, s=s, nxt=nxt):
                    addr = (disp + st.regs[base]) & _M64
                    if addr < lo or addr + 8 > hi:
                        raise SimTrap("segfault", f"fp write at {addr:#x}")
                    m = st.mem
                    if addr < m.hi_start and addr + 8 > m.lo_end:
                        m.widen(addr, 8)
                    _PACK_D.pack_into(st.data, addr, st.xmm[s])
                    return nxt
        elif code == LEA:
            d, base, disp = u[1], u[2], u[3]
            if base < 0:
                addr = disp & _M64

                def f(st, d=d, addr=addr, nxt=nxt):
                    st.regs[d] = addr
                    return nxt
            else:
                def f(st, d=d, base=base, disp=disp, nxt=nxt):
                    st.regs[d] = (disp + st.regs[base]) & _M64
                    return nxt
        elif code == ADD_RR or code == ADD_RI:
            d = u[1]
            if code == ADD_RR:
                s = u[2]

                def f(st, d=d, s=s, nxt=nxt):
                    regs = st.regs
                    a = regs[d]
                    b = regs[s]
                    t = a + b
                    r = t & _M64
                    regs[d] = r
                    st.fl = ((1 if r == 0 else 0) | ((r >> 63) << 1)
                             | (((~(a ^ b)) & (a ^ r)) >> 63 & 1) << 2
                             | (t >> 64) << 3)
                    return nxt
            else:
                b = u[2]

                def f(st, d=d, b=b, nxt=nxt):
                    regs = st.regs
                    a = regs[d]
                    t = a + b
                    r = t & _M64
                    regs[d] = r
                    st.fl = ((1 if r == 0 else 0) | ((r >> 63) << 1)
                             | (((~(a ^ b)) & (a ^ r)) >> 63 & 1) << 2
                             | (t >> 64) << 3)
                    return nxt
        elif code == SUB_RR or code == SUB_RI:
            d = u[1]
            if code == SUB_RR:
                s = u[2]

                def f(st, d=d, s=s, nxt=nxt):
                    regs = st.regs
                    a = regs[d]
                    b = regs[s]
                    r = (a - b) & _M64
                    regs[d] = r
                    st.fl = ((1 if r == 0 else 0) | ((r >> 63) << 1)
                             | (((a ^ b) & (a ^ r)) >> 63 & 1) << 2
                             | (8 if a < b else 0))
                    return nxt
            else:
                b = u[2]

                def f(st, d=d, b=b, nxt=nxt):
                    regs = st.regs
                    a = regs[d]
                    r = (a - b) & _M64
                    regs[d] = r
                    st.fl = ((1 if r == 0 else 0) | ((r >> 63) << 1)
                             | (((a ^ b) & (a ^ r)) >> 63 & 1) << 2
                             | (8 if a < b else 0))
                    return nxt
        elif code == IMUL_RR or code == IMUL_RI:
            d = u[1]
            if code == IMUL_RR:
                s = u[2]

                def f(st, d=d, s=s, nxt=nxt):
                    regs = st.regs
                    r = (_sx(regs[d]) * _sx(regs[s])) & _M64
                    regs[d] = r
                    st.fl = (1 if r == 0 else 0) | ((r >> 63) << 1)
                    return nxt
            else:
                b = _sx(u[2])

                def f(st, d=d, b=b, nxt=nxt):
                    regs = st.regs
                    r = (_sx(regs[d]) * b) & _M64
                    regs[d] = r
                    st.fl = (1 if r == 0 else 0) | ((r >> 63) << 1)
                    return nxt
        elif code in (AND_RR, AND_RI, OR_RR, OR_RI, XOR_RR, XOR_RI):
            d = u[1]
            reg_src = code in (AND_RR, OR_RR, XOR_RR)
            which = (0 if code in (AND_RR, AND_RI)
                     else 1 if code in (OR_RR, OR_RI) else 2)
            if reg_src:
                s = u[2]

                def f(st, d=d, s=s, w=which, nxt=nxt):
                    regs = st.regs
                    if w == 0:
                        r = regs[d] & regs[s]
                    elif w == 1:
                        r = regs[d] | regs[s]
                    else:
                        r = regs[d] ^ regs[s]
                    regs[d] = r
                    st.fl = (1 if r == 0 else 0) | ((r >> 63) << 1)
                    return nxt
            else:
                b = u[2]

                def f(st, d=d, b=b, w=which, nxt=nxt):
                    regs = st.regs
                    if w == 0:
                        r = regs[d] & b
                    elif w == 1:
                        r = regs[d] | b
                    else:
                        r = regs[d] ^ b
                    regs[d] = r
                    st.fl = (1 if r == 0 else 0) | ((r >> 63) << 1)
                    return nxt
        elif code in (SHL_RC, SHL_RI, SAR_RC, SAR_RI, SHR_RC, SHR_RI):
            d = u[1]
            by_count = code in (SHL_RC, SAR_RC, SHR_RC)
            which = (0 if code in (SHL_RC, SHL_RI)
                     else 1 if code in (SAR_RC, SAR_RI) else 2)
            amount = None if by_count else (u[2] & 63)

            def f(st, d=d, w=which, amount=amount, nxt=nxt):
                regs = st.regs
                n = regs[_RCX] & 63 if amount is None else amount
                if w == 0:
                    r = (regs[d] << n) & _M64
                elif w == 1:
                    r = (_sx(regs[d]) >> n) & _M64
                else:
                    r = regs[d] >> n
                regs[d] = r
                st.fl = (1 if r == 0 else 0) | ((r >> 63) << 1)
                return nxt
        elif code == IDIV:
            s = u[1]

            def f(st, s=s, nxt=nxt):
                regs = st.regs
                b = _sx(regs[s])
                if b == 0:
                    raise SimTrap("div-by-zero")
                a = _sx(regs[_RAX])
                q = abs(a) // abs(b)
                if (a < 0) != (b < 0):
                    q = -q
                regs[_RAX] = q & _M64
                regs[_RDX] = (a - q * b) & _M64
                st.fl = 0
                return nxt
        elif code == CMP_RR or code == CMP_RI:
            a_i = u[1]
            if code == CMP_RR:
                b_i = u[2]

                def f(st, a_i=a_i, b_i=b_i, nxt=nxt):
                    regs = st.regs
                    a = regs[a_i]
                    b = regs[b_i]
                    r = (a - b) & _M64
                    st.fl = ((1 if r == 0 else 0) | ((r >> 63) << 1)
                             | (((a ^ b) & (a ^ r)) >> 63 & 1) << 2
                             | (8 if a < b else 0))
                    return nxt
            else:
                b = u[2]

                def f(st, a_i=a_i, b=b, nxt=nxt):
                    a = st.regs[a_i]
                    r = (a - b) & _M64
                    st.fl = ((1 if r == 0 else 0) | ((r >> 63) << 1)
                             | (((a ^ b) & (a ^ r)) >> 63 & 1) << 2
                             | (8 if a < b else 0))
                    return nxt
        elif code == TEST_RR:
            a_i, b_i = u[1], u[2]

            def f(st, a_i=a_i, b_i=b_i, nxt=nxt):
                regs = st.regs
                r = regs[a_i] & regs[b_i]
                st.fl = (1 if r == 0 else 0) | ((r >> 63) << 1)
                return nxt
        elif code == SETCC:
            d, cc = u[1], _CC_FNS[u[2]]

            def f(st, d=d, cc=cc, nxt=nxt):
                st.regs[d] = cc(st.fl)
                return nxt
        elif code == CMOV:
            d, s, cc = u[1], u[2], _CC_FNS[u[3]]

            def f(st, d=d, s=s, cc=cc, nxt=nxt):
                if cc(st.fl):
                    st.regs[d] = st.regs[s]
                return nxt
        elif code == JMP:
            t = u[1]

            def f(st, t=t):
                return t
        elif code == JCC:
            t, cc = u[1], _CC_FNS[u[2]]

            def f(st, t=t, cc=cc, nxt=nxt):
                return t if cc(st.fl) else nxt
        elif code == CALL:
            t = u[1]

            def f(st, t=t, nxt=nxt, cur=i):
                regs = st.regs
                sp = (regs[_RSP] - 8) & _M64
                if sp < stack_limit or sp + 8 > hi:
                    raise SimTrap("stack-overflow", f"call at pc={cur}")
                depth = st.depth + 1
                st.depth = depth
                if depth > st.max_depth:
                    raise SimTrap(
                        "stack-overflow",
                        f"call depth {st.max_depth} exceeded at pc={cur}")
                m = st.mem
                if sp < m.hi_start and sp + 8 > m.lo_end:
                    m.widen(sp, 8)
                _PACK_Q.pack_into(st.data, sp, nxt)
                regs[_RSP] = sp
                return t
        elif code == CALLRT:
            kind, payload = u[1], u[2]
            if kind == _RT_PRINT_I64:
                def f(st, nxt=nxt):
                    st.outputs.append(format_i64(_sx(st.regs[_RDI])) + "\n")
                    return nxt
            elif kind == _RT_PRINT_F64:
                def f(st, nxt=nxt):
                    st.outputs.append(format_f64(st.xmm[0]) + "\n")
                    return nxt
            elif kind == _RT_PRINT_CHAR:
                def f(st, nxt=nxt):
                    st.outputs.append(format_char(st.regs[_RDI]))
                    return nxt
            elif kind == _RT_DETECT:
                def f(st):
                    raise FaultDetected("checker")
            elif kind == _RT_MATH1:
                def f(st, fn1=payload, nxt=nxt):
                    st.xmm[0] = fn1(st.xmm[0])
                    return nxt
            else:
                def f(st, fn2=payload, nxt=nxt):
                    xmm = st.xmm
                    xmm[0] = fn2(xmm[0], xmm[1])
                    return nxt
        elif code == RET:
            def f(st):
                regs = st.regs
                sp = regs[_RSP]
                if sp < lo or sp + 8 > hi:
                    raise SimTrap("segfault", f"ret with rsp={sp:#x}")
                addr = _PACK_Q.unpack_from(st.data, sp)[0]
                regs[_RSP] = (sp + 8) & _M64
                if addr == _SENTINEL_RET:
                    raise _Halt()
                if addr >= n_insts:
                    raise SimTrap("bad-jump", f"ret to {addr:#x}")
                st.depth -= 1
                return addr
        elif code == PUSH:
            s = u[1]

            def f(st, s=s, nxt=nxt, cur=i):
                regs = st.regs
                sp = (regs[_RSP] - 8) & _M64
                if sp < stack_limit or sp + 8 > hi:
                    raise SimTrap("stack-overflow", f"push at pc={cur}")
                m = st.mem
                if sp < m.hi_start and sp + 8 > m.lo_end:
                    m.widen(sp, 8)
                _PACK_Q.pack_into(st.data, sp, regs[s])
                regs[_RSP] = sp
                return nxt
        elif code == POP:
            d = u[1]

            def f(st, d=d, nxt=nxt):
                regs = st.regs
                sp = regs[_RSP]
                if sp < lo or sp + 8 > hi:
                    raise SimTrap("segfault", f"pop with rsp={sp:#x}")
                regs[d] = _PACK_Q.unpack_from(st.data, sp)[0]
                regs[_RSP] = (sp + 8) & _M64
                return nxt
        elif code in (ADDSD, SUBSD, MULSD):
            d, s = u[1], u[2]
            which = 0 if code == ADDSD else 1 if code == SUBSD else 2

            def f(st, d=d, s=s, w=which, nxt=nxt):
                xmm = st.xmm
                if w == 0:
                    xmm[d] = xmm[d] + xmm[s]
                elif w == 1:
                    xmm[d] = xmm[d] - xmm[s]
                else:
                    xmm[d] = xmm[d] * xmm[s]
                return nxt
        elif code == DIVSD:
            d, s = u[1], u[2]

            def f(st, d=d, s=s, nxt=nxt, nan=nan, inf=inf, ninf=ninf):
                xmm = st.xmm
                a = xmm[d]
                b = xmm[s]
                if b == 0.0:
                    xmm[d] = nan if a == 0.0 or a != a else (
                        inf if a > 0 else ninf)
                else:
                    xmm[d] = a / b
                return nxt
        elif code == UCOMISD:
            a_i, b_i = u[1], u[2]

            def f(st, a_i=a_i, b_i=b_i, nxt=nxt):
                xmm = st.xmm
                a = xmm[a_i]
                b = xmm[b_i]
                if a != a or b != b:
                    st.fl = 0b11001          # uf, cf, zf
                else:
                    st.fl = (1 if a == b else 0) | (8 if a < b else 0)
                return nxt
        elif code == CVTSI2SD:
            d, s = u[1], u[2]

            def f(st, d=d, s=s, nxt=nxt):
                st.xmm[d] = float(_sx(st.regs[s]))
                return nxt
        elif code == CVTTSD2SI:
            d, s = u[1], u[2]

            def f(st, d=d, s=s, nxt=nxt, inf=inf, ninf=ninf):
                v = st.xmm[s]
                if v != v or v == inf or v == ninf:
                    st.regs[d] = 0
                else:
                    st.regs[d] = int(v) & _M64
                return nxt
        elif code == UD2:
            f = _always_trap("unreachable", f"ud2 at pc={i}")
        else:  # pragma: no cover
            f = _always_trap("bad-jump", f"bad uop {code}")

        fns.append(f)

    n = len(uops)
    gpr_dest = [-1] * n
    xmm_dest = [-1] * n
    for idx, k in enumerate(program.inj_kind):
        if k == 1:
            gpr_dest[idx] = _GPR_INDEX[program.inst_at(idx).dest_reg().name]
        elif k == 2:
            xmm_dest[idx] = _XMM_INDEX[program.inst_at(idx).dest_reg().name]
    return DecodedProgram(program, fns, gpr_dest, xmm_dest)
