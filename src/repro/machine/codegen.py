"""Template-driven code generation for the assembly machine.

Third dispatch tier (``dispatch="codegen"``): the micro-op stream of a
:class:`~repro.machine.machine.CompiledProgram` is translated once into
specialized straight-line Python source — register indices, immediates,
memory bounds and branch targets inlined as literals — compiled with
:func:`repro.simgen.cache.compile_generated` and cached per memory
geometry, exactly like the decode cache.

Unlike the IR backend (one generated function per IR function, frames
driven from the interpreter), the whole uop stream is one flat address
space, so the asm backend emits a *single* function.  Basic blocks are
discovered from branch/call targets ("leaders"); each chunk is the run
of uops from a leader up to and including the next control uop.  Calls
and returns stay inside the generated function: their targets are
leaders, so control transfer is just ``bb = <chunk>; continue`` on a
binary dispatch tree.  Only a *corrupted* return address (one that is
not a leader — possible only after an injected fault) exits to
:func:`careful_until_leader`, which single-steps decoded closures until
execution re-joins a leader.

Stores (``MOV_MR``, ``MOV_MI``, ``MOVSD_MX``, ``PUSH``, ``CALL``) keep
the memory's written extent (DESIGN §10) covering what they write
through the ``LE``/``HS`` bound locals hoisted at function entry.

Counter exactness under coalescing uses the same trick as the IR
backend: each chunk has a *slow* body (taken only when the flip target
falls inside it) with per-uop ``s``/``inj`` updates and flip hooks, and
a *fast* body whose counters are coalesced into one addition at the
chunk exit.  Fast-body lines are recorded in a fixup table ``_FIX``
mapping generated line number -> (steps, injectable, pc) offsets; the
wrapper's ``except`` arms repair the counters from
``e.__traceback__.tb_lineno`` and convert ``OverflowError`` into the
same ``SimTrap("overflow", "pc=...")`` the other tiers raise.

The generated function returns action tuples to the driver loop in
:meth:`AsmMachine._codegen`:

``(0, pc)``  step budget could be hit inside the next chunk — the
             driver finishes the run on the decoded core, which owns
             the exact raise point;
``(1,)``     ``main`` returned through the sentinel (halt);
``(2, pc)``  return address is not a leader — careful-step from ``pc``.
"""

from __future__ import annotations

import struct
from typing import Callable, Dict, List, Optional, Tuple

from ..errors import FaultDetected, ReproError, SimTrap
from ..memorymodel import Memory
from ..utils.fmt import format_char, format_f64, format_i64
from ..simgen import SourceBuilder, compile_generated
from . import machine as _machine
from .decode import DecodedProgram, decode_program
from .machine import (
    ADD_RI, ADD_RR, ADDSD, AND_RI, AND_RR, CALL, CALLRT, CMOV, CMP_RI,
    CMP_RR, CVTSI2SD, CVTTSD2SI, DIVSD, IDIV, IMUL_RI, IMUL_RR, JCC, JMP,
    LEA, MOV_MI, MOV_MR, MOV_RI, MOV_RM, MOV_RR, MOVSD_MX, MOVSD_XI,
    MOVSD_XM, MOVSD_XX, MULSD, OR_RI, OR_RR, POP, PUSH, RET, SAR_RC,
    SAR_RI, SETCC, SHL_RC, SHL_RI, SHR_RC, SHR_RI, SUB_RI, SUB_RR, SUBSD,
    TEST_RR, UCOMISD, UD2, XOR_RI, XOR_RR,
    _MASK64, _RAX, _RCX, _RDI, _RDX, _RSP, _SENTINEL_RET,
    _RT_DETECT, _RT_MATH1, _RT_PRINT_CHAR, _RT_PRINT_F64, _RT_PRINT_I64,
    CompiledProgram, _sx,
)

__all__ = ["CodegenProgram", "codegen_program", "careful_until_leader"]

_M64 = _MASK64
_CONTROL = frozenset((JMP, JCC, CALL, RET, UD2))

# condition-code expressions over the packed flag local `fl`
# (zf | sf<<1 | of<<2 | cf<<3 | uf<<4) — literal translations of
# decode._cc_fn, index == cc id
_CC_EXPR = [
    "(fl & 1)",                                                 # e
    "(0 if fl & 1 else 1)",                                     # ne
    "(((fl >> 1) ^ (fl >> 2)) & 1)",                            # l
    "(1 if (fl & 1) or (((fl >> 1) ^ (fl >> 2)) & 1) else 0)",  # le
    "(0 if (fl & 1) or (((fl >> 1) ^ (fl >> 2)) & 1) else 1)",  # g
    "(0 if ((fl >> 1) ^ (fl >> 2)) & 1 else 1)",                # ge
    "((fl >> 3) & 1)",                                          # b
    "(1 if fl & 9 else 0)",                                     # be
    "(0 if fl & 9 else 1)",                                     # a
    "(0 if fl & 8 else 1)",                                     # ae
    "(0 if fl & 16 else fl & 1)",                               # fe
    "(0 if fl & 16 else (0 if fl & 1 else 1))",                 # fne
    "(0 if fl & 16 else (fl >> 3) & 1)",                        # fb
    "(0 if fl & 16 else (1 if fl & 9 else 0))",                 # fbe
    "(0 if fl & 16 else (0 if fl & 9 else 1))",                 # fa
    "(0 if fl & 16 else (0 if fl & 8 else 1))",                 # fae
]

_SX_MAX = 1 << 63
_SX_WRAP = 1 << 64

# struct codes per access size; signedness matches the decoded tier
# (asm GPR loads are raw little-endian unsigned)
_U_FMT = {1: "B", 2: "H", 4: "I", 8: "Q"}


class CodegenProgram:
    """Generated executor for one (program, memory-geometry) pair."""

    __slots__ = ("program", "run", "leaders", "source", "env")

    def __init__(self, program: CompiledProgram, run: Callable,
                 leaders: Dict[int, int], source: str, env: dict):
        self.program = program
        self.run = run
        #: uop index -> chunk id for every leader (branch/call target,
        #: call return site, entry) — also bound as ``_L`` in the
        #: generated module for RET dispatch
        self.leaders = leaders
        self.source = source
        self.env = env


def _fingerprint(program: CompiledProgram) -> tuple:
    """Content identity for in-place mutation detection (process-local:
    CALLRT payload identity hashes by object id)."""
    return (len(program.uops), program.entry_index,
            hash(tuple(program.uops)))


def codegen_program(program: CompiledProgram, mem: Memory,
                    fault_model: str = "seu") -> CodegenProgram:
    """Generate (cached) specialized code for ``program`` under ``mem``'s
    geometry and ``fault_model`` (the corruption hooks are baked into
    the source); regenerates if the uop stream was mutated in place."""
    key = (mem.global_base, mem.size, mem.stack_limit, fault_model)
    fp = _fingerprint(program)
    cache = getattr(program, "_codegen", None)
    if cache is None:
        cache = {}
        program._codegen = cache
    hit = cache.get(key)
    if hit is not None and hit[0] == fp:
        return hit[1]
    cp = _generate(program, mem, fault_model)
    cache[key] = (fp, cp)
    return cp


def _find_chunks(uops: List[tuple], entry: int):
    """Leaders + chunk spans.

    A chunk runs from its leader up to and including the first control
    uop, or up to (excluding) the next leader (fall-through), or to the
    end of the program (falling off is a bad-jump).  Dead uops hiding
    between a mid-run control uop and the next leader are reachable only
    through corrupted return addresses and are covered by the careful
    stepper, never by generated code.
    """
    n = len(uops)
    leader_set = {entry}
    for i, u in enumerate(uops):
        code = u[0]
        if code == JMP:
            leader_set.add(u[1])
        elif code in (JCC, CALL):
            leader_set.add(u[1])
            if i + 1 < n:
                leader_set.add(i + 1)
    ordered = sorted(x for x in leader_set if 0 <= x < n)
    chunks = []  # (leader, end_exclusive, kind) kind: "ctl"|"fall"|"off"
    for L in ordered:
        j = L
        while True:
            if uops[j][0] in _CONTROL:
                chunks.append((L, j + 1, "ctl"))
                break
            j += 1
            if j == n:
                chunks.append((L, j, "off"))
                break
            if j in leader_set:
                chunks.append((L, j, "fall"))
                break
    leaders = {L: k for k, (L, _end, _kind) in enumerate(chunks)}
    return chunks, leaders


class _Emitter:
    """Emits the single specialized executor for one program/geometry."""

    def __init__(self, program: CompiledProgram, dp: DecodedProgram,
                 lo: int, hi: int, stack_limit: int,
                 fault_model: str = "seu"):
        self.program = program
        self.uops = program.uops
        self.fault_model = fault_model
        self.cf = fault_model == "cf"
        self.set = fault_model == "set"
        #: under cf the register-destination sites vanish (no slow
        #: bodies, no coalesced inj) — control-uop chunk tails become
        #: the injection sites instead
        self.inj_kind = ([0] * len(program.uops) if self.cf
                         else program.inj_kind)
        self.gpr_dest = dp.gpr_dest
        self.xmm_dest = dp.xmm_dest
        self.lo = lo
        self.hi = hi
        self.stack_limit = stack_limit
        self.fix: Dict[int, Tuple[int, int, int]] = {}
        self.env: dict = {
            "_SimTrap": SimTrap,
            "_FaultDetected": FaultDetected,
            "_mach": _machine,
            "_FIX": self.fix,
            "M": _MASK64,
            "_FM": (1, 2, 4, 8, 16),
            "_ifb": int.from_bytes,
            "_fi64": format_i64,
            "_ff64": format_f64,
            "_fch": format_char,
            "_nan": float("nan"),
            "_inf": float("inf"),
            "_ninf": float("-inf"),
        }
        self._interned: Dict[tuple, str] = {}
        self._nconst = 0

    # -- env interning ---------------------------------------------------

    def struct_fn(self, prefix: str, fmt: str, method: str) -> str:
        name = f"_{prefix}{fmt}"
        if name not in self.env:
            self.env[name] = getattr(struct.Struct("<" + fmt), method)
        return name

    def const(self, tag: str, key, value) -> str:
        name = self._interned.get((tag, key))
        if name is None:
            name = f"_{tag}{self._nconst}"
            self._nconst += 1
            self._interned[(tag, key)] = name
            self.env[name] = value
        return name

    # -- per-uop bodies --------------------------------------------------

    def sx_line(self, var: str) -> str:
        return (f"{var} = {var} - {_SX_WRAP} "
                f"if {var} >= {_SX_MAX} else {var}")

    def emit_bounds(self, sb: SourceBuilder, size: int, what: str) -> None:
        """Dynamic-address bounds check over the `_a` local."""
        with sb.block(f"if _a < {self.lo} or _a + {size} > {self.hi}:"):
            sb.line(f'raise _SimTrap("segfault", '
                    f'f"{what} {{_a:#x}}")')

    def emit_gpr_read(self, sb: SourceBuilder, dest: str, size: int) -> None:
        """`dest = <size>-byte unsigned load at _a` (bounds already
        checked)."""
        fmt = _U_FMT.get(size)
        if fmt is not None:
            up = self.struct_fn("up", fmt, "unpack_from")
            sb.line(f"{dest} = {up}(md, _a)[0]")
        else:
            sb.line(f"{dest} = _ifb(md[_a:_a + {size}], 'little')")

    def emit_widen(self, sb: SourceBuilder, addr: str, size: int) -> None:
        """Keep the memory's written extent covering a store at
        ``addr`` (bounds already checked): one or two compares against
        the ``LE``/``HS`` locals, refreshed whenever the extent grows."""
        sb.line(f"if {addr} < HS and {addr} + {size} > LE: "
                f"LE, HS = mem.widen({addr}, {size})")

    def emit_gpr_write(self, sb: SourceBuilder, src: str, size: int) -> None:
        mask = (1 << (8 * size)) - 1
        fmt = _U_FMT.get(size)
        if fmt is not None:
            sp = self.struct_fn("sp", fmt, "pack_into")
            sb.line(f"{sp}(md, _a, {src} & {mask})")
        else:
            sb.line(f"md[_a:_a + {size}] = "
                    f"(({src}) & {mask}).to_bytes({size}, 'little')")

    def emit_flags_zs(self, sb: SourceBuilder) -> None:
        sb.line("fl = (1 if _r == 0 else 0) | ((_r >> 63) << 1)")

    def emit_sub_flags(self, sb: SourceBuilder) -> None:
        sb.line("fl = ((1 if _r == 0 else 0) | ((_r >> 63) << 1)"
                " | (((_x ^ _y) & (_x ^ _r)) >> 63 & 1) << 2"
                " | (8 if _x < _y else 0))")

    def emit_uop(self, sb: SourceBuilder, i: int) -> None:
        """Straight-line source for uop ``i`` (counters/flips excluded;
        control uops are chunk tails and never come through here)."""
        u = self.uops[i]
        code = u[0]
        if code == MOV_RR:
            sb.line(f"rg[{u[1]}] = rg[{u[2]}]")
        elif code == MOV_RI:
            sb.line(f"rg[{u[1]}] = {u[2]}")
        elif code == MOV_RM:
            d, base, disp, size = u[1], u[2], u[3], u[4]
            if base < 0:
                addr = disp & _M64
                if addr < self.lo or addr + size > self.hi:
                    sb.line(f'raise _SimTrap("segfault", '
                            f'"read {size} at {addr:#x}")')
                else:
                    sb.line(f"_a = {addr}")
                    self.emit_gpr_read(sb, f"rg[{d}]", size)
            else:
                sb.line(f"_a = ({disp} + rg[{base}]) & M")
                self.emit_bounds(sb, size, f"read {size} at")
                self.emit_gpr_read(sb, f"rg[{d}]", size)
        elif code == MOV_MR:
            base, disp, s, size = u[1], u[2], u[3], u[4]
            if base < 0:
                addr = disp & _M64
                if addr < self.lo or addr + size > self.hi:
                    sb.line(f'raise _SimTrap("segfault", '
                            f'"write {size} at {addr:#x}")')
                else:
                    sb.line(f"_a = {addr}")
                    self.emit_widen(sb, "_a", size)
                    self.emit_gpr_write(sb, f"rg[{s}]", size)
            else:
                sb.line(f"_a = ({disp} + rg[{base}]) & M")
                self.emit_bounds(sb, size, f"write {size} at")
                self.emit_widen(sb, "_a", size)
                self.emit_gpr_write(sb, f"rg[{s}]", size)
        elif code == MOV_MI:
            base, disp, v, size = u[1], u[2], u[3], u[4]
            payload = (v & ((1 << (8 * size)) - 1)).to_bytes(size, "little")
            pl = self.const("pl", payload, payload)
            if base < 0:
                addr = disp & _M64
                if addr < self.lo or addr + size > self.hi:
                    sb.line(f'raise _SimTrap("segfault", '
                            f'"write {size} at {addr:#x}")')
                else:
                    self.emit_widen(sb, str(addr), size)
                    sb.line(f"md[{addr}:{addr + size}] = {pl}")
            else:
                sb.line(f"_a = ({disp} + rg[{base}]) & M")
                self.emit_bounds(sb, size, f"write {size} at")
                self.emit_widen(sb, "_a", size)
                sb.line(f"md[_a:_a + {size}] = {pl}")
        elif code == MOVSD_XX:
            sb.line(f"xm[{u[1]}] = xm[{u[2]}]")
        elif code == MOVSD_XI:
            v = u[2]
            if v == v and v not in (self.env["_inf"], self.env["_ninf"]) \
                    and float(repr(v)) == v:
                sb.line(f"xm[{u[1]}] = {v!r}")
            else:
                name = self.const("xc", struct.pack("<d", v), v)
                sb.line(f"xm[{u[1]}] = {name}")
        elif code == MOVSD_XM:
            d, base, disp = u[1], u[2], u[3]
            up = self.struct_fn("up", "d", "unpack_from")
            if base < 0:
                addr = disp & _M64
                if addr < self.lo or addr + 8 > self.hi:
                    sb.line(f'raise _SimTrap("segfault", '
                            f'"fp read at {addr:#x}")')
                else:
                    sb.line(f"xm[{d}] = {up}(md, {addr})[0]")
            else:
                sb.line(f"_a = ({disp} + rg[{base}]) & M")
                self.emit_bounds(sb, 8, "fp read at")
                sb.line(f"xm[{d}] = {up}(md, _a)[0]")
        elif code == MOVSD_MX:
            base, disp, s = u[1], u[2], u[3]
            sp = self.struct_fn("sp", "d", "pack_into")
            if base < 0:
                addr = disp & _M64
                if addr < self.lo or addr + 8 > self.hi:
                    sb.line(f'raise _SimTrap("segfault", '
                            f'"fp write at {addr:#x}")')
                else:
                    self.emit_widen(sb, str(addr), 8)
                    sb.line(f"{sp}(md, {addr}, xm[{s}])")
            else:
                sb.line(f"_a = ({disp} + rg[{base}]) & M")
                self.emit_bounds(sb, 8, "fp write at")
                self.emit_widen(sb, "_a", 8)
                sb.line(f"{sp}(md, _a, xm[{s}])")
        elif code == LEA:
            d, base, disp = u[1], u[2], u[3]
            if base < 0:
                sb.line(f"rg[{d}] = {disp & _M64}")
            else:
                sb.line(f"rg[{d}] = ({disp} + rg[{base}]) & M")
        elif code in (ADD_RR, ADD_RI):
            d = u[1]
            sb.line(f"_x = rg[{d}]")
            sb.line(f"_y = rg[{u[2]}]" if code == ADD_RR
                    else f"_y = {u[2]}")
            sb.line("_t = _x + _y")
            sb.line("_r = _t & M")
            sb.line(f"rg[{d}] = _r")
            sb.line("fl = ((1 if _r == 0 else 0) | ((_r >> 63) << 1)"
                    " | (((~(_x ^ _y)) & (_x ^ _r)) >> 63 & 1) << 2"
                    " | (_t >> 64) << 3)")
        elif code in (SUB_RR, SUB_RI):
            d = u[1]
            sb.line(f"_x = rg[{d}]")
            sb.line(f"_y = rg[{u[2]}]" if code == SUB_RR
                    else f"_y = {u[2]}")
            sb.line("_r = (_x - _y) & M")
            sb.line(f"rg[{d}] = _r")
            self.emit_sub_flags(sb)
        elif code in (IMUL_RR, IMUL_RI):
            d = u[1]
            sb.line(f"_x = rg[{d}]")
            sb.line(self.sx_line("_x"))
            if code == IMUL_RR:
                sb.line(f"_y = rg[{u[2]}]")
                sb.line(self.sx_line("_y"))
            else:
                sb.line(f"_y = {_sx(u[2])}")
            sb.line("_r = (_x * _y) & M")
            sb.line(f"rg[{d}] = _r")
            self.emit_flags_zs(sb)
        elif code in (AND_RR, AND_RI, OR_RR, OR_RI, XOR_RR, XOR_RI):
            d = u[1]
            op = ("&" if code in (AND_RR, AND_RI)
                  else "|" if code in (OR_RR, OR_RI) else "^")
            rhs = f"rg[{u[2]}]" if code in (AND_RR, OR_RR, XOR_RR) \
                else f"{u[2]}"
            sb.line(f"_r = rg[{d}] {op} {rhs}")
            sb.line(f"rg[{d}] = _r")
            self.emit_flags_zs(sb)
        elif code in (SHL_RC, SHL_RI, SAR_RC, SAR_RI, SHR_RC, SHR_RI):
            d = u[1]
            n_expr = (f"rg[{_RCX}] & 63"
                      if code in (SHL_RC, SAR_RC, SHR_RC)
                      else f"{u[2] & 63}")
            if code in (SHL_RC, SHL_RI):
                sb.line(f"_r = (rg[{d}] << ({n_expr})) & M")
            elif code in (SAR_RC, SAR_RI):
                sb.line(f"_x = rg[{d}]")
                sb.line(self.sx_line("_x"))
                sb.line(f"_r = (_x >> ({n_expr})) & M")
            else:
                sb.line(f"_r = rg[{d}] >> ({n_expr})")
            sb.line(f"rg[{d}] = _r")
            self.emit_flags_zs(sb)
        elif code == IDIV:
            sb.line(f"_y = rg[{u[1]}]")
            sb.line(self.sx_line("_y"))
            with sb.block("if _y == 0:"):
                sb.line('raise _SimTrap("div-by-zero")')
            sb.line(f"_x = rg[{_RAX}]")
            sb.line(self.sx_line("_x"))
            sb.line("_q = abs(_x) // abs(_y)")
            with sb.block("if (_x < 0) != (_y < 0):"):
                sb.line("_q = -_q")
            sb.line(f"rg[{_RAX}] = _q & M")
            sb.line(f"rg[{_RDX}] = (_x - _q * _y) & M")
            sb.line("fl = 0")
        elif code in (CMP_RR, CMP_RI):
            sb.line(f"_x = rg[{u[1]}]")
            sb.line(f"_y = rg[{u[2]}]" if code == CMP_RR
                    else f"_y = {u[2]}")
            sb.line("_r = (_x - _y) & M")
            self.emit_sub_flags(sb)
        elif code == TEST_RR:
            sb.line(f"_r = rg[{u[1]}] & rg[{u[2]}]")
            self.emit_flags_zs(sb)
        elif code == SETCC:
            sb.line(f"rg[{u[1]}] = {_CC_EXPR[u[2]]}")
        elif code == CMOV:
            with sb.block(f"if {_CC_EXPR[u[3]]}:"):
                sb.line(f"rg[{u[1]}] = rg[{u[2]}]")
        elif code == CALLRT:
            kind, payload = u[1], u[2]
            if kind == _RT_PRINT_I64:
                sb.line(f"_v = rg[{_RDI}]")
                sb.line(self.sx_line("_v"))
                sb.line('out.append(_fi64(_v) + "\\n")')
            elif kind == _RT_PRINT_F64:
                sb.line('out.append(_ff64(xm[0]) + "\\n")')
            elif kind == _RT_PRINT_CHAR:
                sb.line(f"out.append(_fch(rg[{_RDI}]))")
            elif kind == _RT_DETECT:
                sb.line('raise _FaultDetected("checker")')
            elif kind == _RT_MATH1:
                name = self.const("mt", id(payload), payload)
                sb.line(f"xm[0] = {name}(xm[0])")
            else:
                name = self.const("mt", id(payload), payload)
                sb.line(f"xm[0] = {name}(xm[0], xm[1])")
        elif code == PUSH:
            sb.line(f"_sp = (rg[{_RSP}] - 8) & M")
            with sb.block(f"if _sp < {self.stack_limit} "
                          f"or _sp + 8 > {self.hi}:"):
                sb.line(f'raise _SimTrap("stack-overflow", '
                        f'"push at pc={i}")')
            self.emit_widen(sb, "_sp", 8)
            spq = self.struct_fn("sp", "Q", "pack_into")
            sb.line(f"{spq}(md, _sp, rg[{u[1]}])")
            sb.line(f"rg[{_RSP}] = _sp")
        elif code == POP:
            sb.line(f"_sp = rg[{_RSP}]")
            with sb.block(f"if _sp < {self.lo} or _sp + 8 > {self.hi}:"):
                sb.line('raise _SimTrap("segfault", '
                        'f"pop with rsp={_sp:#x}")')
            upq = self.struct_fn("up", "Q", "unpack_from")
            sb.line(f"rg[{u[1]}] = {upq}(md, _sp)[0]")
            sb.line(f"rg[{_RSP}] = (_sp + 8) & M")
        elif code in (ADDSD, SUBSD, MULSD):
            op = "+" if code == ADDSD else "-" if code == SUBSD else "*"
            sb.line(f"xm[{u[1]}] = xm[{u[1]}] {op} xm[{u[2]}]")
        elif code == DIVSD:
            d, s = u[1], u[2]
            sb.line(f"_x = xm[{d}]")
            sb.line(f"_y = xm[{s}]")
            with sb.block("if _y == 0.0:"):
                sb.line(f"xm[{d}] = _nan if _x == 0.0 or _x != _x "
                        "else (_inf if _x > 0 else _ninf)")
            with sb.block("else:"):
                sb.line(f"xm[{d}] = _x / _y")
        elif code == UCOMISD:
            sb.line(f"_x = xm[{u[1]}]")
            sb.line(f"_y = xm[{u[2]}]")
            with sb.block("if _x != _x or _y != _y:"):
                sb.line("fl = 25")
            with sb.block("else:"):
                sb.line("fl = (1 if _x == _y else 0)"
                        " | (8 if _x < _y else 0)")
        elif code == CVTSI2SD:
            sb.line(f"_v = rg[{u[2]}]")
            sb.line(self.sx_line("_v"))
            sb.line(f"xm[{u[1]}] = float(_v)")
        elif code == CVTTSD2SI:
            d, s = u[1], u[2]
            sb.line(f"_v = xm[{s}]")
            with sb.block("if _v != _v or _v == _inf or _v == _ninf:"):
                sb.line(f"rg[{d}] = 0")
            with sb.block("else:"):
                sb.line(f"rg[{d}] = int(_v) & M")
        else:  # pragma: no cover - control uops handled by chunk tails
            raise ReproError(f"cannot generate code for uop {code}")

    def emit_flip(self, sb: SourceBuilder, i: int) -> None:
        """Slow-body armed-injection hook after uop ``i`` (mirrors the
        decoded loop; the XMM route goes through module attributes so
        monkeypatched flip helpers — the chaos bombs — stay visible)."""
        kind = self.inj_kind[i]
        burst = ("((1 << (bit & 63)) | (1 << ((bit + 1) & 63)))"
                 if self.set else "(1 << (bit & 63))")
        with sb.block("if inj == tgt:"):
            sb.line("mc.injected = True")
            sb.line(f"mc.injected_index = {i}")
            if kind == 1:
                sb.line(f"rg[{self.gpr_dest[i]}] ^= {burst}")
                if self.set:
                    sb.line("fl ^= _FM[bit % 5]")
            elif kind == 2:
                d = self.xmm_dest[i]
                sb.line(f"xm[{d}] = _mach._b2f(_mach._f2b(xm[{d}])"
                        f" ^ {burst})")
            else:
                sb.line("fl ^= _FM[bit % 5]")
                if self.set:
                    sb.line("fl ^= _FM[(bit + 1) % 5]")
        sb.line("inj += 1")

    def emit_cf_site(self, sb: SourceBuilder, i: int, to_expr: str) -> None:
        """Control-flow injection site at a jmp/jcc/call chunk tail:
        counters are exact here (the chunk coalesce already ran and
        value sites carry no ``inj`` under cf), so a hit records the
        corrupted edge and exits to the driver, which re-enters at the
        redirect pc — through :func:`careful_until_leader` when the
        landing point is not a leader."""
        n = len(self.uops)
        with sb.block("if inj == tgt:"):
            sb.line("mc.injected = True")
            sb.line(f"_rd = bit % {n}")
            sb.line(f"mc._record_cf_edge({i}, {to_expr}, _rd)")
            sb.line("inj += 1")
            sb.line("return (2, _rd)")
        sb.line("inj += 1")

    def emit_tail(self, sb: SourceBuilder, chunks, leaders,
                  L: int, end: int, kind: str) -> None:
        """Chunk exit: counters are already exact when these lines run,
        so raises here need no fixup entries."""
        n = len(self.uops)
        if kind == "off":
            sb.line(f'raise _SimTrap("bad-jump", "pc={n}")')
            return
        if kind == "fall":
            sb.line(f"bb = {leaders[end]}")
            sb.line("continue")
            return
        i = end - 1
        u = self.uops[i]
        code = u[0]
        if code == JMP:
            if self.cf:
                self.emit_cf_site(sb, i, str(u[1]))
            sb.line(f"bb = {leaders[u[1]]}")
            sb.line("continue")
        elif code == JCC:
            t = leaders[u[1]]
            f = leaders[i + 1] if i + 1 < n else None
            if self.cf:
                # condition evaluated once, before the site check —
                # the fault corrupts the transfer, not the decision
                sb.line(f"_cv = {_CC_EXPR[u[2]]}")
                self.emit_cf_site(sb, i,
                                  f"({u[1]} if _cv else {i + 1})")
                cc = "_cv"
            else:
                cc = _CC_EXPR[u[2]]
            if f is None:
                # fall-through past program end: mirror the decoded
                # fetch failure
                with sb.block(f"if {cc}:"):
                    sb.line(f"bb = {t}")
                    sb.line("continue")
                sb.line(f'raise _SimTrap("bad-jump", "pc={n}")')
            else:
                sb.line(f"bb = {t} if {cc} else {f}")
                sb.line("continue")
        elif code == CALL:
            nxt = i + 1
            sb.line(f"_sp = (rg[{_RSP}] - 8) & M")
            with sb.block(f"if _sp < {self.stack_limit} "
                          f"or _sp + 8 > {self.hi}:"):
                sb.line(f'raise _SimTrap("stack-overflow", '
                        f'"call at pc={i}")')
            sb.line("dp += 1")
            with sb.block("if dp > mxd:"):
                sb.line('raise _SimTrap("stack-overflow", '
                        f'f"call depth {{mxd}} exceeded at pc={i}")')
            self.emit_widen(sb, "_sp", 8)
            spq = self.struct_fn("sp", "Q", "pack_into")
            sb.line(f"{spq}(md, _sp, {nxt})")
            sb.line(f"rg[{_RSP}] = _sp")
            if self.cf:
                self.emit_cf_site(sb, i, str(u[1]))
            sb.line(f"bb = {leaders[u[1]]}")
            sb.line("continue")
        elif code == RET:
            upq = self.struct_fn("up", "Q", "unpack_from")
            sb.line(f"_sp = rg[{_RSP}]")
            with sb.block(f"if _sp < {self.lo} or _sp + 8 > {self.hi}:"):
                sb.line('raise _SimTrap("segfault", '
                        'f"ret with rsp={_sp:#x}")')
            sb.line(f"_ra = {upq}(md, _sp)[0]")
            sb.line(f"rg[{_RSP}] = (_sp + 8) & M")
            with sb.block(f"if _ra == {_SENTINEL_RET}:"):
                sb.line("return (1,)")
            with sb.block(f"if _ra >= {n}:"):
                sb.line('raise _SimTrap("bad-jump", f"ret to {_ra:#x}")')
            sb.line("dp -= 1")
            sb.line("_k = _L.get(_ra)")
            with sb.block("if _k is None:"):
                sb.line("return (2, _ra)")
            sb.line("bb = _k")
            sb.line("continue")
        elif code == UD2:
            # the raising line below is the UD2 "execution" itself —
            # counters already include it
            sb.line(f'raise _SimTrap("unreachable", "ud2 at pc={i}")')
        else:  # pragma: no cover
            raise ReproError(f"bad chunk terminator uop {code}")

    def _register(self, first: int, stop: int,
                  s_off: int, inj_off: int, pc: int) -> None:
        for ln in range(first, stop):
            self.fix[ln] = (s_off, inj_off, pc)

    def emit_chunk(self, sb: SourceBuilder, chunks, leaders, k: int) -> None:
        L, end, kind = chunks[k]
        inj_kind = self.inj_kind
        span_len = end - L
        body_end = end - 1 if kind == "ctl" else end
        ninj = sum(1 for i in range(L, end) if inj_kind[i])
        if kind == "ctl" and inj_kind[end - 1]:  # pragma: no cover
            raise ReproError("control uop with injectable destination")
        with sb.block(f"if s + {span_len} > ms:"):
            sb.line(f"return (0, {L})")
        if ninj:
            with sb.block(f"if inj <= tgt < inj + {ninj}:"):
                for i in range(L, body_end):
                    sb.line("s += 1")
                    first = sb.next_lineno
                    self.emit_uop(sb, i)
                    # registered so a stray OverflowError converts to
                    # the same SimTrap the decoded tier raises; the
                    # counters are already exact (offsets 0)
                    self._register(first, sb.next_lineno, 0, 0, i)
                    if inj_kind[i]:
                        self.emit_flip(sb, i)
                if kind == "ctl":
                    sb.line("s += 1")
                self.emit_tail(sb, chunks, leaders, L, end, kind)
        npre = 0
        for pos, i in enumerate(range(L, body_end)):
            first = sb.next_lineno
            self.emit_uop(sb, i)
            self._register(first, sb.next_lineno, pos + 1, npre, i)
            if inj_kind[i]:
                npre += 1
        sb.line(f"s += {span_len}")
        if ninj:
            sb.line(f"inj += {ninj}")
        self.emit_tail(sb, chunks, leaders, L, end, kind)

    def emit(self, sb: SourceBuilder, chunks, leaders) -> None:
        sb.line("def _asm(mc, st, c, bb):")
        sb.indent()
        for pre in ("rg = st.regs", "xm = st.xmm", "md = st.data",
                    "mem = st.mem", "LE = mem.lo_end", "HS = mem.hi_start",
                    "out = st.outputs", "fl = st.fl", "dp = st.depth",
                    "mxd = st.max_depth", "ms = mc.max_steps",
                    "s = c[0]", "inj = c[1]", "tgt = c[2]", "bit = c[3]"):
            sb.line(pre)
        sb.line("try:")
        sb.indent()
        sb.line("while 1:")
        sb.indent()

        def emit_tree(lo: int, hi: int) -> None:
            if hi - lo == 1:
                self.emit_chunk(sb, chunks, leaders, lo)
            elif hi - lo == 2:
                with sb.block(f"if bb == {lo}:"):
                    self.emit_chunk(sb, chunks, leaders, lo)
                with sb.block("else:"):
                    self.emit_chunk(sb, chunks, leaders, lo + 1)
            else:
                mid = (lo + hi) // 2
                with sb.block(f"if bb < {mid}:"):
                    emit_tree(lo, mid)
                with sb.block("else:"):
                    emit_tree(mid, hi)

        emit_tree(0, len(chunks))
        sb.dedent()  # while
        sb.dedent()  # try
        sb.line("except OverflowError as e:")
        sb.indent()
        sb.line("_o = _FIX.get(e.__traceback__.tb_lineno)")
        with sb.block("if _o is not None:"):
            sb.line("s += _o[0]; inj += _o[1]")
            sb.line("raise _SimTrap('overflow', 'pc=%d' % _o[2]) from None")
        sb.line("raise")
        sb.dedent()
        sb.line("except BaseException as e:")
        sb.indent()
        sb.line("_o = _FIX.get(e.__traceback__.tb_lineno)")
        with sb.block("if _o is not None:"):
            sb.line("s += _o[0]; inj += _o[1]")
        sb.line("raise")
        sb.dedent()
        sb.line("finally:")
        sb.indent()
        sb.line("c[0] = s; c[1] = inj")
        sb.line("st.fl = fl")
        sb.line("st.depth = dp")
        sb.dedent()
        sb.dedent()  # def


def _generate(program: CompiledProgram, mem: Memory,
              fault_model: str = "seu") -> CodegenProgram:
    dp = decode_program(program, mem)
    chunks, leaders = _find_chunks(program.uops, program.entry_index)
    em = _Emitter(program, dp, mem.global_base, mem.size, mem.stack_limit,
                  fault_model)
    em.env["_L"] = leaders
    sb = SourceBuilder()
    em.emit(sb, chunks, leaders)
    source = sb.source()
    code = compile_generated(
        source, f"<asm-codegen:{len(program.uops)}u"
                f"@{program.entry_index}>")
    exec(code, em.env)
    return CodegenProgram(program, em.env["_asm"], leaders, source, em.env)


def careful_until_leader(mc, st, dp: DecodedProgram,
                         leaders: Dict[int, int], c: List[int],
                         pc: int) -> int:
    """Single-step decoded closures from a non-leader ``pc`` (reachable
    only via a corrupted return address) until execution re-joins a
    leader; mirrors the decoded driver loop exactly, including the
    fault it applies (:meth:`AsmMachine._apply_fault`) and counter
    placement at every raise point."""
    fns = dp.fns
    inj_kind = (dp.program.cf_kind if mc.fault_model == "cf"
                else dp.program.inj_kind)
    max_steps = mc.max_steps
    steps = c[0]
    injectable = c[1]
    target = c[2]
    try:
        while True:
            if pc in leaders:
                return pc
            try:
                f = fns[pc]
            except IndexError:
                raise SimTrap("bad-jump", f"pc={pc}") from None
            kind = inj_kind[pc]
            steps += 1
            if steps > max_steps:
                raise SimTrap("step-budget",
                              f"exceeded {max_steps} steps")
            cur = pc
            try:
                pc = f(st)
            except OverflowError:
                raise SimTrap("overflow", f"pc={cur}") from None
            if kind:
                if injectable == target:
                    mc.injected = True
                    pc = mc._apply_fault(st, dp, cur, pc, kind)
                injectable += 1
    finally:
        c[0] = steps
        c[1] = injectable
