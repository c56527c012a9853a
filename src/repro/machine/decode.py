"""One-time decode pass: micro-ops -> bound Python closures.

Mirror of :mod:`repro.interp.decode` for the assembly machine: every
micro-op of a :class:`~repro.machine.machine.CompiledProgram` is
compiled once into a closure ``fn(st) -> next_pc`` with register
indices, immediates, memory geometry (bounds, stack limit) and
fall-through targets pre-bound, replacing the per-step ``code == ...``
ladder of the naive loop.

:class:`_Decoder` holds the one fast-tier statement of asm semantics:
:meth:`_Decoder.emit_uop` renders the straight-line body of each
non-control micro-op, and every uop-specific value it writes (operand
fields, interned constants, memory geometry, trap messages) goes
through a single rendering hook, :meth:`_Decoder.lit`.  The decoder's
hook writes a parameter name and collects the value; the codegen tier's
emitter (:mod:`repro.machine.codegen`) subclasses this class and writes
literals instead.  A body rendered with parameter names is a *template*:
each distinct template is compiled once per process into
``def _t(st, k0, ..., nxt)`` and instantiated per uop with that uop's
values as defaults.  Only the control uops (``JMP``, ``JCC``, ``CALL``,
``RET``, ``UD2``) keep hand-written closures.

Run state travels in an :class:`AsmState`: GPR/XMM register files
(lists, shared with the driver loop), the five status flags packed into
one integer (``zf | sf<<1 | of<<2 | cf<<3 | uf<<4``), the memory
bytearray, and the output list.  Flags-as-int makes an ALU flag write a
single store, and a FLAGS fault injection a single XOR.  Every store
(``MOV_MR``, ``MOV_MI``, ``MOVSD_MX``, ``PUSH``, ``CALL``) also keeps
the :class:`~repro.memorymodel.Memory` written extent, reached through
``st.mem``, covering what it writes (DESIGN §10).

``main`` returning through its sentinel return address raises
:class:`_Halt`, which the driver turns into a normal stop.

Decoding is cached on the program object, keyed by memory geometry, so
any number of :class:`~repro.machine.machine.AsmMachine` instances
(one per injection) share one decode.
"""

from __future__ import annotations

import re
import struct
from types import CodeType, FunctionType
from typing import Callable, Dict, List, Tuple

from ..errors import FaultDetected, ReproError, SimTrap
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
    _RT_DETECT, _RT_MATH1, _RT_PRINT_CHAR, _RT_PRINT_F64, _RT_PRINT_I64,
    _XMM_INDEX,
    CompiledProgram, _sx,
)

__all__ = ["AsmState", "DecodedProgram", "decode_program", "_Halt"]

_M64 = _MASK64
_CONTROL = frozenset((JMP, JCC, CALL, RET, UD2))
_PACK_Q = struct.Struct("<Q")
_INF = float("inf")
_NINF = float("-inf")

# condition-code expressions over the packed flag local `fl`
# (zf | sf<<1 | of<<2 | cf<<3 | uf<<4), index == cc id; the FP codes
# are all false when unordered (uf, bit 4)
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

# struct codes per access size; asm GPR loads are raw little-endian
# unsigned
_U_FMT = {1: "B", 2: "H", 4: "I", 8: "Q"}

#: globals of every decoded template (codegen's env starts from a copy)
_ENV: dict = {
    "_SimTrap": SimTrap,
    "_FaultDetected": FaultDetected,
    "M": _MASK64,
    "_ifb": int.from_bytes,
    "_fi64": format_i64,
    "_ff64": format_f64,
    "_fch": format_char,
    "_nan": float("nan"),
    "_inf": _INF,
    "_ninf": _NINF,
}


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


# -- templates: one compiled function per distinct body ------------------

#: (parameter count, body) -> code of ``def _t(st, k0, ..., lo, hi, sl, nxt)``
_TEMPLATES: Dict[Tuple[int, str], CodeType] = {}
#: uop (or uop, lo, hi) -> (template code, values): renderings repeat
#: within a program and across its builds
_RENDERED: Dict[tuple, Tuple[CodeType, tuple]] = {}
_RENDERED_MAX = 1 << 14
_PARAMS = [f"k{j}" for j in range(16)]

_WORD = re.compile(r"\w+")
_READS_FL = re.compile(r"\bfl\b(?! = )")
_WRITES_FL = re.compile(r"^ *fl = ", re.M)
# state a body may touch -> the prologue line that binds it
_PROLOGUE = (
    ("rg", "    rg = st.regs\n"),
    ("xm", "    xm = st.xmm\n"),
    ("md", "    md = st.data\n"),
    ("mem", "    mem = st.mem\n    LE = mem.lo_end\n    HS = mem.hi_start\n"),
    ("out", "    out = st.outputs\n"),
)


def _template(nparams: int, body: str) -> CodeType:
    """Compile ``body`` (lines at indent zero) into a function of the run
    state, its parameters and the memory geometry that returns ``nxt``;
    the prologue binds only the state the body touches, and a body that
    assigns the flag local writes it back."""
    code = _TEMPLATES.get((nparams, body))
    if code is not None:
        return code
    words = set(_WORD.findall(body))
    src = ["def _t(st, ", "".join(f"k{j}, " for j in range(nparams)),
           "lo, hi, sl, nxt):\n"]
    src += [line for name, line in _PROLOGUE if name in words]
    if _READS_FL.search(body):
        src.append("    fl = st.fl\n")
    src += [f"    {line}\n" for line in body.split("\n")]
    if _WRITES_FL.search(body):
        src.append("    st.fl = fl\n")
    src.append("    return nxt\n")
    module = compile("".join(src), "<asm-decode>", "exec")
    code = _TEMPLATES[(nparams, body)] = next(
        c for c in module.co_consts if isinstance(c, CodeType))
    return code


#: JCC closures: ``return target if <cc> else nxt``, one per condition
_JCC = [_template(1, f"return k0 if {e} else nxt") for e in _CC_EXPR]


class _Decoder:
    """Per-uop straight-line bodies over the ``rg``/``xm``/``md``/
    ``fl``/``out`` locals and the ``LE``/``HS`` extent bounds.

    Python decisions on constant values (a constant address in or out of
    bounds, the access size, a float that round-trips through ``repr``)
    choose a body's shape; every value the body itself needs goes
    through :meth:`lit`."""

    def __init__(self, uops: List[tuple], lo: int, hi: int,
                 stack_limit: int, env: dict = _ENV):
        self.uops = uops
        self.lo = lo
        self.hi = hi
        self.stack_limit = stack_limit
        self.env = env
        self.vals: list = []
        self.by_bounds = False
        #: the geometry's source text, rendered once
        self.lo_src = self.lit(lo, geo="lo")
        self.hi_src = self.lit(hi, geo="hi")
        self.sl_src = self.lit(stack_limit, geo="sl")

    # -- the rendering hook ----------------------------------------------

    def lit(self, value, text: str = None, intern: tuple = None,
            geo: str = None) -> str:
        """Source text for one uop-specific ``value``.  Here: a fresh
        parameter name, the value collected as its default; or, for the
        memory geometry, its ``geo`` name (``lo``, ``hi``, ``sl``),
        bound per decode.  The codegen emitter writes ``text`` (default
        ``str(value)``) or, for a value with no literal spelling, an env
        name interned under ``intern``."""
        if geo is not None:
            return geo
        vals = self.vals
        vals.append(value)
        return _PARAMS[len(vals) - 1]

    def const(self, tag: str, key, value) -> str:
        return self.lit(value, intern=(tag, key))

    def msg(self, text: str) -> str:
        """A constant trap message, as a string literal."""
        return self.lit(text, f'"{text}"')

    def outside(self, addr: int, size: int) -> bool:
        """Shape decision: a constant-address access leaves memory."""
        self.by_bounds = True
        return addr < self.lo or addr + size > self.hi

    def render(self, i: int) -> Tuple[CodeType, tuple]:
        """Template and values of non-control uop ``i``, memoized by the
        uop, or by the uop and the bounds when a constant address was
        checked against them.  Never memoized: PUSH, whose trap message
        names its pc, and a zero MOVSD_XI (``0.0 == -0.0`` would
        alias)."""
        u = self.uops[i]
        bounded = (u, self.lo, self.hi)
        hit = _RENDERED.get(bounded)
        if hit is not None:
            return hit
        self.vals = []
        self.by_bounds = False
        lines: List[str] = []
        self.emit_uop(lines.append, i)
        hit = (_template(len(self.vals), "\n".join(lines)), tuple(self.vals))
        if u[0] != PUSH and not (u[0] == MOVSD_XI and u[2] == 0):
            if len(_RENDERED) >= _RENDERED_MAX:
                _RENDERED.clear()
            _RENDERED[bounded if self.by_bounds else u] = hit
        return hit

    # -- env interning ---------------------------------------------------

    def struct_fn(self, prefix: str, fmt: str, method: str) -> str:
        name = f"_{prefix}{fmt}"
        if name not in self.env:
            self.env[name] = getattr(struct.Struct("<" + fmt), method)
        return name

    # -- per-uop bodies --------------------------------------------------

    def sx_line(self, var: str) -> str:
        return (f"{var} = {var} - {_SX_WRAP} "
                f"if {var} >= {_SX_MAX} else {var}")

    def emit_bounds(self, line: Callable, size: int, what: str) -> None:
        """Dynamic-address bounds check over the `_a` local."""
        line(f"if _a < {self.lo_src} or _a + {size} > {self.hi_src}:")
        line(f'    raise _SimTrap("segfault", f"{what} {{_a:#x}}")')

    def emit_gpr_read(self, line: Callable, dest: str, size: int) -> None:
        """`dest = <size>-byte unsigned load at _a` (bounds already
        checked)."""
        fmt = _U_FMT.get(size)
        if fmt is not None:
            up = self.struct_fn("up", fmt, "unpack_from")
            line(f"{dest} = {up}(md, _a)[0]")
        else:
            line(f"{dest} = _ifb(md[_a:_a + {size}], 'little')")

    def emit_widen(self, line: Callable, addr: str, size: int) -> None:
        """Keep the memory's written extent covering a store at
        ``addr`` (bounds already checked): one or two compares against
        the ``LE``/``HS`` locals, refreshed whenever the extent grows."""
        line(f"if {addr} < HS and {addr} + {size} > LE: "
             f"LE, HS = mem.widen({addr}, {size})")

    def emit_gpr_write(self, line: Callable, src: str, size: int) -> None:
        mask = (1 << (8 * size)) - 1
        fmt = _U_FMT.get(size)
        if fmt is not None:
            sp = self.struct_fn("sp", fmt, "pack_into")
            line(f"{sp}(md, _a, {src} & {mask})")
        else:
            line(f"md[_a:_a + {size}] = "
                 f"(({src}) & {mask}).to_bytes({size}, 'little')")

    def emit_flags_zs(self, line: Callable) -> None:
        line("fl = (1 if _r == 0 else 0) | ((_r >> 63) << 1)")

    def emit_sub_flags(self, line: Callable) -> None:
        line("fl = ((1 if _r == 0 else 0) | ((_r >> 63) << 1)"
             " | (((_x ^ _y) & (_x ^ _r)) >> 63 & 1) << 2"
             " | (8 if _x < _y else 0))")

    def emit_uop(self, line: Callable, i: int) -> None:
        """Straight-line source for uop ``i``, one ``line(text)`` call
        per source line, block bodies indented relative to the uop
        (counters/flips excluded; control uops are chunk tails and never
        come through here)."""
        u = self.uops[i]
        code = u[0]
        lit = self.lit
        if code == MOV_RR:
            line(f"rg[{lit(u[1])}] = rg[{lit(u[2])}]")
        elif code == MOV_RI:
            line(f"rg[{lit(u[1])}] = {lit(u[2])}")
        elif code == MOV_RM:
            d, base, disp, size = u[1], u[2], u[3], u[4]
            if base < 0:
                addr = disp & _M64
                if self.outside(addr, size):
                    line('raise _SimTrap("segfault", '
                         f'{self.msg(f"read {size} at {addr:#x}")})')
                else:
                    line(f"_a = {lit(addr)}")
                    self.emit_gpr_read(line, f"rg[{lit(d)}]", size)
            else:
                line(f"_a = ({lit(disp)} + rg[{lit(base)}]) & M")
                self.emit_bounds(line, size, f"read {size} at")
                self.emit_gpr_read(line, f"rg[{lit(d)}]", size)
        elif code == MOV_MR:
            base, disp, s, size = u[1], u[2], u[3], u[4]
            if base < 0:
                addr = disp & _M64
                if self.outside(addr, size):
                    line('raise _SimTrap("segfault", '
                         f'{self.msg(f"write {size} at {addr:#x}")})')
                else:
                    line(f"_a = {lit(addr)}")
                    self.emit_widen(line, "_a", size)
                    self.emit_gpr_write(line, f"rg[{lit(s)}]", size)
            else:
                line(f"_a = ({lit(disp)} + rg[{lit(base)}]) & M")
                self.emit_bounds(line, size, f"write {size} at")
                self.emit_widen(line, "_a", size)
                self.emit_gpr_write(line, f"rg[{lit(s)}]", size)
        elif code == MOV_MI:
            base, disp, v, size = u[1], u[2], u[3], u[4]
            payload = (v & ((1 << (8 * size)) - 1)).to_bytes(size, "little")
            pl = self.const("pl", payload, payload)
            if base < 0:
                addr = disp & _M64
                if self.outside(addr, size):
                    line('raise _SimTrap("segfault", '
                         f'{self.msg(f"write {size} at {addr:#x}")})')
                else:
                    a = lit(addr)
                    self.emit_widen(line, a, size)
                    line(f"md[{a}:{lit(addr + size)}] = {pl}")
            else:
                line(f"_a = ({lit(disp)} + rg[{lit(base)}]) & M")
                self.emit_bounds(line, size, f"write {size} at")
                self.emit_widen(line, "_a", size)
                line(f"md[_a:_a + {size}] = {pl}")
        elif code == MOVSD_XX:
            line(f"xm[{lit(u[1])}] = xm[{lit(u[2])}]")
        elif code == MOVSD_XI:
            d, v = lit(u[1]), u[2]
            if v == v and v not in (_INF, _NINF) and float(repr(v)) == v:
                line(f"xm[{d}] = {lit(v, repr(v))}")
            else:
                line(f"xm[{d}] = "
                     f"{self.const('xc', struct.pack('<d', v), v)}")
        elif code == MOVSD_XM:
            d, base, disp = u[1], u[2], u[3]
            up = self.struct_fn("up", "d", "unpack_from")
            if base < 0:
                addr = disp & _M64
                if self.outside(addr, 8):
                    line('raise _SimTrap("segfault", '
                         f'{self.msg(f"fp read at {addr:#x}")})')
                else:
                    line(f"xm[{lit(d)}] = {up}(md, {lit(addr)})[0]")
            else:
                line(f"_a = ({lit(disp)} + rg[{lit(base)}]) & M")
                self.emit_bounds(line, 8, "fp read at")
                line(f"xm[{lit(d)}] = {up}(md, _a)[0]")
        elif code == MOVSD_MX:
            base, disp, s = u[1], u[2], u[3]
            sp = self.struct_fn("sp", "d", "pack_into")
            if base < 0:
                addr = disp & _M64
                if self.outside(addr, 8):
                    line('raise _SimTrap("segfault", '
                         f'{self.msg(f"fp write at {addr:#x}")})')
                else:
                    a = lit(addr)
                    self.emit_widen(line, a, 8)
                    line(f"{sp}(md, {a}, xm[{lit(s)}])")
            else:
                line(f"_a = ({lit(disp)} + rg[{lit(base)}]) & M")
                self.emit_bounds(line, 8, "fp write at")
                self.emit_widen(line, "_a", 8)
                line(f"{sp}(md, _a, xm[{lit(s)}])")
        elif code == LEA:
            d, base, disp = u[1], u[2], u[3]
            if base < 0:
                line(f"rg[{lit(d)}] = {lit(disp & _M64)}")
            else:
                line(f"rg[{lit(d)}] = ({lit(disp)} + rg[{lit(base)}]) & M")
        elif code in (ADD_RR, ADD_RI):
            d = lit(u[1])
            line(f"_x = rg[{d}]")
            line(f"_y = rg[{lit(u[2])}]" if code == ADD_RR
                 else f"_y = {lit(u[2])}")
            line("_t = _x + _y")
            line("_r = _t & M")
            line(f"rg[{d}] = _r")
            line("fl = ((1 if _r == 0 else 0) | ((_r >> 63) << 1)"
                 " | (((~(_x ^ _y)) & (_x ^ _r)) >> 63 & 1) << 2"
                 " | (_t >> 64) << 3)")
        elif code in (SUB_RR, SUB_RI):
            d = lit(u[1])
            line(f"_x = rg[{d}]")
            line(f"_y = rg[{lit(u[2])}]" if code == SUB_RR
                 else f"_y = {lit(u[2])}")
            line("_r = (_x - _y) & M")
            line(f"rg[{d}] = _r")
            self.emit_sub_flags(line)
        elif code in (IMUL_RR, IMUL_RI):
            d = lit(u[1])
            line(f"_x = rg[{d}]")
            line(self.sx_line("_x"))
            if code == IMUL_RR:
                line(f"_y = rg[{lit(u[2])}]")
                line(self.sx_line("_y"))
            else:
                line(f"_y = {lit(_sx(u[2]))}")
            line("_r = (_x * _y) & M")
            line(f"rg[{d}] = _r")
            self.emit_flags_zs(line)
        elif code in (AND_RR, AND_RI, OR_RR, OR_RI, XOR_RR, XOR_RI):
            d = lit(u[1])
            op = ("&" if code in (AND_RR, AND_RI)
                  else "|" if code in (OR_RR, OR_RI) else "^")
            rhs = f"rg[{lit(u[2])}]" if code in (AND_RR, OR_RR, XOR_RR) \
                else lit(u[2])
            line(f"_r = rg[{d}] {op} {rhs}")
            line(f"rg[{d}] = _r")
            self.emit_flags_zs(line)
        elif code in (SHL_RC, SHL_RI, SAR_RC, SAR_RI, SHR_RC, SHR_RI):
            d = lit(u[1])
            n_expr = (f"rg[{_RCX}] & 63"
                      if code in (SHL_RC, SAR_RC, SHR_RC)
                      else lit(u[2] & 63))
            if code in (SHL_RC, SHL_RI):
                line(f"_r = (rg[{d}] << ({n_expr})) & M")
            elif code in (SAR_RC, SAR_RI):
                line(f"_x = rg[{d}]")
                line(self.sx_line("_x"))
                line(f"_r = (_x >> ({n_expr})) & M")
            else:
                line(f"_r = rg[{d}] >> ({n_expr})")
            line(f"rg[{d}] = _r")
            self.emit_flags_zs(line)
        elif code == IDIV:
            line(f"_y = rg[{lit(u[1])}]")
            line(self.sx_line("_y"))
            line("if _y == 0:")
            line('    raise _SimTrap("div-by-zero")')
            line(f"_x = rg[{_RAX}]")
            line(self.sx_line("_x"))
            line("_q = abs(_x) // abs(_y)")
            line("if (_x < 0) != (_y < 0):")
            line("    _q = -_q")
            line(f"rg[{_RAX}] = _q & M")
            line(f"rg[{_RDX}] = (_x - _q * _y) & M")
            line("fl = 0")
        elif code in (CMP_RR, CMP_RI):
            line(f"_x = rg[{lit(u[1])}]")
            line(f"_y = rg[{lit(u[2])}]" if code == CMP_RR
                 else f"_y = {lit(u[2])}")
            line("_r = (_x - _y) & M")
            self.emit_sub_flags(line)
        elif code == TEST_RR:
            line(f"_r = rg[{lit(u[1])}] & rg[{lit(u[2])}]")
            self.emit_flags_zs(line)
        elif code == SETCC:
            line(f"rg[{lit(u[1])}] = {_CC_EXPR[u[2]]}")
        elif code == CMOV:
            line(f"if {_CC_EXPR[u[3]]}:")
            line(f"    rg[{lit(u[1])}] = rg[{lit(u[2])}]")
        elif code == CALLRT:
            kind, payload = u[1], u[2]
            if kind == _RT_PRINT_I64:
                line(f"_v = rg[{_RDI}]")
                line(self.sx_line("_v"))
                line('out.append(_fi64(_v) + "\\n")')
            elif kind == _RT_PRINT_F64:
                line('out.append(_ff64(xm[0]) + "\\n")')
            elif kind == _RT_PRINT_CHAR:
                line(f"out.append(_fch(rg[{_RDI}]))")
            elif kind == _RT_DETECT:
                line('raise _FaultDetected("checker")')
            elif kind == _RT_MATH1:
                name = self.const("mt", id(payload), payload)
                line(f"xm[0] = {name}(xm[0])")
            else:
                name = self.const("mt", id(payload), payload)
                line(f"xm[0] = {name}(xm[0], xm[1])")
        elif code == PUSH:
            line(f"_sp = (rg[{_RSP}] - 8) & M")
            line(f"if _sp < {self.sl_src} or _sp + 8 > {self.hi_src}:")
            line('    raise _SimTrap("stack-overflow", '
                 f'{self.msg(f"push at pc={i}")})')
            self.emit_widen(line, "_sp", 8)
            spq = self.struct_fn("sp", "Q", "pack_into")
            line(f"{spq}(md, _sp, rg[{lit(u[1])}])")
            line(f"rg[{_RSP}] = _sp")
        elif code == POP:
            line(f"_sp = rg[{_RSP}]")
            line(f"if _sp < {self.lo_src} or _sp + 8 > {self.hi_src}:")
            line('    raise _SimTrap("segfault", f"pop with rsp={_sp:#x}")')
            upq = self.struct_fn("up", "Q", "unpack_from")
            line(f"rg[{lit(u[1])}] = {upq}(md, _sp)[0]")
            line(f"rg[{_RSP}] = (_sp + 8) & M")
        elif code in (ADDSD, SUBSD, MULSD):
            op = "+" if code == ADDSD else "-" if code == SUBSD else "*"
            d = lit(u[1])
            line(f"xm[{d}] = xm[{d}] {op} xm[{lit(u[2])}]")
        elif code == DIVSD:
            d = lit(u[1])
            line(f"_x = xm[{d}]")
            line(f"_y = xm[{lit(u[2])}]")
            line("if _y == 0.0:")
            line(f"    xm[{d}] = _nan if _x == 0.0 or _x != _x "
                 "else (_inf if _x > 0 else _ninf)")
            line("else:")
            line(f"    xm[{d}] = _x / _y")
        elif code == UCOMISD:
            line(f"_x = xm[{lit(u[1])}]")
            line(f"_y = xm[{lit(u[2])}]")
            line("if _x != _x or _y != _y:")
            line("    fl = 25")
            line("else:")
            line("    fl = (1 if _x == _y else 0) | (8 if _x < _y else 0)")
        elif code == CVTSI2SD:
            line(f"_v = rg[{lit(u[2])}]")
            line(self.sx_line("_v"))
            line(f"xm[{lit(u[1])}] = float(_v)")
        elif code == CVTTSD2SI:
            s = lit(u[2])
            d = lit(u[1])
            line(f"_v = xm[{s}]")
            line("if _v != _v or _v == _inf or _v == _ninf:")
            line(f"    rg[{d}] = 0")
            line("else:")
            line(f"    rg[{d}] = int(_v) & M")
        else:  # control uops are chunk tails / hand-written closures
            raise ReproError(f"cannot generate code for uop {code}")


def _always_trap(kind: str, detail: str):
    def f(st):
        raise SimTrap(kind, detail)
    return f


def _decode(program: CompiledProgram, lo: int, hi: int,
            stack_limit: int) -> DecodedProgram:
    uops = program.uops
    n_insts = len(uops)
    bodies = _Decoder(uops, lo, hi, stack_limit)
    rendered = _RENDERED
    fns: List[Callable] = []

    for i, u in enumerate(uops):
        nxt = i + 1
        code = u[0]
        hit = rendered.get(u)
        if hit is None and code not in _CONTROL:
            hit = bodies.render(i)
        if hit is not None:
            # a non-control uop: its template, instantiated with its
            # values, the geometry and the fall-through as defaults
            f = FunctionType(hit[0], _ENV, None,
                             hit[1] + (lo, hi, stack_limit, nxt))
        elif code == JMP:
            def f(st, t=u[1]):
                return t
        elif code == JCC:
            f = FunctionType(_JCC[u[2]], _ENV, None,
                             (u[1], lo, hi, stack_limit, nxt))
        elif code == CALL:
            def f(st, t=u[1], nxt=nxt, cur=i):
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
        else:
            f = _always_trap("unreachable", f"ud2 at pc={i}")

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
