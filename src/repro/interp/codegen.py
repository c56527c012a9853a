"""Program-specialized codegen backend for the IR interpreter.

Third dispatch tier (``dispatch="codegen"``): instead of stepping
pre-decoded closures (one Python call per dynamic instruction), this
module emits specialized Python source functions for each IR function —
operands, constants and global addresses inlined as literals, temps held
in Python locals where liveness allows — and ``exec``-compiles them
once per (module, layout), cached by the same content fingerprint the
decode cache uses (so in-place module mutation invalidates generated
code exactly when it invalidates the closures).

Shape of the generated code
---------------------------

A *chunk* is a basic block split at real call sites and after every
:data:`UNIT_INSTS` instructions, so every chunk is straight-line.  Each
IR function's chunks are grouped into compile units
(:func:`repro.simgen.compile_units`): contiguous chunk ranges of at
most :data:`UNIT_INSTS` instructions, each one generated function
``def _gN_K(ip, fr, c, bb)`` structured as a ``while 1`` + chunk
ladder.  Branches inside the unit stay there (``bb = K; continue``);
a branch to another unit, calls and returns unwind to a small
trampoline loop in :class:`~repro.interp.interpreter.IRInterpreter`
(no host recursion — simulated call depth is bounded by
``max_call_depth``, far beyond Python's recursion limit).  Action
tuples returned to the driver:

* ``(1, rv)``   — ``ret``.
* ``(2, dfn, args, ret_iid, flip_bit, after_bb)`` — call.
* ``(4,)``      — the one exceptional exit: the frame has been
  positioned at the chunk start and the careful stepper runs the chunk.
* ``(5, bb)``   — the transfer left the unit: continue at chunk ``bb``
  of the same function.

Each chunk is emitted once, with loads/stores inlined (no helper call)
and both counters coalesced into a single ``dt += N; inj += M`` at the
chunk exit.  One test guards the chunk entry, ``dt + N > ms or inj <=
tgt < inj + M`` (the second clause only where the chunk has sites):
when the step budget could expire inside the chunk, or the chunk holds
the injection target, the chunk goes to the careful stepper — the
decoded loop run with the function's chunk map
(:meth:`~repro.interp.interpreter.IRInterpreter._run_decoded`), which
steps its entries with exact counters, raises the step-budget trap at
the instruction naive raises it, applies the one fault of the run, and
returns at the chunk's closing control transfer, where generated code
takes over again.  The generator therefore states no per-site injection
semantics of its own: which instruction is a site and which call pushes
a frame are read from the kinds of the decoded entries
(:mod:`repro.interp.decode`), so generated code and the decoded loop
cannot disagree on which instruction allocates an index.

Bit-identity contract
---------------------

Counters follow exactly the decoded loop's order and are written back
through the carrier ``c`` in a ``finally`` — so at *every* possible
raise point (traps, checker detections, containment budgets, host
escapes out of a corrupted step) they match the naive and decoded tiers
bit-for-bit.  Chunks keep this exact despite coalescing via a
raise-site fixup table per unit: every generated line is mapped to its
``(dt, inj)`` offsets from the chunk entry, and an ``except`` arm in
the generated function looks up the faulting line number in the
traceback and repairs the counters before re-raising.  The careful
stepper reads ``_flip_value``/``_set_value`` from the interpreter
module at run time, so the chaos harness's fault bombs reach codegen
runs too.

Runs that need snapshots or taps delegate to the decoded loop
(bit-identical by the equivalence suite); resuming *from* a snapshot
runs generated code, entering through the careful stepper when the
snapshot stopped mid-chunk.  Inlined stores keep the memory's written
extent (DESIGN §10) covering what they write through the ``LE``/``HS``
bound locals each function hoists at entry.

Fault models (DESIGN §14): generation depends only on the fault model's
site rule and is cached per (module, layout, site rule), so SEU and SET
share one generated module; they differ only in the corruption the
careful stepper applies.  Under the control-flow model value sites
vanish (the exit tests only the budget, no ``inj`` accounting
mid-chunk) and the ``br``/``condbr`` tails become the injection sites:
each allocates one index and, on a hit, records the corrupted edge and
continues, through the trampoline, at a uniformly drawn block-entry
chunk of the current function.
"""

from __future__ import annotations

import itertools
import struct
import weakref
from typing import Dict, List, Set, Tuple

from ..errors import FaultDetected, IRError, SimTrap
from ..ir.instructions import Instruction
from ..ir.intrinsics import (
    DETECT,
    INTRINSICS,
    PRINT_CHAR,
    PRINT_F64,
    PRINT_I64,
    math_impl,
)
from ..ir.module import Function, Module
from ..ir.values import Argument, Constant, GlobalVariable, Value
from ..simgen import SourceBuilder, compile_units
from .decode import (
    K_CALL0,
    K_CALL1,
    K_VALUE,
    DecodedFunction,
    DecodedModule,
    _Decoder,
    _PACK_F64,
    _fingerprint,
    decode_module,
)
from .layout import GlobalLayout

__all__ = ["CodegenFunction", "CodegenModule", "codegen_module",
           "cached_codegen", "release_codegen", "UNIT_INSTS"]

#: compile-unit budget: no chunk and no unit holds more IR instructions
UNIT_INSTS = 60

_TERMINATORS = frozenset(("br", "condbr", "ret", "unreachable"))
#: entry kinds of the value rule that allocate an injectable index, and
#: those that push a simulated frame (:mod:`repro.interp.decode`)
_SITES = (K_VALUE, K_CALL1)
_REAL_CALLS = (K_CALL0, K_CALL1)


class CodegenFunction:
    """Generated callables plus the chunk map needed to (re-)enter them."""

    __slots__ = ("fn", "units", "entry_bb", "unit_sizes")

    def __init__(self, fn: Function, units: List,
                 entry_bb: Dict[Tuple[object, int], int],
                 unit_sizes: Tuple[int, ...]):
        self.fn = fn
        #: chunk id -> the generated function of the unit holding it
        self.units = units
        #: (block, instruction index) -> chunk id, for every chunk
        #: boundary: block starts, after-call positions and cut points
        self.entry_bb = entry_bb
        #: IR instructions per compile unit
        self.unit_sizes = unit_sizes


class CodegenModule:
    """Module-wide codegen result, cached like the decode cache."""

    __slots__ = ("module", "dm", "functions", "env")

    def __init__(self, module: Module, dm: DecodedModule,
                 functions: Dict[Function, CodegenFunction], env: dict):
        self.module = module
        self.dm = dm
        self.functions = functions
        self.env = env

    @property
    def unit_sizes(self) -> Tuple[int, ...]:
        """IR instructions per compile unit, over every function."""
        return tuple(n for gf in self.functions.values()
                     for n in gf.unit_sizes)


_CACHE: "weakref.WeakKeyDictionary[Module, tuple]" = \
    weakref.WeakKeyDictionary()


def codegen_module(module: Module, layout: GlobalLayout,
                   fault_model: str = "seu") -> CodegenModule:
    """Generate (cached) specialized code for ``module``; regenerates if
    the module was mutated in place or the layout moved — same
    invalidation rule (and fingerprint) as :func:`decode_module`.  Like
    the decode cache, it keeps one generated module per site rule: SEU
    and SET share the value sites, cf has the branch sites."""
    cf = fault_model == "cf"
    fp = _fingerprint(module)
    cached = _CACHE.get(module)
    if cached is not None:
        lay, cached_fp, by_rule = cached
        if cached_fp == fp and (
            lay is layout or lay.addresses == layout.addresses
        ):
            gm = by_rule.get(cf)
            if gm is None:
                gm = by_rule[cf] = _generate(module, layout, fault_model)
            return gm
    gm = _generate(module, layout, fault_model)
    _CACHE[module] = (layout, fp, {cf: gm})
    return gm


def cached_codegen(module: Module) -> Tuple[CodegenModule, ...]:
    """Every generated module the cache holds for ``module``."""
    cached = _CACHE.get(module)
    return () if cached is None else tuple(cached[2].values())


def release_codegen(module: Module, keep: Tuple[CodegenModule, ...]) -> None:
    """Drop every generated module cached for ``module`` that is not in
    ``keep`` (what :func:`cached_codegen` returned earlier)."""
    cached = _CACHE.get(module)
    if cached is None:
        return
    by_rule = cached[2]
    for rule, gm in list(by_rule.items()):
        if not any(gm is k for k in keep):
            del by_rule[rule]
    if not by_rule:
        del _CACHE[module]


class _Emitter(_Decoder):
    """Reuses the decoder's operand/expression machinery to emit source
    statements instead of compiling closures."""

    def __init__(self, module: Module, layout: GlobalLayout, cf: bool):
        # cf rule: value sites vanish, br/condbr tails inject
        super().__init__(module, layout, cf)
        #: raise-site fixup table of the unit being emitted: generated
        #: source line number -> (dt, inj) offsets from the chunk
        #: entry, for chunk lines whose counter updates are coalesced
        #: at the chunk exit
        self.fix: Dict[int, Tuple[int, int]] = {}
        #: chunk range of the unit being emitted
        self.unit = (0, 0)
        self.env.update({
            "_SimTrap": SimTrap,
            "_FaultDetected": FaultDetected,
            "_IRError": IRError,
            "_ifb": int.from_bytes,
            "_upf": _PACK_F64.unpack_from,
        })
        self.ng = itertools.count()          # chunk/block env names
        self.dfn_names: Dict[Function, str] = {}
        #: iids readable as `t{iid}` locals in the chunk being emitted
        self.local: Set[int] = set()
        #: iids that must also live in the frame's temps dict
        self.escaping: Set[int] = set()

    # -- naming helpers --------------------------------------------------

    def operand(self, v: Value) -> str:
        if isinstance(v, Instruction):
            if v.iid in self.local:
                return f"t{v.iid}"
            return f"t[{v.iid}]"
        if isinstance(v, Constant):
            val = v.value
            if type(val) is int:
                return f"({val})"
            name = f"_k{next(self.nk)}"
            self.env[name] = val
            return name
        if isinstance(v, GlobalVariable):
            return f"({self.layout.address_of(v)})"
        if isinstance(v, Argument):
            return f"av[{v.index}]"
        raise IRError(f"cannot evaluate operand {v!r}")

    def value_expr(self, inst: Instruction) -> str:
        # the decoder's expressions close over `ip`; the generated
        # functions hoist `mem = ip.memory` into a local
        return self._value_expr(inst, inst.opcode).replace(
            "ip.memory", "mem")

    # -- statement emission ----------------------------------------------

    def assign(self, sb: SourceBuilder, iid: int, expr: str) -> None:
        sb.line(f"t{iid} = {expr}")
        self.local.add(iid)
        if iid in self.escaping:
            sb.line(f"t[{iid}] = t{iid}")

    _LD_FMT = {1: "b", 2: "h", 4: "i", 8: "q"}
    _ST_FMT = {1: "B", 2: "H", 4: "I", 8: "Q"}

    def struct_fn(self, prefix: str, fmt: str, method: str) -> str:
        """Intern an unpack_from/pack_into bound method in the env."""
        name = f"_{prefix}{fmt}"
        if name not in self.env:
            self.env[name] = getattr(struct.Struct("<" + fmt), method)
        return name

    def emit_load(self, sb: SourceBuilder, inst: Instruction) -> None:
        """Inline ``Memory`` load: bounds check plus a struct
        ``unpack_from`` (sign-extension included for signed widths) —
        byte-for-byte the semantics (and trap message) of the decoded
        tier's ``_lds``/``_ldu8``/``_ldf`` helpers, minus the call."""
        iid = inst.iid
        ty = inst.type
        size = 8 if (ty.is_float or ty.is_pointer) else ty.size
        sb.line(f"_a = {self.operand(inst.operands[0])}")
        sb.line(f"if _a < GB or _a + {size} > MSZ: "
                f"raise _SimTrap('segfault', "
                f"f\"access of {size} bytes at {{_a:#x}}\")")
        if ty.is_float:
            sb.line(f"t{iid} = _upf(md, _a)[0]")
        elif ty.is_pointer:  # unsigned 8-byte
            up = self.struct_fn("up", "Q", "unpack_from")
            sb.line(f"t{iid} = {up}(md, _a)[0]")
        else:
            fmt = self._LD_FMT.get(size)
            if fmt is None:  # odd width: decoded-identical slow form
                h = 1 << (size * 8 - 1)
                sb.line(f"t{iid} = _ifb(md[_a:_a + {size}], 'little')")
                sb.line(f"if t{iid} >= {h}: t{iid} -= {1 << (size * 8)}")
            else:
                up = self.struct_fn("up", fmt, "unpack_from")
                sb.line(f"t{iid} = {up}(md, _a)[0]")
        self.local.add(iid)
        if iid in self.escaping:
            sb.line(f"t[{iid}] = t{iid}")

    def emit_store(self, sb: SourceBuilder, inst: Instruction) -> None:
        v = self.operand(inst.operands[0])
        p = self.operand(inst.operands[1])
        ty = inst.operands[0].type
        if ty.is_float:
            sb.line(f"_stf(mem, {p}, float({v}))")
            return
        size = ty.size
        mask = (1 << (size * 8)) - 1
        # address then value conversion, in the decoded helper's
        # argument-evaluation order, before the bounds check
        sb.line(f"_a = {p}; _v = int({v})")
        sb.line(f"if _a < GB or _a + {size} > MSZ: "
                f"raise _SimTrap('segfault', "
                f"f\"access of {size} bytes at {{_a:#x}}\")")
        sb.line(f"if _a < HS and _a + {size} > LE: "
                f"LE, HS = mem.widen(_a, {size})")
        fmt = self._ST_FMT.get(size)
        if fmt is None:
            sb.line(f"md[_a:_a + {size}] = "
                    f"(_v & {mask}).to_bytes({size}, 'little')")
        else:
            sp = self.struct_fn("sp", fmt, "pack_into")
            sb.line(f"{sp}(md, _a, _v & {mask})")

    def emit_intrinsic(self, sb: SourceBuilder,
                       inst: Instruction) -> None:
        """Mid-chunk call that does not push a frame: inlined intrinsic
        or a raiser for declaration/arity-mismatch/unknown callees."""
        args = [self.operand(a) for a in inst.operands]
        callee = inst.callee
        if isinstance(callee, str):
            if callee == PRINT_I64:
                sb.line(f"out.append(_fmt_i64(int({args[0]})) + _NL)")
            elif callee == PRINT_F64:
                sb.line(f"out.append(_fmt_f64(float({args[0]})) + _NL)")
            elif callee == PRINT_CHAR:
                sb.line(f"out.append(_fmt_char(int({args[0]})))")
            elif callee == DETECT:
                sb.line("raise _FaultDetected('checker')")
            elif callee in INTRINSICS:
                name = f"_m{next(self.nk)}"
                self.env[name] = math_impl(callee)
                self.assign(sb, inst.iid, name + "(" + ", ".join(
                    f"float({a})" for a in args) + ")")
            else:
                sb.line(f"raise _IRError("
                        f"{('unknown intrinsic @' + callee)!r})")
        elif callee.is_declaration:
            sb.line(f"raise _IRError("
                    f"{('call to declaration @' + callee.name)!r})")
        else:
            msg = (f"@{callee.name} expects {len(callee.args)} args, "
                   f"got {len(args)}")
            sb.line(f"raise _IRError({msg!r})")

    def emit_inst(self, sb: SourceBuilder, inst: Instruction,
                  fn: Function) -> None:
        op = inst.opcode
        if op == "load":
            self.emit_load(sb, inst)
        elif op == "store":
            self.emit_store(sb, inst)
        elif op == "alloca":
            size = max(1, inst.allocated_type.size)
            sb.line(f"sp = (ip.sp - {size}) & -8")
            sb.line("ip.sp = sp")
            with sb.block("if sp < SL:"):
                sb.line(f"raise _SimTrap('stack-overflow', "
                        f"{('@' + fn.name)!r})")
            self.assign(sb, inst.iid, "sp")
        elif op == "call":
            self.emit_intrinsic(sb, inst)
        else:
            self.assign(sb, inst.iid, self.value_expr(inst))

    def emit_call_tail(self, sb: SourceBuilder, inst: Instruction,
                       kind: int, block, i: int, entry_bb) -> None:
        """Chunk-ending real call, counters already coalesced (a K_CALL1
        index is allocated after argument evaluation, exactly like the
        decoded loop)."""
        args = [self.operand(a) for a in inst.operands]
        callee = inst.callee
        sb.line(f"_a = [{', '.join(args)}]")
        if kind == K_CALL1:
            sb.line("inj += 1")
        sb.line(f"fr.index = {i + 1}")
        after = entry_bb[(block, i + 1)]
        ret_iid = "None" if inst.type.is_void else inst.iid
        sb.line(f"return (2, {self.dfn_names[callee]}, _a, "
                f"{ret_iid}, None, {after})")

    def goto(self, sb: SourceBuilder, k: int) -> None:
        """Continue at chunk ``k``: in this unit's dispatch tree, or
        through the trampoline when ``k`` belongs to another unit."""
        lo, hi = self.unit
        if lo <= k < hi:
            sb.line(f"bb = {k}")
            sb.line("continue")
        else:
            sb.line(f"return (5, {k})")

    def emit_term(self, sb: SourceBuilder, inst: Instruction,
                  fn: Function, block, entry_bb) -> None:
        op = inst.opcode
        if op == "br":
            if self.cf:
                self._emit_cf_site(sb, inst, fn, block,
                                   normal_label=repr(inst.target.label))
            self.goto(sb, entry_bb[(inst.target, 0)])
        elif op == "condbr":
            cond = self.operand(inst.operands[0])
            then_bb = entry_bb[(inst.then_block, 0)]
            else_bb = entry_bb[(inst.else_block, 0)]
            if self.cf:
                # evaluate the condition once, before the site check —
                # a raise inside it leaves inj unallocated, exactly as
                # in the decoded cf loop
                sb.line(f"_cv = {cond}")
                self._emit_cf_site(
                    sb, inst, fn, block,
                    normal_label=(f"({inst.then_block.label!r} if _cv "
                                  f"else {inst.else_block.label!r})"))
                cond = "_cv"
            lo, hi = self.unit
            if lo <= then_bb < hi and lo <= else_bb < hi:
                sb.line(f"bb = {then_bb} if {cond} else {else_bb}")
                sb.line("continue")
            else:
                with sb.block(f"if {cond}:"):
                    self.goto(sb, then_bb)
                self.goto(sb, else_bb)
        elif op == "ret":
            rv = self.operand(inst.operands[0]) if inst.operands else "None"
            sb.line(f"return (1, {rv})")
        else:  # unreachable
            detail = f"@{fn.name}/{block.label}"
            sb.line(f"raise _SimTrap('unreachable', {detail!r})")

    def _emit_cf_site(self, sb: SourceBuilder, inst: Instruction,
                      fn: Function, block, normal_label: str) -> None:
        """Control-flow injection site at a br/condbr tail: allocate one
        index; on a hit record the corrupted edge and continue, through
        the trampoline, at the uniformly drawn block-entry chunk instead of
        the normal target.  Counters are exact here — the chunk's
        ``dt`` coalesce has already run and ``inj`` carries no
        mid-chunk sites under cf."""
        tname, lname, nb = self._cf_fn
        with sb.block("if inj == tgt:"):
            sb.line("inj += 1")
            sb.line("ip.injected = True")
            sb.line(f"ip.injected_iid = {inst.iid}")
            sb.line(f"ip._cf_edge = {{'layer': 'ir', 'fn': {fn.name!r}, "
                    f"'from': {block.label!r}, 'iid': {inst.iid}, "
                    f"'to': {normal_label}, "
                    f"'redirect': {lname}[bit % {nb}]}}")
            sb.line(f"return (5, {tname}[bit % {nb}])")
        sb.line("inj += 1")

    def exit_clauses(self, n_entries: int, nsites: int) -> List[str]:
        """Tests of a chunk's one exceptional exit: the step budget could
        expire inside its ``n_entries`` steps, or the injection target
        is one of its ``nsites`` sites."""
        clauses = [f"dt + {n_entries} > ms"]
        if nsites:
            clauses.append(f"inj <= tgt < inj + {nsites}")
        return clauses

    def _register_fixups(self, first: int, stop: int,
                         dt_off: int, inj_off: int) -> None:
        for ln in range(first, stop):
            self.fix[ln] = (dt_off, inj_off)

    # -- per-function emission -------------------------------------------

    def emit_function(self, fn: Function, dfn: DecodedFunction,
                      n: int) -> CodegenFunction:
        # chunk structure: blocks split after every real call site and
        # after every UNIT_INSTS instructions
        chunks: List[Tuple[object, int, int]] = []
        for block in fn.blocks:
            start = 0
            last = len(block.instructions) - 1
            for i, e in enumerate(dfn.pairs[block][1]):
                if e[0] in _REAL_CALLS or (
                        i + 1 - start == UNIT_INSTS and i < last):
                    chunks.append((block, start, i + 1))
                    start = i + 1
            chunks.append((block, start, len(block.instructions)))
        entry_bb = {(block, start): k
                    for k, (block, start, _end) in enumerate(chunks)}

        if self.cf:
            # redirect tables for control-flow faults: chunk id of every
            # block entry (in fn.blocks order) and the matching labels
            # for edge forensics
            tname = f"_cft{next(self.ng)}"
            lname = f"_cfl{next(self.ng)}"
            self.env[tname] = [entry_bb[(b, 0)] for b in fn.blocks]
            self.env[lname] = [b.label for b in fn.blocks]
            self._cf_fn = (tname, lname, len(fn.blocks))

        # liveness: temps read outside their defining chunk must cross
        # through the frame's temps dict (locals die at trampoline
        # bounces and at the careful stepper's boundary)
        iid_chunk: Dict[int, int] = {}
        for k, (block, start, end) in enumerate(chunks):
            for inst in block.instructions[start:end]:
                iid_chunk[inst.iid] = k
        self.escaping = set()
        for k, (block, start, end) in enumerate(chunks):
            for inst in block.instructions[start:end]:
                for op in inst.operands:
                    if isinstance(op, Instruction) \
                            and iid_chunk.get(op.iid) != k:
                        self.escaping.add(op.iid)

        def emit_chunk(sb: SourceBuilder, k: int) -> None:
            block, start, end = chunks[k]
            insts = block.instructions
            code = dfn.pairs[block][1]
            n_entries = end - start
            if n_entries:
                bname = f"_b{next(self.ng)}"
                cname = f"_c{next(self.ng)}"
                self.env[bname] = block
                self.env[cname] = code
                nsites = sum(1 for e in code[start:end] if e[0] in _SITES)
                # the careful stepper raises the step-budget trap (or an
                # earlier one) at the exact instruction and applies the
                # fault
                test = " or ".join(self.exit_clauses(n_entries, nsites))
                with sb.block(f"if {test}:"):
                    sb.line(f"fr.block = {bname}; fr.code = {cname}; "
                            f"fr.index = {start}")
                    sb.line("return (4,)")
            last = insts[end - 1] if n_entries else None
            tail_call = (last is not None
                         and code[end - 1][0] in _REAL_CALLS)
            tail_term = (not tail_call and last is not None
                         and last.opcode in _TERMINATORS)
            # coalesced counters, raise sites fixed up via the
            # traceback line table
            self.local = set()
            body_end = end - 1 if (tail_call or tail_term) else end
            npre = 0
            for i in range(start, body_end):
                first = sb.next_lineno
                self.emit_inst(sb, insts[i], fn)
                self._register_fixups(first, sb.next_lineno,
                                      i - start + 1, npre)
                if code[i][0] in _SITES:
                    npre += 1
            if n_entries:
                sb.line(f"dt += {n_entries}"
                        + (f"; inj += {npre}" if npre else ""))
            if tail_call:
                self.emit_call_tail(sb, last, code[end - 1][0], block,
                                    end - 1, entry_bb)
            elif tail_term:
                self.emit_term(sb, last, fn, block, entry_bb)
            elif end < len(insts):      # a cut point inside the block
                self.goto(sb, entry_bb[(block, end)])
            else:
                felloff = f"fell off block {block.label} in @{fn.name}"
                sb.line(f"raise _IRError({felloff!r})")

        def emit_unit(sb: SourceBuilder, lo: int, hi: int) -> str:
            name = f"_g{n}_{lo}"
            self.unit = (lo, hi)
            self.fix = {}
            self.env[f"_FIX{n}_{lo}"] = self.fix
            sb.line(f"def {name}(ip, fr, c, bb):")
            sb.indent()
            for line in ("t = fr.temps", "av = fr.arg_values",
                         "mem = ip.memory", "out = ip.outputs",
                         "md = mem.data", "GB = mem.global_base",
                         "MSZ = mem.size",
                         "LE = mem.lo_end", "HS = mem.hi_start",
                         "SL = mem.stack_limit", "ms = ip.max_steps",
                         "dt = c[0]", "inj = c[1]", "tgt = c[2]",
                         "bit = c[3]"):
                sb.line(line)
            sb.line("try:")
            sb.indent()
            sb.line("while 1:")
            sb.indent()

            sb.dispatch(lo, hi, lambda k: emit_chunk(sb, k))
            sb.dedent()  # while
            sb.dedent()  # try
            sb.line("except BaseException as e:")
            sb.indent()
            # coalesced chunk counters: repair from the faulting line
            sb.line(f"_o = _FIX{n}_{lo}.get(e.__traceback__.tb_lineno)")
            with sb.block("if _o is not None:"):
                sb.line("dt += _o[0]; inj += _o[1]")
            sb.line("raise")
            sb.dedent()
            sb.line("finally:")
            sb.indent()
            sb.line("c[0] = dt; c[1] = inj")
            sb.dedent()
            sb.dedent()  # def
            return name

        units, unit_sizes = compile_units(
            [end - start for _block, start, end in chunks], UNIT_INSTS,
            emit_unit, self.env,
            f"<ir-codegen:{getattr(self.module, 'name', 'module')}"
            f"@{fn.name}>")
        return CodegenFunction(fn, units, entry_bb, unit_sizes)


def _generate(module: Module, layout: GlobalLayout,
              fault_model: str) -> CodegenModule:
    dm = decode_module(module, layout, fault_model)
    em = _Emitter(module, layout, fault_model == "cf")
    fn_list = list(dm.functions.items())
    for n, (fn, dfn) in enumerate(fn_list):
        em.dfn_names[fn] = f"_dfn{n}"
        em.env[f"_dfn{n}"] = dfn
    functions = {fn: em.emit_function(fn, dfn, n)
                 for n, (fn, dfn) in enumerate(fn_list)}
    return CodegenModule(module, dm, functions, em.env)
