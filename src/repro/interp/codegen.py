"""Program-specialized codegen backend for the IR interpreter.

Third dispatch tier (``dispatch="codegen"``): instead of stepping
pre-decoded closures (one Python call per dynamic instruction), this
module emits one specialized Python source function per IR function —
operands, constants and global addresses inlined as literals, temps held
in Python locals where liveness allows — and ``exec``-compiles the lot
once per (module, layout), cached by the same content fingerprint the
decode cache uses (so in-place module mutation invalidates generated
code exactly when it invalidates the closures).

Shape of the generated code
---------------------------

Each IR function becomes ``def _gN(ip, fr, c, bb)`` structured as a
``while 1`` + chunk ladder.  A *chunk* is a basic block split at real
call sites, so every chunk is straight-line; branches stay inside the
function (``bb = K; continue``) while calls and returns unwind to a
small trampoline driver in :class:`~repro.interp.interpreter
.IRInterpreter` (no host recursion — simulated call depth is bounded by
``max_call_depth``, far beyond Python's recursion limit).  Action
tuples returned to the driver:

* ``(0,)``      — budget bail: the step budget would expire inside the
  next chunk; the frame has been positioned at the chunk start for the
  decoded loop, which finishes the run (and raises the budget trap at
  exactly the same step).
* ``(1, rv)``   — ``ret``.
* ``(2, dfn, args, ret_iid, flip_bit, after_bb)`` — call.
* ``(4,)``      — hand-off: the injection target is one of the chunk's
  sites; the frame has been positioned at the chunk start and the
  driver's careful stepper runs the chunk.

Each chunk is emitted once, with loads/stores inlined (no helper call)
and both counters coalesced into a single ``dt += N; inj += M`` at the
chunk exit.  The chunk that holds the injection target
(``inj <= tgt < inj + M``) is handed to the careful stepper
(:meth:`~repro.interp.interpreter.IRInterpreter._careful_step`), which
steps its decoded entries with exact counters, applies the one fault of
the run, and returns at the chunk's closing control transfer, where
generated code takes over again.  The generator therefore states no
per-site injection semantics of its own: which instruction is a site
and which call pushes a frame are read from the kinds of the decoded
entries (:mod:`repro.interp.decode`), so generated code and the decoded
loop cannot disagree on which instruction allocates an index.

Bit-identity contract
---------------------

Counters follow exactly the decoded loop's order and are written back
through the carrier ``c`` in a ``finally`` — so at *every* possible
raise point (traps, checker detections, containment budgets, host
escapes out of a corrupted step) they match the naive and decoded tiers
bit-for-bit.  Chunks keep this exact despite coalescing via a
raise-site fixup table: every generated line is mapped to its
``(dt, inj)`` offsets from the chunk entry, and an ``except`` arm in
the generated function looks up the faulting line number in the
traceback and repairs the counters before re-raising.  The careful
stepper reads ``_flip_value``/``_set_value`` from the interpreter
module at run time, so the chaos harness's fault bombs reach codegen
runs too.

Runs that need snapshots or taps delegate to the decoded loop
(bit-identical by the equivalence suite); resuming *from* a snapshot
runs generated code, entering through the hand-off when the snapshot
stopped mid-chunk.  Inlined stores
keep the memory's written extent (DESIGN §10) covering what they write
through the ``LE``/``HS`` bound locals each function hoists at entry.

Fault models (DESIGN §14): generation depends only on the fault model's
site rule and is cached per (module, layout, site rule), so SEU and SET
share one generated module; they differ only in the corruption the
careful stepper applies.  Under the control-flow model value sites
vanish (no hand-off, no ``inj`` accounting mid-chunk) and the
``br``/``condbr`` tails become the injection sites: each allocates one
index and, on a hit, records the corrupted edge and jumps to a
uniformly drawn block-entry chunk of the current function.
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
from ..simgen import SourceBuilder, compile_generated
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

__all__ = ["CodegenFunction", "CodegenModule", "codegen_module"]

_TERMINATORS = frozenset(("br", "condbr", "ret", "unreachable"))
#: entry kinds of the value rule that allocate an injectable index, and
#: those that push a simulated frame (:mod:`repro.interp.decode`)
_SITES = (K_VALUE, K_CALL1)
_REAL_CALLS = (K_CALL0, K_CALL1)


class CodegenFunction:
    """Generated callable plus the chunk map needed to (re-)enter it."""

    __slots__ = ("fn", "run", "entry_bb")

    def __init__(self, fn: Function, entry_bb: Dict[Tuple[object, int], int]):
        self.fn = fn
        self.run = None  # filled after exec
        #: (block, instruction index) -> chunk id, for every chunk
        #: boundary: block starts and after-call positions
        self.entry_bb = entry_bb


class CodegenModule:
    """Module-wide codegen result, cached like the decode cache."""

    __slots__ = ("module", "dm", "functions", "source", "env")

    def __init__(self, module: Module, dm: DecodedModule,
                 functions: Dict[Function, CodegenFunction],
                 source: str, env: dict):
        self.module = module
        self.dm = dm
        self.functions = functions
        self.source = source
        self.env = env


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


class _Emitter(_Decoder):
    """Reuses the decoder's operand/expression machinery to emit source
    statements instead of compiling closures."""

    def __init__(self, module: Module, layout: GlobalLayout, cf: bool):
        # cf rule: value sites vanish, br/condbr tails inject
        super().__init__(module, layout, cf)
        #: raise-site fixup table: generated source line number ->
        #: (dt, inj) offsets from the chunk entry, for chunk lines
        #: whose counter updates are coalesced at the chunk exit
        self.fix: Dict[int, Tuple[int, int]] = {}
        self.env.update({
            "_SimTrap": SimTrap,
            "_FaultDetected": FaultDetected,
            "_IRError": IRError,
            "_FIX": self.fix,
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

    def emit_term(self, sb: SourceBuilder, inst: Instruction,
                  fn: Function, block, entry_bb) -> None:
        op = inst.opcode
        if op == "br":
            if self.cf:
                self._emit_cf_site(sb, inst, fn, block,
                                   normal_label=repr(inst.target.label))
            sb.line(f"bb = {entry_bb[(inst.target, 0)]}")
            sb.line("continue")
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
                sb.line(f"bb = {then_bb} if _cv else {else_bb}")
            else:
                sb.line(f"bb = {then_bb} if {cond} else {else_bb}")
            sb.line("continue")
        elif op == "ret":
            rv = self.operand(inst.operands[0]) if inst.operands else "None"
            sb.line(f"return (1, {rv})")
        else:  # unreachable
            detail = f"@{fn.name}/{block.label}"
            sb.line(f"raise _SimTrap('unreachable', {detail!r})")

    def _emit_cf_site(self, sb: SourceBuilder, inst: Instruction,
                      fn: Function, block, normal_label: str) -> None:
        """Control-flow injection site at a br/condbr tail: allocate one
        index; on a hit record the corrupted edge and jump to the
        uniformly drawn block-entry chunk instead of the normal target.
        Counters are exact here — the chunk's ``dt`` coalesce has
        already run and ``inj`` carries no mid-chunk sites under cf."""
        tname, lname, nb = self._cf_fn
        with sb.block("if inj == tgt:"):
            sb.line("inj += 1")
            sb.line("ip.injected = True")
            sb.line(f"ip.injected_iid = {inst.iid}")
            sb.line(f"ip._cf_edge = {{'layer': 'ir', 'fn': {fn.name!r}, "
                    f"'from': {block.label!r}, 'iid': {inst.iid}, "
                    f"'to': {normal_label}, "
                    f"'redirect': {lname}[bit % {nb}]}}")
            sb.line(f"bb = {tname}[bit % {nb}]")
            sb.line("continue")
        sb.line("inj += 1")

    def emit_handoff(self, sb: SourceBuilder, position: str,
                     nsites: int) -> None:
        """When the injection target is one of the chunk's ``nsites``
        sites, position the frame at the chunk start and hand the chunk
        to the driver's careful stepper, which applies the fault."""
        with sb.block(f"if inj <= tgt < inj + {nsites}:"):
            sb.line(position)
            sb.line("return (4,)")

    def _register_fixups(self, first: int, stop: int,
                         dt_off: int, inj_off: int) -> None:
        for ln in range(first, stop):
            self.fix[ln] = (dt_off, inj_off)

    # -- per-function emission -------------------------------------------

    def emit_function(self, sb: SourceBuilder, fn: Function,
                      dfn: DecodedFunction, gname: str):
        # chunk structure: blocks split after every real call site
        chunks: List[Tuple[object, int, int]] = []
        for block in fn.blocks:
            start = 0
            for i, e in enumerate(dfn.pairs[block][1]):
                if e[0] in _REAL_CALLS:
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
        # bounces and at the decoded fallback boundary)
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

        sb.line(f"def {gname}(ip, fr, c, bb):")
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

        def emit_chunk(k: int) -> None:
            block, start, end = chunks[k]
            insts = block.instructions
            code = dfn.pairs[block][1]
            n_entries = end - start
            if n_entries:
                bname = f"_b{next(self.ng)}"
                cname = f"_c{next(self.ng)}"
                self.env[bname] = block
                self.env[cname] = code
                position = (f"fr.block = {bname}; fr.code = {cname}; "
                            f"fr.index = {start}")
                # budget precheck: bail to the decoded loop, which will
                # raise the step-budget trap (or an earlier trap) at
                # exactly the right instruction within this chunk
                with sb.block(f"if dt + {n_entries} > ms:"):
                    sb.line(position)
                    sb.line("return (0,)")
                nsites = sum(1 for e in code[start:end] if e[0] in _SITES)
                if nsites:
                    self.emit_handoff(sb, position, nsites)
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
            else:
                felloff = f"fell off block {block.label} in @{fn.name}"
                sb.line(f"raise _IRError({felloff!r})")

        def emit_tree(lo: int, hi: int) -> None:
            # balanced dispatch: O(log n) compares per block transition
            # instead of a linear if/elif scan (chunk ids are internal,
            # produced only by generated branches and validated
            # `entry_bb` lookups, so every leaf is exact)
            if hi - lo == 1:
                emit_chunk(lo)
            elif hi - lo == 2:
                with sb.block(f"if bb == {lo}:"):
                    emit_chunk(lo)
                with sb.block("else:"):
                    emit_chunk(lo + 1)
            else:
                mid = (lo + hi) // 2
                with sb.block(f"if bb < {mid}:"):
                    emit_tree(lo, mid)
                with sb.block("else:"):
                    emit_tree(mid, hi)

        emit_tree(0, len(chunks))
        sb.dedent()  # while
        sb.dedent()  # try
        sb.line("except BaseException as e:")
        sb.indent()
        # coalesced chunk counters: repair from the faulting line
        sb.line("_o = _FIX.get(e.__traceback__.tb_lineno)")
        with sb.block("if _o is not None:"):
            sb.line("dt += _o[0]; inj += _o[1]")
        sb.line("raise")
        sb.dedent()
        sb.line("finally:")
        sb.indent()
        sb.line("c[0] = dt; c[1] = inj")
        sb.dedent()
        sb.dedent()  # def
        return entry_bb


def _generate(module: Module, layout: GlobalLayout,
              fault_model: str) -> CodegenModule:
    dm = decode_module(module, layout, fault_model)
    em = _Emitter(module, layout, fault_model == "cf")
    sb = SourceBuilder()
    fn_list = list(dm.functions.items())
    for n, (fn, dfn) in enumerate(fn_list):
        em.dfn_names[fn] = f"_dfn{n}"
        em.env[f"_dfn{n}"] = dfn
    functions: Dict[Function, CodegenFunction] = {}
    for n, (fn, dfn) in enumerate(fn_list):
        entry_bb = em.emit_function(sb, fn, dfn, f"_g{n}")
        functions[fn] = CodegenFunction(fn, entry_bb)
        sb.blank()
    source = sb.source()
    code = compile_generated(
        source, f"<ir-codegen:{getattr(module, 'name', 'module')}>")
    exec(code, em.env)
    for n, (fn, _dfn) in enumerate(fn_list):
        functions[fn].run = em.env[f"_g{n}"]
    return CodegenModule(module, dm, functions, source, em.env)
