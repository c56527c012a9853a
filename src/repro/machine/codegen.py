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

The per-uop bodies are not written here: :class:`_Emitter` subclasses
the asm decoder (:class:`repro.machine.decode._Decoder`) and renders its
``emit_uop`` bodies with literals by overriding its one rendering hook,
``lit``, so generated chunks and decoded closures run one statement of
asm semantics.  This module adds the control flow around them: chunks,
control-uop tails, counters, flips and the fixup table.

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

from typing import Callable, Dict, List, Tuple

from ..errors import ReproError, SimTrap
from ..memorymodel import Memory
from ..simgen import SourceBuilder, compile_generated
from . import machine as _machine
from .decode import (
    _CC_EXPR, _CONTROL, _ENV, DecodedProgram, _Decoder, decode_program,
)
from .machine import (
    CALL, JCC, JMP, RET, UD2, _RSP, _SENTINEL_RET, CompiledProgram,
)

__all__ = ["CodegenProgram", "codegen_program", "careful_until_leader"]


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


class _Emitter(_Decoder):
    """Emits the single specialized executor for one program/geometry;
    the per-uop bodies are the decoder's, rendered with literals."""

    def __init__(self, program: CompiledProgram, dp: DecodedProgram,
                 lo: int, hi: int, stack_limit: int,
                 fault_model: str = "seu"):
        self.fix: Dict[int, Tuple[int, int, int]] = {}
        super().__init__(program.uops, lo, hi, stack_limit,
                         dict(_ENV, _mach=_machine, _FIX=self.fix,
                              _FM=(1, 2, 4, 8, 16)))
        self.program = program
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
        self._interned: Dict[tuple, str] = {}

    def lit(self, value, text: str = None, intern: tuple = None,
            geo: str = None) -> str:
        """Literal spelling of ``value``, the geometry included; a value
        with none (payload bytes, a float ``repr`` cannot round-trip, a
        math function) is bound once per ``intern`` key under a fresh
        env name."""
        if intern is None:
            return str(value) if text is None else text
        name = self._interned.get(intern)
        if name is None:
            name = f"_{intern[0]}{len(self._interned)}"
            self._interned[intern] = name
            self.env[name] = value
        return name

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
            self.emit_widen(sb.line, "_sp", 8)
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
                    self.emit_uop(sb.line, i)
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
            self.emit_uop(sb.line, i)
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
