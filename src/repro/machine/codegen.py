"""Template-driven code generation for the assembly machine.

Third dispatch tier (``dispatch="codegen"``): the micro-op stream of a
:class:`~repro.machine.machine.CompiledProgram` is translated once into
specialized straight-line Python source — register indices, immediates,
memory bounds and branch targets inlined as literals — compiled with
:func:`repro.simgen.cache.compile_generated` and cached per memory
geometry, exactly like the decode cache.

Unlike the IR backend (generated functions per IR function, frames
driven from the interpreter), the whole uop stream is one flat address
space.  Basic blocks are discovered from branch/call targets
("leaders"); each chunk is the run of uops from a leader up to and
including the next control uop, cut after :data:`UNIT_UOPS` uops when a
run is longer.  Chunks are grouped into compile units
(:func:`repro.simgen.compile_units`): contiguous chunk ranges of at
most :data:`UNIT_UOPS` uops, each one generated function with a binary
dispatch tree over its chunks.  Calls and returns stay in generated
code: their targets are leaders, so a transfer inside the unit is just
``bb = <chunk>; continue``, and one that leaves the unit returns the
target chunk to :meth:`AsmMachine._codegen`, which re-enters the unit
holding it.  What generated code does not run,
:func:`careful_until_leader` single-steps on decoded closures until
execution re-joins a leader: a chunk the step budget could expire in,
the chunk that holds the injection target, and any pc that is not a
chunk start (a snapshot's mid-chunk pc, a *corrupted* return address, a
control-flow fault's redirect).

The per-uop bodies are not written here: :class:`_Emitter` subclasses
the asm decoder (:class:`repro.machine.decode._Decoder`) and renders its
``emit_uop`` bodies with literals by overriding its one rendering hook,
``lit``, so generated chunks and decoded closures run one statement of
asm semantics.  This module adds the control flow around them: chunks,
control-uop tails, counters and the fixup table.

Stores (``MOV_MR``, ``MOV_MI``, ``MOVSD_MX``, ``PUSH``, ``CALL``) keep
the memory's written extent (DESIGN §10) covering what they write
through the ``LE``/``HS`` bound locals hoisted at function entry.

Each chunk is emitted once, with its counters coalesced into one
addition at the chunk exit, as in the IR backend.  One test guards the
chunk entry, ``s + N > ms or inj <= tgt < inj + M`` (N its uops, M its
sites; the second clause only where M > 0): a chunk the step budget
could expire in, or that holds the injection target, is not run here
but handed to :func:`careful_until_leader`, which steps it with exact
counters, raises the step-budget trap at the uop naive raises it, and
applies the fault through
:meth:`~repro.machine.machine.AsmMachine._apply_fault`, the decoded
loop's own helper.  SEU and SET therefore generate the same source; it
is cached per site rule.  Chunk lines are recorded in a per-unit fixup
table (``_FIX<u>``) mapping generated line number -> (steps,
injectable, pc) offsets; the wrapper's ``except`` arms repair the
counters from ``e.__traceback__.tb_lineno`` and convert
``OverflowError`` into the same ``SimTrap("overflow", "pc=...")`` the
other tiers raise.

The generated functions return action tuples to the run loop in
:meth:`AsmMachine._codegen`:

``(1,)``     ``main`` returned through the sentinel (halt);
``(2, pc)``  the one exceptional exit: careful-step from ``pc`` to the
             next leader — the chunk at leader ``pc`` could run out of
             step budget or holds the injection target, or a return
             address or cf redirect left the chunk starts;
``(3, k)``   a transfer left the unit: continue at chunk ``k``.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Tuple

from ..errors import ReproError, SimTrap
from ..memorymodel import Memory
from ..simgen import SourceBuilder, compile_units
from .decode import _CC_EXPR, _CONTROL, _ENV, DecodedProgram, _Decoder
from .machine import (
    CALL, JCC, JMP, RET, UD2, _RSP, _SENTINEL_RET, CompiledProgram,
)

__all__ = ["CodegenProgram", "codegen_program", "careful_until_leader",
           "cached_codegen", "release_codegen", "UNIT_UOPS"]

#: compile-unit budget: no chunk and no unit holds more uops
UNIT_UOPS = 100


class CodegenProgram:
    """Generated executor for one (program, memory-geometry) pair."""

    __slots__ = ("program", "units", "leaders", "unit_sizes", "env")

    def __init__(self, program: CompiledProgram, units: List[Callable],
                 leaders: Dict[int, int], unit_sizes: Tuple[int, ...],
                 env: dict):
        self.program = program
        #: chunk id -> the generated function of the unit holding it
        self.units = units
        #: uop index -> chunk id for every leader (branch/call target,
        #: call return site, entry, cut point of a long run) — also
        #: bound as ``_L`` in the generated module for RET dispatch
        self.leaders = leaders
        #: uops per compile unit
        self.unit_sizes = unit_sizes
        self.env = env


def _fingerprint(program: CompiledProgram) -> tuple:
    """Content identity for in-place mutation detection (process-local:
    CALLRT payload identity hashes by object id)."""
    return (len(program.uops), program.entry_index,
            hash(tuple(program.uops)))


def codegen_program(program: CompiledProgram, mem: Memory,
                    fault_model: str = "seu") -> CodegenProgram:
    """Generate (cached) specialized code for ``program`` under ``mem``'s
    geometry and the site rule of ``fault_model`` (SEU and SET share the
    register sites, cf has the transfer sites); regenerates if the uop
    stream was mutated in place."""
    cf = fault_model == "cf"
    key = (mem.global_base, mem.size, mem.stack_limit, cf)
    fp = _fingerprint(program)
    cache = getattr(program, "_codegen", None)
    if cache is None:
        cache = {}
        program._codegen = cache
    hit = cache.get(key)
    if hit is not None and hit[0] == fp:
        return hit[1]
    cp = _generate(program, mem, cf)
    cache[key] = (fp, cp)
    return cp


def cached_codegen(program: CompiledProgram) -> Tuple[CodegenProgram, ...]:
    """Every generated executor the cache holds for ``program``."""
    return tuple(cp for _fp, cp in getattr(program, "_codegen", {}).values())


def release_codegen(program: CompiledProgram,
                    keep: Tuple[CodegenProgram, ...]) -> None:
    """Drop every generated executor cached for ``program`` that is not
    in ``keep`` (what :func:`cached_codegen` returned earlier)."""
    cache = getattr(program, "_codegen", {})
    for key, (_fp, cp) in list(cache.items()):
        if not any(cp is k for k in keep):
            del cache[key]


def _find_chunks(uops: List[tuple], entry: int):
    """Leaders + chunk spans.

    A chunk runs from its leader up to and including the first control
    uop, or up to (excluding) the next leader (fall-through), or to the
    end of the program (falling off is a bad-jump).  A run longer than
    :data:`UNIT_UOPS` is cut into fall-through chunks, each cut point a
    leader of its own.  Dead uops hiding between a mid-run control uop
    and the next leader are reachable only through corrupted return
    addresses and are covered by the careful stepper, never by
    generated code.
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
                end, kind = j + 1, "ctl"
                break
            j += 1
            if j == n:
                end, kind = j, "off"
                break
            if j in leader_set:
                end, kind = j, "fall"
                break
        while end - L > UNIT_UOPS:
            chunks.append((L, L + UNIT_UOPS, "fall"))
            L += UNIT_UOPS
        chunks.append((L, end, kind))
    leaders = {L: k for k, (L, _end, _kind) in enumerate(chunks)}
    return chunks, leaders


class _Emitter(_Decoder):
    """Emits the single specialized executor for one program/geometry;
    the per-uop bodies are the decoder's, rendered with literals."""

    def __init__(self, program: CompiledProgram, lo: int, hi: int,
                 stack_limit: int, cf: bool):
        super().__init__(program.uops, lo, hi, stack_limit, dict(_ENV))
        #: the unit being emitted: its chunk range and fixup table
        self.unit = (0, 0)
        self.fix: Dict[int, Tuple[int, int, int]] = {}
        self.cf = cf
        #: under cf the register-destination sites vanish (the exit
        #: tests only the budget, no coalesced inj) — control-uop chunk
        #: tails become the injection sites instead
        self.inj_kind = ([0] * len(program.uops) if cf
                         else program.inj_kind)
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

    def goto(self, sb: SourceBuilder, k: int) -> None:
        """Continue at chunk ``k``: in this unit's dispatch tree, or
        through the run loop when ``k`` belongs to another unit."""
        lo, hi = self.unit
        if lo <= k < hi:
            sb.line(f"bb = {k}")
            sb.line("continue")
        else:
            sb.line(f"return (3, {k})")

    def emit_tail(self, sb: SourceBuilder, leaders,
                  L: int, end: int, kind: str) -> None:
        """Chunk exit: counters are already exact when these lines run,
        so raises here need no fixup entries."""
        n = len(self.uops)
        if kind == "off":
            sb.line(f'raise _SimTrap("bad-jump", "pc={n}")')
            return
        if kind == "fall":
            self.goto(sb, leaders[end])
            return
        i = end - 1
        u = self.uops[i]
        code = u[0]
        if code == JMP:
            if self.cf:
                self.emit_cf_site(sb, i, str(u[1]))
            self.goto(sb, leaders[u[1]])
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
            lo, hi = self.unit
            if f is None:
                # fall-through past program end: mirror the decoded
                # fetch failure
                with sb.block(f"if {cc}:"):
                    self.goto(sb, t)
                sb.line(f'raise _SimTrap("bad-jump", "pc={n}")')
            elif lo <= t < hi and lo <= f < hi:
                sb.line(f"bb = {t} if {cc} else {f}")
                sb.line("continue")
            else:
                with sb.block(f"if {cc}:"):
                    self.goto(sb, t)
                self.goto(sb, f)
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
            self.goto(sb, leaders[u[1]])
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
            lo, hi = self.unit
            with sb.block(f"if {lo} <= _k < {hi}:"):
                sb.line("bb = _k")
                sb.line("continue")
            sb.line("return (3, _k)")
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
        # the one exceptional exit: the step budget could expire inside
        # the chunk, or it holds the injection target; the careful
        # stepper raises the budget trap at the exact uop and applies
        # the fault
        test = f"s + {span_len} > ms"
        if ninj:
            test += f" or inj <= tgt < inj + {ninj}"
        with sb.block(f"if {test}:"):
            sb.line(f"return (2, {L})")
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
        self.emit_tail(sb, leaders, L, end, kind)

    def emit_unit(self, sb: SourceBuilder, chunks, leaders,
                  lo: int, hi: int) -> str:
        """One compile unit: the executor of chunks ``[lo, hi)``, with
        its own fixup table."""
        name = f"_u{lo}"
        self.unit = (lo, hi)
        self.fix = {}
        self.env[f"_FIX{lo}"] = self.fix
        sb.line(f"def {name}(mc, st, c, bb):")
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
        sb.dispatch(lo, hi,
                    lambda k: self.emit_chunk(sb, chunks, leaders, k))
        sb.dedent()  # while
        sb.dedent()  # try
        sb.line("except OverflowError as e:")
        sb.indent()
        sb.line(f"_o = _FIX{lo}.get(e.__traceback__.tb_lineno)")
        with sb.block("if _o is not None:"):
            sb.line("s += _o[0]; inj += _o[1]")
            sb.line("raise _SimTrap('overflow', 'pc=%d' % _o[2]) from None")
        sb.line("raise")
        sb.dedent()
        sb.line("except BaseException as e:")
        sb.indent()
        sb.line(f"_o = _FIX{lo}.get(e.__traceback__.tb_lineno)")
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
        return name


def _generate(program: CompiledProgram, mem: Memory,
              cf: bool) -> CodegenProgram:
    chunks, leaders = _find_chunks(program.uops, program.entry_index)
    em = _Emitter(program, mem.global_base, mem.size, mem.stack_limit, cf)
    em.env["_L"] = leaders
    units, unit_sizes = compile_units(
        [end - L for L, end, _kind in chunks], UNIT_UOPS,
        lambda sb, lo, hi: em.emit_unit(sb, chunks, leaders, lo, hi),
        em.env, f"<asm-codegen:{len(program.uops)}u"
                f"@{program.entry_index}>")
    return CodegenProgram(program, units, leaders, unit_sizes, em.env)


def careful_until_leader(mc, st, dp: DecodedProgram,
                         leaders: Dict[int, int], c: List[int],
                         pc: int) -> int:
    """Single-step decoded closures from ``pc`` until execution re-joins
    a leader, stepping at least one uop: ``pc`` is the leader of a chunk
    the step budget could expire in or that holds the injection target,
    a snapshot's mid-chunk pc, or where a corrupted return address or a
    cf redirect sent execution.  Mirrors the decoded driver loop
    exactly, including the step-budget trap, the fault it applies
    (:meth:`AsmMachine._apply_fault`) and counter placement at every
    raise point."""
    fns = dp.fns
    inj_kind = (dp.program.cf_kind if mc.fault_model == "cf"
                else dp.program.inj_kind)
    max_steps = mc.max_steps
    steps = c[0]
    injectable = c[1]
    target = c[2]
    try:
        while True:
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
            if pc in leaders:
                return pc
    finally:
        c[0] = steps
        c[1] = injectable
