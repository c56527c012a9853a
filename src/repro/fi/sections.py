"""Section partitioning + exact dynamic injectable-site enumeration.

The compositional campaign engine (FastFlip-style, DESIGN §15) needs
two facts about a program, at both execution layers:

1. a **partition** of the static code into sections — IR functions at
   the IR layer, uop regions between synchronization points at the
   assembly layer — each carrying a *content hash* that is a pure
   function of the section's own code (function-local numbering, no
   global iids/pcs), so editing one function never perturbs another
   section's hash;

2. the exact **dynamic injectable-site sequence** of one golden run,
   attributed to sections, so per-section sub-campaigns draw from
   precisely the sites a whole-program campaign would have drawn from.

Site enumeration rides the simulators' existing per-step trace hook
(:mod:`repro.trace.tap`): a minimal tracer subclass records, for every
dynamic step that the fault model treats as injectable, the static id
it executes.  The predicates mirror the simulators' own site
accounting exactly — IR: ``inst.is_ir_injection_site`` (SEU/SET) or
``br``/``condbr`` (CF); asm: ``CompiledProgram.inj_kind`` (SEU/SET) or
``cf_kind`` (CF) — and the result is validated against the golden
run's ``dyn_injectable`` counter, so any drift between the predicate
and the simulator is a loud :class:`CampaignError`, never a silently
mis-partitioned campaign.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..errors import CampaignError
from ..execresult import ExecResult
from ..ir.instructions import (
    Alloca,
    Br,
    Call,
    CondBr,
    FCmp,
    Gep,
    ICmp,
    Instruction,
    Load,
    Store,
)
from ..ir.module import Function, Module
from ..ir.values import Argument, Constant, GlobalVariable
from ..machine.machine import CompiledProgram
from ..trace.tap import Tap
from .campaign import _Layer

__all__ = [
    "Section",
    "SiteMap",
    "partition_ir",
    "partition_asm",
    "ir_function_hash",
    "asm_region_hash",
    "module_env_hash",
    "traced_sites",
    "map_sites",
    "MIN_ASM_REGION",
]

#: minimum uops per assembly section: sync points inside a region this
#: small do not end it, bounding section count (and store size) on
#: branch-dense code
MIN_ASM_REGION = 32


@dataclass(frozen=True)
class Section:
    """One unit of the partition at one layer."""

    layer: str                  # 'ir' | 'asm'
    #: stable human name: the function (plus ``#k`` for asm regions)
    name: str
    #: position in partition order (section ids are per-program)
    index: int
    #: sha256 of the section's canonical, function-local serialization
    content_hash: str
    #: static ids covered: IR iids / asm flat-program pcs
    static_ids: Tuple[int, ...]


# ---------------------------------------------------------------------------
# canonical serialization — IR
# ---------------------------------------------------------------------------

def _canon_value(v, local: Dict[int, int]) -> str:
    """Function-local spelling of one operand.

    Instruction results use the *local* instruction index (module iids
    shift when other functions change size), arguments their position,
    globals and callees their names — every cross-section reference is
    by name, every intra-section reference by local offset.
    """
    if isinstance(v, Instruction):
        return f"%{local[id(v)]}"
    if isinstance(v, Constant):
        return f"c:{v.type}:{v.value!r}"
    if isinstance(v, Argument):
        return f"a:{v.index}"
    if isinstance(v, GlobalVariable):
        return f"g:{v.name}"
    if isinstance(v, Function):
        return f"f:{v.name}"
    return f"?:{v.short()}"          # pragma: no cover - defensive


def _canon_inst(inst: Instruction, local: Dict[int, int],
                blocks: Dict[int, int]) -> str:
    parts: List[str] = [inst.opcode, str(inst.type)]
    if isinstance(inst, (ICmp, FCmp)):
        parts.append(inst.pred)
    elif isinstance(inst, Alloca):
        parts.append(str(inst.allocated_type))
    elif isinstance(inst, Gep):
        parts.append(str(inst.element_size))
    elif isinstance(inst, (Load, Store)):
        parts.append("v" if inst.volatile else "-")
    elif isinstance(inst, Call):
        parts.append(inst.callee_name)
    elif isinstance(inst, Br):
        parts.append(f"b{blocks[id(inst.target)]}")
    elif isinstance(inst, CondBr):
        parts.append(f"b{blocks[id(inst.then_block)]}")
        parts.append(f"b{blocks[id(inst.else_block)]}")
    parts.extend(_canon_value(op, local) for op in inst.operands)
    return "|".join(parts)


def ir_function_hash(fn: Function) -> str:
    """Content hash of one IR function, insensitive to everything
    outside it (including its own name and its module-global iids)."""
    local: Dict[int, int] = {}
    for i, inst in enumerate(fn.instructions()):
        local[id(inst)] = i
    blocks = {id(b): i for i, b in enumerate(fn.blocks)}
    lines = [f"fn|{len(fn.args)}|{fn.return_type}"]
    for bi, block in enumerate(fn.blocks):
        lines.append(f"b{bi}")
        lines.extend(
            _canon_inst(inst, local, blocks) for inst in block.instructions
        )
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def partition_ir(module: Module) -> List[Section]:
    """One section per defined function, in module order."""
    sections: List[Section] = []
    for fn in module.functions.values():
        if fn.is_declaration:
            continue
        ids = tuple(inst.iid for inst in fn.instructions())
        sections.append(Section(
            layer="ir",
            name=fn.name,
            index=len(sections),
            content_hash=ir_function_hash(fn),
            static_ids=ids,
        ))
    return sections


def module_env_hash(module: Module) -> str:
    """Hash of the shared execution environment: global variables.

    Globals are referenced by *name* in the section hashes, so a
    changed initializer (same name) would otherwise be invisible; the
    environment hash closes that hole — it participates in every
    section's profile key (:mod:`repro.fi.compose`).
    """
    lines: List[str] = []
    for name, gv in sorted(module.globals.items()):
        init = gv.initializer
        if isinstance(init, list):
            init_c = ",".join(repr(x) for x in init)
        else:
            init_c = repr(init)
        lines.append(f"{name}|{gv.value_type}|{init_c}|"
                     f"{int(gv.is_const)}|{int(gv.volatile)}")
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


# ---------------------------------------------------------------------------
# canonical serialization — asm
# ---------------------------------------------------------------------------

def _canon_operand(op) -> str:
    from ..backend.isa import Imm, Label, Mem, Reg

    if isinstance(op, Reg):
        return f"r:{op.name}"
    if isinstance(op, Imm):
        return f"i:{op.value!r}"
    if isinstance(op, Mem):
        base = op.base.name if op.base is not None else ""
        return f"m:{base}:{op.disp}"
    if isinstance(op, Label):
        return f"l:{op.name}"
    return f"?:{op}"                 # pragma: no cover - defensive


def asm_region_hash(insts: Sequence) -> str:
    """Content hash of one uop region.

    ``prov_iid`` is deliberately excluded (module-global numbering —
    editing any earlier function would shift it); label operands are
    already function-local names, and absolute global addresses depend
    only on the data layout, which :func:`module_env_hash` covers.
    """
    lines = []
    for inst in insts:
        ops = "|".join(_canon_operand(o) for o in inst.operands)
        lines.append(f"{inst.opcode}{inst.cc or ''}|{inst.size}|"
                     f"{inst.role}|{ops}")
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def partition_asm(program: CompiledProgram) -> List[Section]:
    """Uop regions between sync points, within function boundaries.

    Each defined function's contiguous pc range is split after
    control-transfer uops (``cf_kind`` — jmp/jcc/call), but only once
    the open region holds at least ``MIN_ASM_REGION`` uops; region
    boundaries are therefore a pure function of the *function's own*
    instruction list, never of neighbouring functions.
    """
    flat = program.flat
    cf_kind = program.cf_kind
    sections: List[Section] = []
    n = len(flat.insts)
    fn_start = 0
    while fn_start < n:
        fn = flat.inst_fn[fn_start]
        fn_end = fn_start
        while fn_end < n and flat.inst_fn[fn_end] == fn:
            fn_end += 1
        # split [fn_start, fn_end) at sync points
        region = 0
        start = fn_start
        for pc in range(fn_start, fn_end):
            last = pc == fn_end - 1
            if last or (cf_kind[pc] and pc - start + 1 >= MIN_ASM_REGION):
                sections.append(Section(
                    layer="asm",
                    name=f"{fn}#{region}",
                    index=len(sections),
                    content_hash=asm_region_hash(
                        flat.insts[start:pc + 1]),
                    static_ids=tuple(range(start, pc + 1)),
                ))
                region += 1
                start = pc + 1
        fn_start = fn_end
    return sections


# ---------------------------------------------------------------------------
# site-enumeration taps
# ---------------------------------------------------------------------------

class _IRSiteTap(Tap):
    """Records the static iid of every injectable dynamic site, in
    allocation order."""

    def __init__(self, predicate: Callable[[Instruction], bool]):
        self._pred = predicate
        self.seq: List[int] = []

    def hook(self, inst, frame) -> None:
        if self._pred(inst):
            self.seq.append(inst.iid)


class _AsmSiteTap(Tap):
    """Asm counterpart: records the pc of every injectable site."""

    def __init__(self, kinds: Sequence[int]):
        self._kinds = kinds
        self.seq: List[int] = []

    def hook(self, pc, regs, xmm) -> None:
        if self._kinds[pc]:
            self.seq.append(pc)


def _ir_site_predicate(fault_model: str) -> Callable[[Instruction], bool]:
    if fault_model == "cf":
        return lambda inst: inst.opcode in ("br", "condbr")
    return lambda inst: inst.is_ir_injection_site


def traced_sites(layer: _Layer) -> Tuple[ExecResult, List[int]]:
    """One traced golden run: the result plus the static id (IR iid /
    asm pc) of every dynamic injectable site, in allocation order.

    ``layer`` is a campaign layer adapter; its site tap records the
    sites of its fault model.  The sequence must match the golden
    run's ``dyn_injectable`` count exactly, so drift between a
    predicate and the simulator is a loud :class:`CampaignError`,
    never a silently mis-partitioned campaign or an unsound prune.
    """
    tap = layer.site_tap()
    golden = layer.golden(trace=tap)
    if len(tap.seq) != golden.dyn_injectable:
        raise CampaignError(
            f"site enumeration drift at layer {layer.name!r} model "
            f"{layer.fault_model!r}: tap saw {len(tap.seq)} sites, "
            f"simulator counted {golden.dyn_injectable}")
    return golden, tap.seq


# ---------------------------------------------------------------------------
# the site map
# ---------------------------------------------------------------------------

@dataclass
class SiteMap:
    """Partition + exact per-section dynamic injectable-site lists for
    one (program, layer, fault model)."""

    layer: str
    fault_model: str
    sections: List[Section]
    #: per-section ascending global dynamic injectable indices
    dyn_indices: List[List[int]]
    #: per-section dynamic signature: hash of the section's dynamic
    #: site profile (count per *local* static slot) — the staleness
    #: guard for cached profiles (DESIGN §15)
    dyn_signatures: List[str]
    golden_output: str
    golden_dyn_total: int
    golden_dyn_injectable: int
    env_hash: str

    @property
    def site_counts(self) -> List[int]:
        return [len(d) for d in self.dyn_indices]


def _dyn_signature(section: Section, hits: Dict[int, int]) -> str:
    """Hash of {local static slot: dynamic site count} for one section."""
    local = {sid: i for i, sid in enumerate(section.static_ids)}
    pairs = sorted((local[sid], c) for sid, c in hits.items())
    body = ";".join(f"{p}:{c}" for p, c in pairs)
    return hashlib.sha256(
        f"{len(section.static_ids)}|{body}".encode()).hexdigest()


def map_sites(
    built,
    layer: str,
    fault_model: Optional[str] = None,
) -> SiteMap:
    """One traced golden run -> validated :class:`SiteMap`.

    ``built`` is a :class:`~repro.pipeline.BuiltProgram` (anything with
    ``module``/``layout``/``compiled``); the site sequence comes from
    :func:`traced_sites`.
    """
    adapter = _Layer.of(built, layer, fault_model)
    if layer == "ir":
        sections = partition_ir(built.module)
    else:
        sections = partition_asm(built.compiled)
    golden, seq = traced_sites(adapter)

    static_to_section: Dict[int, int] = {}
    for s in sections:
        for sid in s.static_ids:
            static_to_section[sid] = s.index
    dyn_indices: List[List[int]] = [[] for _ in sections]
    hits: List[Dict[int, int]] = [dict() for _ in sections]
    for dyn, sid in enumerate(seq):
        pos = static_to_section.get(sid)
        if pos is None:
            raise CampaignError(
                f"dynamic site {dyn} executes static id {sid} outside "
                f"every section (layer {layer!r})")
        dyn_indices[pos].append(dyn)
        hits[pos][sid] = hits[pos].get(sid, 0) + 1
    signatures = [
        _dyn_signature(s, hits[s.index]) for s in sections
    ]
    return SiteMap(
        layer=layer,
        fault_model=adapter.fault_model,
        sections=sections,
        dyn_indices=dyn_indices,
        dyn_signatures=signatures,
        golden_output=golden.output,
        golden_dyn_total=golden.dyn_total,
        golden_dyn_injectable=golden.dyn_injectable,
        env_hash=module_env_hash(built.module),
    )
