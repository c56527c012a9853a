"""Flowery — the paper's three mitigation patches (§6).

All three operate on IR *after* instruction duplication, exactly as the
paper describes, and are driven by the duplication metadata:

* **eager store** (§6.1) is implemented inside the duplication pass as
  ``store_mode="eager"`` (store-then-check); :func:`eager_store_mode`
  documents the knob.  The stored value is then consumed inside its
  defining block, so the backend's block-local register cache still
  holds it and no post-checker home-slot reload (the store-penetration
  site) is emitted.
* **postponed branch condition check** (§6.2): before every protected
  conditional branch, the expected successor id is computed from the
  same condition (``select``) and stored to a global; each outgoing edge
  is split and verifies the global against its own id, catching
  wrong-direction jumps caused by faults in the branch's ``test`` FLAGS
  after the fact.
* **anti-comparison duplication** (§6.3): every checker that validates a
  *compare* result is sunk, together with the shadow compare, into a
  fresh block behind an opaque (volatile-load) guard.  The backend's
  redundant-compare elimination is block-local and treats volatile loads
  as availability barriers, so the shadow compare and the checker
  survive lowering.
"""

from __future__ import annotations

from typing import Dict

from ..errors import IRError
from ..ir import types as T
from ..ir.instructions import (
    Br,
    Call,
    CondBr,
    FCmp,
    ICmp,
    Instruction,
    Load,
    Select,
    Store,
    Unreachable,
)
from ..ir.intrinsics import DETECT
from ..ir.module import BasicBlock, Function, Module
from ..ir.values import const_int
from .duplication import DuplicationInfo

__all__ = [
    "apply_flowery",
    "postponed_branch_check",
    "anti_comparison_duplication",
    "eager_store_mode",
    "GUARD_GLOBAL",
    "EXPECT_GLOBAL",
]

GUARD_GLOBAL = "__flowery_guard"
EXPECT_GLOBAL = "__flowery_br_expect"


def eager_store_mode() -> str:
    """The duplication ``store_mode`` implementing Flowery §6.1.

    The patch is a *placement* policy for store checkers, so it lives in
    the duplication pass; pass ``store_mode=eager_store_mode()`` to
    :func:`~repro.protection.duplication.duplicate_module`.
    """
    return "eager"


def _ensure_global(module: Module, name: str, init: int, volatile: bool):
    gv = module.globals.get(name)
    if gv is None:
        gv = module.global_var(name, T.I64, init, volatile=volatile)
    return gv


def _get_detect_block(fn: Function, info: DuplicationInfo) -> BasicBlock:
    label = info.detect_blocks.get(fn.name)
    if label is not None:
        return fn.block_by_label(label)
    block = fn.new_block("detect")
    call = Call(DETECT, [], ret_type=T.VOID)
    call.attrs["checker"] = True
    fn.module.assign_iid(call)
    block.append(call)
    ur = Unreachable()
    ur.attrs["checker"] = True
    fn.module.assign_iid(ur)
    block.append(ur)
    info.detect_blocks[fn.name] = block.label
    return block


def _mark(inst: Instruction, patch: str) -> Instruction:
    inst.attrs["flowery"] = patch
    inst.attrs["checker"] = True
    return inst


# -- §6.2 postponed branch condition check ---------------------------------


def postponed_branch_check(module: Module, info: DuplicationInfo) -> int:
    """Instrument every checker-protected conditional branch; returns the
    number of branches instrumented."""
    expect = _ensure_global(module, EXPECT_GLOBAL, 0, volatile=False)
    protected_syncs = {c.sync_iid for c in info.checkers.values()}
    count = 0
    for fn in module.functions.values():
        if fn.is_declaration:
            continue
        detect = None
        for block in list(fn.blocks):
            term = block.terminator
            if (
                not isinstance(term, CondBr)
                or term.is_checker
                or "flowery" in term.attrs
                or term.iid not in protected_syncs
                or term.attrs.get("flowery_branch_done")
            ):
                continue
            if term.then_block is term.else_block:
                continue
            term.attrs["flowery_branch_done"] = True
            if detect is None:
                detect = _get_detect_block(fn, info)
            then_id = term.iid * 2
            else_id = term.iid * 2 + 1

            # before the branch: expected-successor bookkeeping
            sel = _mark(
                Select(term.condition, const_int(then_id), const_int(else_id)),
                "postponed-branch",
            )
            st = _mark(Store(sel, expect), "postponed-branch")
            module.assign_iid(sel)
            module.assign_iid(st)
            at = block.index_of(term)
            block.insert(at, sel)
            block.insert(at + 1, st)

            # split both edges with verification blocks
            term.then_block = _edge_checker(
                fn, module, expect, term.then_block, then_id, detect
            )
            term.else_block = _edge_checker(
                fn, module, expect, term.else_block, else_id, detect
            )
            count += 1
    return count


def _edge_checker(
    fn: Function,
    module: Module,
    expect,
    target: BasicBlock,
    expected_id: int,
    detect: BasicBlock,
) -> BasicBlock:
    edge = fn.new_block("br.verify")
    load = _mark(Load(expect), "postponed-branch")
    cmp_ = _mark(ICmp("eq", load, const_int(expected_id)), "postponed-branch")
    br = _mark(CondBr(cmp_, target, detect), "postponed-branch")
    for inst in (load, cmp_, br):
        module.assign_iid(inst)
        edge.append(inst)
    return edge


# -- §6.3 anti-comparison duplication ------------------------------------------


def anti_comparison_duplication(module: Module, info: DuplicationInfo) -> int:
    """Sink compare-validating checkers behind opaque guards; returns the
    number of checkers hardened."""
    guard = _ensure_global(module, GUARD_GLOBAL, 1, volatile=True)
    by_iid = {inst.iid: inst for inst in module.instructions()}
    count = 0
    for checker_iid, cinfo in list(info.checkers.items()):
        checker = by_iid.get(checker_iid)
        if checker is None or checker.attrs.get("flowery_anticmp_done"):
            continue
        master = checker.operands[0]
        shadow = checker.operands[1]
        if not isinstance(master, (ICmp, FCmp)):
            continue  # only compare-validating checkers are foldable
        if not isinstance(shadow, Instruction) or not shadow.is_shadow:
            continue
        checker.attrs["flowery_anticmp_done"] = True

        block = checker.parent
        fn = block.parent
        condbr = block.terminator
        if not isinstance(condbr, CondBr) or condbr.condition is not checker:
            raise IRError(
                f"checker %t{checker_iid} is not followed by its branch"
            )
        cont = condbr.then_block
        detect = condbr.else_block

        # A fresh clone of the shadow compare goes into the guarded block
        # (the original shadow may serve other checkers, so it stays put;
        # if this was its only use it simply becomes dead).  Computing the
        # clone in a separate block is what defeats the backend's
        # block-local redundant-compare elimination.
        from .duplication import _clone_instruction

        clone = _clone_instruction(shadow, {})
        clone.attrs.update(shadow.attrs)
        clone.attrs["flowery"] = "anti-cmp"
        module.assign_iid(clone)
        info.shadow_of[clone.iid] = clone.attrs["dup_of"]
        if checker.operands[1] is shadow:
            checker.operands[1] = clone
        else:
            checker.operands[0] = clone
        shadow = clone

        # detach the checker pair from its block
        k_at = block.index_of(checker)
        assert block.instructions[k_at + 1] is condbr
        del block.instructions[k_at : k_at + 2]

        # guarded diamond
        check_block = fn.new_block("anticmp.check")
        skip_block = fn.new_block("anticmp.skip")
        gl = _mark(Load(guard, volatile=True), "anti-cmp")
        gc = _mark(ICmp("ne", gl, const_int(0)), "anti-cmp")
        gbr = _mark(CondBr(gc, check_block, skip_block), "anti-cmp")
        for inst in (gl, gc, gbr):
            module.assign_iid(inst)
            block.append(inst)

        for inst in (shadow, checker, condbr):
            inst.parent = check_block
            check_block.instructions.append(inst)

        skip_br = _mark(Br(cont), "anti-cmp")
        module.assign_iid(skip_br)
        skip_block.append(skip_br)

        # keep layout readable: place the diamond right after the block
        pos = fn.blocks.index(block)
        fn.blocks.remove(check_block)
        fn.blocks.remove(skip_block)
        fn.blocks.insert(pos + 1, check_block)
        fn.blocks.insert(pos + 2, skip_block)
        count += 1
    return count


# -- orchestration ---------------------------------------------------------------


def apply_flowery(
    module: Module,
    info: DuplicationInfo,
    branch_patch: bool = True,
    cmp_patch: bool = True,
) -> Dict[str, int]:
    """Apply the post-duplication Flowery patches (§6.2 and §6.3).

    §6.1 (eager store) must be selected at duplication time via
    ``store_mode="eager"``.  Returns per-patch instrumentation counts.
    """
    stats = {"postponed_branch": 0, "anti_cmp": 0}
    if cmp_patch:
        stats["anti_cmp"] = anti_comparison_duplication(module, info)
    if branch_patch:
        stats["postponed_branch"] = postponed_branch_check(module, info)
    return stats
