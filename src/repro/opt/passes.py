"""IR-level optimization passes.

The paper (§5.2) attributes comparison penetration to "dozens of
powerful optimization passes ... such as dead code elimination and
constant propagation" interacting with duplicated code.  This package
provides the classic trio so users can study protection under
optimization:

* :func:`constant_fold` — evaluate all-constant pure instructions
* :func:`dead_code_elimination` — drop unused pure results
* :func:`simplify_cfg` — fold constant branches, drop unreachable
  blocks, merge straight-line block chains

All passes preserve program semantics exactly (folding never touches a
division whose divisor is a constant zero, volatile loads are pinned,
sync points and calls are never removed).  ``optimize_module`` iterates
the pipeline to a fixpoint.

Running optimization *before* protection models a production `-O1`-ish
build; running it *after* would legally delete shadow computations —
which is precisely the comparison-penetration phenomenon, so the
pipeline refuses modules that already contain protection metadata
unless ``allow_protected=True``.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from ..errors import IRError
from ..ir import types as T
from ..ir.instructions import (
    Alloca,
    BinOp,
    Br,
    Call,
    Cast,
    CondBr,
    FCmp,
    Gep,
    ICmp,
    Instruction,
    Load,
    Ret,
    Select,
    Store,
    Unreachable,
)
from ..ir.module import BasicBlock, Function, Module
from ..ir.values import Constant, Value, const_bool, const_float, const_int

__all__ = [
    "constant_fold",
    "dead_code_elimination",
    "simplify_cfg",
    "optimize_module",
    "OptStats",
]


class OptStats(dict):
    """Per-pass change counters (dict of pass name -> changes)."""

    def bump(self, key: str, n: int = 1) -> None:
        self[key] = self.get(key, 0) + n

    @property
    def total(self) -> int:
        return sum(self.values())


# -- constant folding ----------------------------------------------------


def _fold_instruction(inst: Instruction) -> Optional[Constant]:
    """Constant result of a pure all-constant instruction, or None."""
    from ..interp.interpreter import _cast, _fcmp, _icmp, _int_arith

    ops = inst.operands
    if isinstance(inst, BinOp):
        if not all(isinstance(o, Constant) for o in ops):
            return None
        a, b = ops
        if inst.opcode in ("sdiv", "srem"):
            if int(b.value) == 0:
                return None  # keep the trap
            value = _int_arith(inst.opcode, int(a.value), int(b.value),
                               inst.type.bits)
            return const_int(value, inst.type)
        if inst.type.is_float:
            from ..interp.interpreter import _float_arith

            return const_float(
                _float_arith(inst.opcode, float(a.value), float(b.value))
            )
        return const_int(
            _int_arith(inst.opcode, int(a.value), int(b.value),
                       inst.type.bits),
            inst.type,
        )
    if isinstance(inst, ICmp):
        if all(isinstance(o, Constant) for o in ops):
            return const_bool(
                _icmp(inst.pred, int(ops[0].value), int(ops[1].value),
                      ops[0].type)
            )
        return None
    if isinstance(inst, FCmp):
        if all(isinstance(o, Constant) for o in ops):
            return const_bool(
                _fcmp(inst.pred, float(ops[0].value), float(ops[1].value))
            )
        return None
    if isinstance(inst, Cast):
        (src,) = ops
        if isinstance(src, Constant):
            value = _cast(inst.opcode, src.value, src.type, inst.type)
            if inst.type.is_float:
                return const_float(float(value))
            return Constant(inst.type, int(value))
        return None
    if isinstance(inst, Select):
        cond, a, b = ops
        if isinstance(cond, Constant):
            chosen = a if cond.value else b
            if isinstance(chosen, Constant):
                return Constant(chosen.type, chosen.value)
        return None
    return None


def _replace_uses(fn, old: Instruction, new: Value) -> int:
    count = 0
    for inst in fn.instructions():
        for i, op in enumerate(inst.operands):
            if op is old:
                inst.operands[i] = new
                count += 1
    return count


def constant_fold(module: Module) -> int:
    """Fold constant computations; returns the number folded."""
    folded = 0
    for fn in module.functions.values():
        if fn.is_declaration:
            continue
        changed = True
        while changed:
            changed = False
            for block in fn.blocks:
                for inst in list(block.instructions):
                    result = _fold_instruction(inst)
                    if result is None:
                        continue
                    _replace_uses(fn, inst, result)
                    block.instructions.remove(inst)
                    folded += 1
                    changed = True
    return folded


# -- dead code elimination ---------------------------------------------------


def _is_removable(inst: Instruction) -> bool:
    if inst.is_terminator or inst.is_sync_point:
        return False
    if isinstance(inst, Call):  # calls may have effects
        return False
    if isinstance(inst, Load) and inst.volatile:
        return False
    if not inst.has_result or inst.type.is_void:
        return False
    return True


def dead_code_elimination(module: Module) -> int:
    """Remove unused pure instructions; returns the number removed."""
    removed = 0
    for fn in module.functions.values():
        if fn.is_declaration:
            continue
        changed = True
        while changed:
            changed = False
            used: Set[int] = set()
            for inst in fn.instructions():
                for op in inst.operands:
                    if isinstance(op, Instruction):
                        used.add(op.iid)
            for block in fn.blocks:
                for inst in list(block.instructions):
                    if inst.iid not in used and _is_removable(inst):
                        block.instructions.remove(inst)
                        removed += 1
                        changed = True
    return removed


# -- CFG simplification ----------------------------------------------------------


def _fold_constant_branches(fn) -> int:
    changed = 0
    for block in fn.blocks:
        term = block.terminator
        if isinstance(term, CondBr) and isinstance(term.condition, Constant):
            target = (
                term.then_block if term.condition.value else term.else_block
            )
            br = Br(target)
            fn.module.assign_iid(br)
            br.attrs.update(term.attrs)
            br.parent = block
            block.instructions[-1] = br
            changed += 1
    return changed


def _remove_unreachable(fn) -> int:
    reachable: Set[BasicBlock] = set()
    stack = [fn.entry]
    while stack:
        block = stack.pop()
        if block in reachable:
            continue
        reachable.add(block)
        stack.extend(block.successors())
    dead = [b for b in fn.blocks if b not in reachable]
    for b in dead:
        fn.blocks.remove(b)
    return len(dead)


def _merge_chains(fn) -> int:
    merged = 0
    changed = True
    while changed:
        changed = False
        preds = fn.predecessors()
        for block in list(fn.blocks):
            term = block.terminator
            if not isinstance(term, Br):
                continue
            target = term.target
            if target is block or target is fn.entry:
                continue
            if len(preds.get(target, [])) != 1:
                continue
            # splice target into block
            block.instructions.pop()  # the Br
            for inst in target.instructions:
                inst.parent = block
                block.instructions.append(inst)
            fn.blocks.remove(target)
            merged += 1
            changed = True
            break
    return merged


def simplify_cfg(module: Module) -> int:
    """Constant-branch folding + unreachable removal + chain merging."""
    changes = 0
    for fn in module.functions.values():
        if fn.is_declaration:
            continue
        changes += _fold_constant_branches(fn)
        changes += _remove_unreachable(fn)
        changes += _merge_chains(fn)
    return changes


# -- pipeline -------------------------------------------------------------------------

#: rounds of the pass pipeline before giving up on a fixpoint
_MAX_ITERATIONS = 10


def optimize_module(
    module: Module,
    allow_protected: bool = False,
) -> OptStats:
    """Run the pipeline to a fixpoint; returns per-pass change counts.

    Refuses modules that already carry protection metadata (shadows or
    checkers) unless ``allow_protected=True`` — optimizing *after*
    duplication legally deletes the protection, which is exactly the
    cross-layer failure mode the paper studies (use the backend's
    compare-CSE knob to reproduce that instead).
    """
    if not allow_protected:
        for inst in module.instructions():
            if inst.is_shadow or inst.is_checker:
                raise IRError(
                    "optimize_module on a protected module would delete "
                    "shadow computation; pass allow_protected=True to "
                    "study that deliberately"
                )
    stats = OptStats()
    for _ in range(_MAX_ITERATIONS):
        round_changes = 0
        n = constant_fold(module)
        stats.bump("constant_fold", n)
        round_changes += n
        n = simplify_cfg(module)
        stats.bump("simplify_cfg", n)
        round_changes += n
        n = dead_code_elimination(module)
        stats.bump("dead_code_elimination", n)
        round_changes += n
        if round_changes == 0:
            break
    return stats
