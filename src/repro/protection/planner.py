"""Selective-protection planning (§3 of the paper).

Protecting an instruction costs extra *dynamic* instructions at runtime
(its own execution count, roughly doubled) and buys SDC detection
proportional to how many SDCs faults in that instruction cause.  The
paper formulates the selection as 0-1 knapsack: benefit = estimated SDC
contribution, cost = dynamic execution count, budget = protection level
x total duplicable dynamic count.

Benefits come from an IR-level fault-injection *profiling* campaign on
the unprotected program (:class:`SdcProfile`), the standard methodology
of the instruction-duplication literature the paper follows.  It is an
ordinary IR campaign (:func:`repro.fi.campaign.run_ir_campaign`, on the
checkpoint-replay engine unless ``REPRO_ENGINE=0``).

Two solvers are provided: the greedy benefit/cost heuristic used in
practice (near-optimal for this problem shape) and an exact dynamic
program for small instances (used in tests and the planner ablation).
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from ..errors import PlanError
from ..execresult import RunStatus
from ..interp.decode import _fingerprint
from ..interp.interpreter import IRInterpreter
from ..interp.layout import GlobalLayout
from ..ir.module import Module
from ..trace.tap import IRCountTap
from .duplication import duplicable_instructions

__all__ = ["SdcProfile", "ProtectionPlan", "profile_module", "plan_protection",
           "knapsack_greedy", "knapsack_exact", "validate_plan"]

PROTECTION_LEVELS = (30, 50, 70, 100)


@dataclass
class SdcProfile:
    """Per-static-instruction fault profile of an unprotected module."""

    #: dynamic execution count of every instruction (one golden run)
    dyn_counts: Dict[int, int]
    #: SDC occurrences attributed to each instruction by the campaign
    sdc_counts: Dict[int, int]
    #: campaign bookkeeping
    campaigns: int
    sdc_total: int
    golden_output: str
    golden_dyn_total: int
    golden_dyn_injectable: int

    @property
    def sdc_probability(self) -> float:
        return self.sdc_total / self.campaigns if self.campaigns else 0.0


@dataclass
class ProtectionPlan:
    """The instructions selected for duplication at one protection level."""

    level: int
    selected: Set[int]
    budget: int
    spent: int
    total_cost: int

    @property
    def dynamic_fraction(self) -> float:
        return self.spent / self.total_cost if self.total_cost else 0.0


#: golden profiling runs keyed by module; a level sweep re-plans over
#: the same unprotected module many times, but its dynamic counts never
#: change, so the (expensive) profiled execution is paid once
_GOLDEN_CACHE: "weakref.WeakKeyDictionary[Module, Tuple]" = \
    weakref.WeakKeyDictionary()


def _golden_profile(module: Module, layout: GlobalLayout):
    """One counted golden execution per (module, structure) pair: the
    result and its per-iid dynamic counts.  The decode caches'
    fingerprint invalidates it on in-place mutation."""
    fp = _fingerprint(module)
    cached = _GOLDEN_CACHE.get(module)
    if cached is not None and cached[0] == fp:
        return cached[1]
    tap = IRCountTap()
    golden = IRInterpreter(module, layout=layout, trace=tap).run()
    if golden.status is not RunStatus.OK:
        raise PlanError(
            f"golden run failed: {golden.status} {golden.trap_kind}"
        )
    profile = (golden, tap.counts)
    _GOLDEN_CACHE[module] = (fp, profile)
    return profile


def profile_module(
    module: Module,
    n_campaigns: int = 1000,
    seed: int = 0,
    layout: Optional[GlobalLayout] = None,
    max_steps_factor: int = 4,
) -> SdcProfile:
    """IR-level fault-injection profiling of an unprotected module.

    One profiled golden execution (cached per module structure) gives
    the dynamic counts; an SEU campaign of ``n_campaigns`` single-bit
    flips at the IR layer gives the SDCs, each attributed to the static
    instruction that received the fault.  Its step budget keeps the
    planner's floor of 10,000 steps, below the campaign default.
    """
    # imported here, not at module level: repro.pipeline imports this
    # module, and the fi package must stay free to import the pipeline
    from ..fi.campaign import CampaignConfig, run_ir_campaign

    layout = layout or GlobalLayout(module)
    golden, dyn_counts = _golden_profile(module, layout)
    campaign = run_ir_campaign(
        module,
        CampaignConfig(n_campaigns=n_campaigns, seed=seed,
                       max_steps_factor=max_steps_factor,
                       min_max_steps=10_000),
        layout)
    sdcs = campaign.sdc_records()
    sdc_counts: Dict[int, int] = {}
    for rec in sdcs:
        if rec.iid is not None:
            sdc_counts[rec.iid] = sdc_counts.get(rec.iid, 0) + 1
    return SdcProfile(
        dyn_counts=dict(dyn_counts),
        sdc_counts=sdc_counts,
        campaigns=n_campaigns,
        sdc_total=len(sdcs),
        golden_output=golden.output,
        golden_dyn_total=golden.dyn_total,
        golden_dyn_injectable=golden.dyn_injectable,
    )


def knapsack_greedy(
    items: Sequence[Tuple[int, float, int]], budget: int
) -> Set[int]:
    """Greedy benefit/cost knapsack.

    ``items`` are ``(id, benefit, cost)``; returns the chosen ids.
    Zero-cost items (never-executed instructions) are free and always
    taken.  Ties break deterministically by id.
    """
    chosen: Set[int] = set()
    remaining = budget
    ranked = sorted(
        items,
        key=lambda it: (-(it[1] / it[2]) if it[2] else float("-inf"), it[0]),
    )
    for iid, benefit, cost in items:
        if cost == 0:
            chosen.add(iid)
    for iid, benefit, cost in ranked:
        if cost == 0 or iid in chosen:
            continue
        if cost <= remaining:
            chosen.add(iid)
            remaining -= cost
    return chosen


def knapsack_exact(
    items: Sequence[Tuple[int, float, int]], budget: int
) -> Set[int]:
    """Exact 0-1 knapsack via dynamic programming.

    O(n * budget) — intended for small instances (tests, ablation);
    raises :class:`PlanError` when the table would exceed ~10^7 cells.
    """
    n = len(items)
    if n * max(budget, 1) > 10_000_000:
        raise PlanError(
            f"exact knapsack instance too large: {n} items x {budget} budget"
        )
    free = {iid for iid, _, c in items if c == 0}
    paid = [(iid, b, c) for iid, b, c in items if c > 0]
    table = np.zeros((len(paid) + 1, budget + 1), dtype=np.float64)
    for i, (_, benefit, cost) in enumerate(paid, start=1):
        prev = table[i - 1]
        row = table[i]
        row[:] = prev
        if cost <= budget:
            np.maximum(
                prev[: budget + 1 - cost] + benefit,
                prev[cost:],
                out=row[cost:],
            )
    chosen: Set[int] = set(free)
    b = budget
    for i in range(len(paid), 0, -1):
        iid, benefit, cost = paid[i - 1]
        if cost <= b and table[i][b] != table[i - 1][b]:
            chosen.add(iid)
            b -= cost
    return chosen


def validate_plan(
    plan: ProtectionPlan,
    module: Module,
    profile: SdcProfile,
) -> List[str]:
    """Check the structural invariants every protection plan must hold.

    Returns a list of human-readable violations (empty = valid):

    * the selected set only names duplicable instructions of ``module``;
    * ``spent`` equals the recomputed dynamic cost of the selection;
    * below level 100, the budget is respected (``spent <= budget``).

    The mutation-testing harness (:mod:`repro.testgen.mutants`) uses
    this as its plan-invariant oracle; a corrupted knapsack must fail
    here even when the resulting program still runs correctly.
    """
    violations: List[str] = []
    duplicable = {i.iid for i in duplicable_instructions(module)}
    stray = plan.selected - duplicable
    if stray:
        violations.append(
            f"selection names {len(stray)} non-duplicable iids "
            f"(e.g. {sorted(stray)[:3]})")
    spent = sum(
        profile.dyn_counts.get(iid, 0) for iid in plan.selected & duplicable
    )
    if spent != plan.spent:
        violations.append(
            f"spent mismatch: plan claims {plan.spent}, "
            f"selection costs {spent}")
    if plan.level < 100 and spent > plan.budget:
        violations.append(
            f"budget exceeded: {spent} > {plan.budget} "
            f"at level {plan.level}")
    return violations


def plan_protection(
    module: Module,
    profile: SdcProfile,
    level: int,
    solver: str = "greedy",
) -> ProtectionPlan:
    """Choose the instructions to duplicate for a protection level.

    ``level`` is the percentage of the full-duplication dynamic-
    instruction budget the plan may spend (30/50/70/100 in the paper).
    """
    if not 0 < level <= 100:
        raise PlanError(f"protection level must be in (0, 100], got {level}")
    candidates = duplicable_instructions(module)
    items = [
        (
            inst.iid,
            float(profile.sdc_counts.get(inst.iid, 0)),
            profile.dyn_counts.get(inst.iid, 0),
        )
        for inst in candidates
    ]
    total_cost = sum(c for _, _, c in items)
    if level == 100:
        selected = {iid for iid, _, _ in items}
        return ProtectionPlan(level, selected, total_cost, total_cost, total_cost)
    budget = (total_cost * level) // 100
    if solver == "greedy":
        selected = knapsack_greedy(items, budget)
    elif solver == "exact":
        selected = knapsack_exact(items, budget)
    else:
        raise PlanError(f"unknown solver {solver!r}")
    spent = sum(c for iid, _, c in items if iid in selected)
    return ProtectionPlan(level, selected, budget, spent, total_cost)
