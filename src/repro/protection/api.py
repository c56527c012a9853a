"""High-level protection pipeline.

``protect(module, level, ...)`` runs the whole chain the paper
evaluates:

1. profile the unprotected module with IR fault injection,
2. plan the protected set with the knapsack (benefit = SDC profile,
   cost = dynamic count, budget = level% of full duplication),
3. duplicate + insert checkers (lazy or eager store mode),
4. optionally apply the Flowery patches.

The module is deep-compiled fresh by the caller (passes mutate in
place), so callers hand in a module they are willing to transform.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Set

from ..ir.module import Module
from ..ir.verifier import verify_module
from .duplication import DuplicationInfo, duplicate_module
from .flowery import apply_flowery
from .planner import ProtectionPlan, SdcProfile, plan_protection, profile_module

__all__ = ["ProtectedProgram", "protect"]


@dataclass
class ProtectedProgram:
    """A protected module plus all metadata the analysis layer needs."""

    module: Module
    level: int
    plan: Optional[ProtectionPlan]
    dup_info: DuplicationInfo
    flowery: bool
    flowery_stats: Dict[str, int] = field(default_factory=dict)

    @property
    def checker_sync_map(self) -> Dict[int, list]:
        """sync iid -> checker iids guarding it."""
        out: Dict[int, list] = {}
        for cid, cinfo in self.dup_info.checkers.items():
            out.setdefault(cinfo.sync_iid, []).append(cid)
        return out


def protect(
    module: Module,
    level: int = 100,
    profile: Optional[SdcProfile] = None,
    flowery: bool = False,
    solver: str = "greedy",
    profile_campaigns: int = 1000,
    profile_seed: int = 0,
    selected: Optional[Set[int]] = None,
) -> ProtectedProgram:
    """Protect ``module`` in place at the given protection level.

    ``flowery=True`` enables all three Flowery patches (eager store at
    duplication time, postponed branch check and anti-comparison
    duplication afterwards).  ``selected`` overrides the planner with an
    explicit protected set (used by tests and ablations).
    """
    plan: Optional[ProtectionPlan] = None
    if selected is None:
        if level == 100:
            selected = None  # duplicate_module defaults to everything
        else:
            if profile is None:
                profile = profile_module(
                    module, n_campaigns=profile_campaigns, seed=profile_seed
                )
            plan = plan_protection(module, profile, level, solver=solver)
            selected = plan.selected

    store_mode = "eager" if flowery else "lazy"
    dup_info = duplicate_module(module, protected=selected, store_mode=store_mode)

    stats: Dict[str, int] = {}
    if flowery:
        stats = apply_flowery(module, dup_info)
    verify_module(module)
    return ProtectedProgram(
        module=module,
        level=level,
        plan=plan,
        dup_info=dup_info,
        flowery=flowery,
        flowery_stats=stats,
    )
