"""Fault forensics: replay one injection and narrate what happened.

Given an :class:`~repro.fi.campaign.InjectionRecord` from a campaign,
:func:`explain_injection` re-executes the program with the same fault,
under the record's own fault model, and assembles a
:class:`FaultStory`: the faulted instruction at both layers, the IR
provenance chain, the protection state (protected? checker folded?),
the outcome, and the first point where program output diverged from
the golden run.  This is the manual analysis the paper's
authors describe doing for every deficiency case (§5.2), automated.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from ..backend.program import AsmProgram
from ..fi.campaign import CampaignConfig, InjectionRecord, _Layer
from ..fi.outcomes import Outcome, classify_outcome
from ..ir.module import Module
from ..ir.printer import format_instruction
from ..machine.machine import CompiledProgram
from ..protection.duplication import DuplicationInfo
from .rootcause import Penetration, RootCauseClassifier

__all__ = ["FaultStory", "explain_injection", "first_divergence"]


def first_divergence(golden: str, faulty: str) -> Optional[int]:
    """Index of the first differing output line, or None if equal."""
    g_lines = golden.split("\n")
    f_lines = faulty.split("\n")
    for i, (a, b) in enumerate(zip(g_lines, f_lines)):
        if a != b:
            return i
    if len(g_lines) != len(f_lines):
        return min(len(g_lines), len(f_lines))
    return None


@dataclass
class FaultStory:
    layer: str
    outcome: Outcome
    dyn_index: int
    bit: int
    #: textual form of the faulted instruction (asm or IR)
    site: str
    #: IR instruction the site implements, if any
    ir_site: Optional[str]
    #: asm role tag (asm layer only)
    role: Optional[str]
    #: was the IR instruction covered by the protection plan?
    protected: Optional[bool]
    #: were all its checkers folded away (comparison penetration)?
    checkers_folded: Optional[bool]
    #: root-cause category for SDC escapes on protected binaries
    penetration: Optional[Penetration]
    #: first output line that differs (SDC only)
    diverged_at_line: Optional[int]
    golden_line: Optional[str] = None
    faulty_line: Optional[str] = None
    trap_kind: Optional[str] = None
    #: lockstep cross-layer divergence report (opt-in; see
    #: :func:`explain_injection` ``lockstep=True``)
    lockstep: Optional[object] = None

    def narrate(self) -> str:
        lines = [
            f"fault: {self.layer} dynamic site #{self.dyn_index}, "
            f"bit {self.bit} -> {self.outcome.value.upper()}",
            f"  site: {self.site}",
        ]
        if self.ir_site:
            lines.append(f"  implements IR: {self.ir_site}")
        if self.role:
            lines.append(f"  lowering role: {self.role}")
        if self.protected is not None:
            state = "protected/guarded" if self.protected else "NOT protected"
            if self.checkers_folded:
                state += " (but every covering checker was folded away)"
            lines.append(f"  protection: {state}")
        if self.penetration is not None:
            lines.append(f"  root cause: {self.penetration.value} penetration")
        if self.outcome is Outcome.SDC and self.diverged_at_line is not None:
            lines.append(
                f"  output diverges at line {self.diverged_at_line}: "
                f"{self.golden_line!r} -> {self.faulty_line!r}"
            )
        if self.outcome is Outcome.DUE:
            lines.append(f"  trap: {self.trap_kind}")
        if self.lockstep is not None:
            lines.append("  lockstep divergence:")
            lines.extend("    " + ln
                         for ln in self.lockstep.narrate().split("\n"))
        return "\n".join(lines)


def _line(text: str, index: Optional[int]) -> Optional[str]:
    if index is None:
        return None
    lines = text.split("\n")
    return lines[index] if index < len(lines) else None


def explain_injection(
    record: InjectionRecord,
    module: Module,
    layout,
    compiled: Optional[CompiledProgram] = None,
    asm: Optional[AsmProgram] = None,
    dup_info: Optional[DuplicationInfo] = None,
    layer: str = "asm",
    max_steps_factor: int = 4,
    lockstep: bool = False,
) -> FaultStory:
    """Replay ``record`` under its fault model and build its
    :class:`FaultStory`.

    For the assembly layer, pass the ``compiled`` program and (for
    protection/penetration detail) the ``asm`` program and ``dup_info``.
    The replay's step budget follows the campaign policy
    (:meth:`~repro.fi.campaign.CampaignConfig.max_steps` at
    ``max_steps_factor``).  With ``lockstep=True`` (needs
    ``compiled``) the story additionally carries a cross-layer
    :class:`~repro.trace.DivergenceReport` that pinpoints the first
    synchronization point where the faulted layer departs from the
    other layer.
    """
    if layer == "asm" and compiled is None:
        raise ValueError("asm forensics needs the compiled program")
    inst_by_iid = {i.iid: i for i in module.instructions()}
    adapter = _Layer(layer, module=module, layout=layout, program=compiled,
                     fault_model=record.fault_model)
    golden = adapter.simulator("decoded").run()
    budget = CampaignConfig(max_steps_factor=max_steps_factor).max_steps(
        golden.dyn_total)
    res = adapter.simulator("decoded", budget).run(
        inject_index=record.dyn_index, inject_bit=record.bit)
    outcome = classify_outcome(res, golden.output)

    site = "<not injected>"
    ir_text = None
    role = None
    if layer == "asm":
        asm_index = res.extra.get("asm_index")
        if asm_index is not None:
            inst = compiled.inst_at(asm_index)
            site = str(inst).strip()
            role = inst.role
            ir_inst = inst_by_iid.get(inst.prov_iid)
            if ir_inst is not None:
                ir_text = format_instruction(ir_inst)
    elif res.injected_iid is not None:
        ir_inst = inst_by_iid.get(res.injected_iid)
        if ir_inst is not None:
            site = format_instruction(ir_inst)

    protected = None
    folded = None
    penetration = None
    prov_iid = record.iid if record.iid is not None else (
        res.injected_iid if res.injected_iid else None
    )
    if prov_iid is not None and prov_iid in inst_by_iid:
        ir_inst = inst_by_iid[prov_iid]
        if ir_inst.is_sync_point:
            # sync points are guarded by checkers, not duplicated
            protected = bool(ir_inst.attrs.get("sync_checked"))
        else:
            protected = bool(ir_inst.is_protected or ir_inst.is_shadow)
        if dup_info is not None and asm is not None:
            master = dup_info.shadow_of.get(prov_iid, prov_iid)
            guards = dup_info.guarded_by.get(master, [])
            folded = bool(guards) and all(
                g in asm.folded_checkers for g in guards
            )
            if outcome is Outcome.SDC and layer == "asm":
                clf = RootCauseClassifier(module, asm, dup_info)
                replay_record = InjectionRecord(
                    dyn_index=record.dyn_index,
                    bit=record.bit,
                    outcome=outcome,
                    iid=prov_iid,
                    asm_index=res.extra.get("asm_index"),
                    asm_role=res.extra.get("asm_role"),
                    asm_opcode=res.extra.get("asm_opcode"),
                )
                penetration = clf.classify(replay_record)

    diverged = (
        first_divergence(golden.output, res.output)
        if outcome is Outcome.SDC
        else None
    )
    lockstep_report = None
    if lockstep:
        if compiled is None:
            raise ValueError("lockstep forensics needs the compiled program")
        from ..trace.diff import run_lockstep

        lockstep_report = run_lockstep(
            module, layout, compiled,
            inject_layer=layer,
            inject_index=record.dyn_index,
            inject_bit=record.bit,
            fault_model=record.fault_model,
        )
    return FaultStory(
        layer=layer,
        outcome=outcome,
        dyn_index=record.dyn_index,
        bit=record.bit,
        site=site,
        ir_site=ir_text,
        role=role,
        protected=protected,
        checkers_folded=folded,
        penetration=penetration,
        diverged_at_line=diverged,
        golden_line=_line(golden.output, diverged),
        faulty_line=_line(res.output, diverged),
        trap_kind=res.trap_kind,
        lockstep=lockstep_report,
    )
