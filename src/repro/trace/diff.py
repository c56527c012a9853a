"""Lockstep cross-layer divergence diffing.

Co-runs the IR interpreter and the assembly machine on the same
program — optionally with a single bit-flip injected into either layer
— and pinpoints the first synchronization point where the two
executions diverge.  This turns the manual escape forensics of the
paper (§5.2) into a single replayable report: instead of guessing
which store/branch/call let a fault through, the differ names it, with
the operand values both layers observed.

Typical use::

    from repro.pipeline import build
    from repro.trace import lockstep_built

    built = build("crc32", scale="tiny", level=100)
    report = lockstep_built(built, inject_layer="asm",
                            inject_index=123, inject_bit=5)
    print(report.narrate())
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from ..execresult import ExecResult
from .events import SyncEvent, Trace, TraceConfig
from .tap import IRTracer, MachineTracer

__all__ = ["Divergence", "DivergenceReport", "diff_sync_streams",
           "run_lockstep", "lockstep_built"]

#: matched sync pairs shown before the divergence in narrate()
_CONTEXT = 3


def diff_sync_streams(
    a: List[SyncEvent], b: List[SyncEvent]
) -> Tuple[int, Optional[Tuple[Optional[SyncEvent], Optional[SyncEvent]]]]:
    """First index where two sync streams disagree.

    Returns ``(matched_prefix_length, None)`` when the streams are
    identical, else ``(index, (event_a, event_b))`` where either event
    is None if that stream ended early.
    """
    n = min(len(a), len(b))
    for i in range(n):
        if a[i].key != b[i].key:
            return i, (a[i], b[i])
    if len(a) != len(b):
        return n, (a[n] if len(a) > n else None,
                   b[n] if len(b) > n else None)
    return n, None


@dataclass
class Divergence:
    """The first divergent synchronization point."""

    index: int
    event_a: Optional[SyncEvent]
    event_b: Optional[SyncEvent]
    #: source-level rendering of the divergent site in each layer
    site_a: Optional[str] = None
    site_b: Optional[str] = None


@dataclass
class DivergenceReport:
    """Outcome of one lockstep co-run."""

    layer_a: str
    layer_b: str
    status_a: str
    status_b: str
    matched: int
    events_a: int
    events_b: int
    divergence: Optional[Divergence] = None
    #: last matched sync pairs before the divergence
    context: List[SyncEvent] = field(default_factory=list)
    #: True when a sync_limit truncated either stream
    truncated: bool = False
    inject_layer: Optional[str] = None
    inject_index: Optional[int] = None
    inject_bit: int = 0
    fault_model: str = "seu"
    #: forensics for control-flow faults: the corrupted edge the
    #: injected simulator recorded ({from-site, intended target,
    #: redirect target})
    cf_edge: Optional[dict] = None

    @property
    def diverged(self) -> bool:
        return self.divergence is not None

    def _cf_edge_line(self) -> str:
        e = self.cf_edge
        if e.get("layer") == "ir":
            return (f"corrupted edge: @{e.get('fn')} "
                    f"%{e.get('from')} (iid {e.get('iid')}) "
                    f"-> intended %{e.get('to')}, "
                    f"redirected to %{e.get('redirect')}")
        return (f"corrupted edge: pc {e.get('pc')} "
                f"({e.get('opcode')}) -> intended pc {e.get('to')}, "
                f"redirected to pc {e.get('redirect')}")

    def narrate(self) -> str:
        head = (f"lockstep {self.layer_a} vs {self.layer_b}: "
                f"{self.matched} sync points matched "
                f"({self.layer_a}: {self.events_a} events/"
                f"{self.status_a}, "
                f"{self.layer_b}: {self.events_b} events/"
                f"{self.status_b})")
        if self.inject_layer is not None:
            head += (f"\ninjection: {self.inject_layer} dynamic site "
                     f"#{self.inject_index}, bit {self.inject_bit}, "
                     f"fault model {self.fault_model}")
            if self.cf_edge is not None:
                head += "\n" + self._cf_edge_line()
        if not self.diverged:
            note = " [sync stream truncated]" if self.truncated else ""
            return head + f"\nno divergence: layers agree{note}"
        d = self.divergence
        lines = [head]
        for ev in self.context:
            lines.append(f"  = {ev.describe()}")
        lines.append(f"DIVERGENCE at sync point #{d.index}")
        for tag, ev, site in ((self.layer_a, d.event_a, d.site_a),
                              (self.layer_b, d.event_b, d.site_b)):
            if ev is None:
                lines.append(f"  {tag:3s}: <stream ended — detected, "
                             "trapped, or shorter run>")
            else:
                lines.append(f"  {tag:3s}: {ev.describe()}")
                if site:
                    lines.append(f"       at {site}")
        return "\n".join(lines)


def _ir_site(module, ev: Optional[SyncEvent]) -> Optional[str]:
    if ev is None or not isinstance(ev.ref, int):
        return None
    from ..ir.printer import format_instruction

    for inst in module.instructions():
        if inst.iid == ev.ref:
            return format_instruction(inst).strip()
    return None


def _asm_site(compiled, ev: Optional[SyncEvent]) -> Optional[str]:
    if ev is None or ev.loc is None:
        return None
    inst = compiled.inst_at(ev.loc)
    return f"{str(inst).strip()}  [role={inst.role}, pc={ev.loc}]"


def run_lockstep(
    module,
    layout,
    compiled,
    inject_layer: Optional[str] = None,
    inject_index: Optional[int] = None,
    inject_bit: int = 0,
    config: Optional[TraceConfig] = None,
    fault_model: Optional[str] = None,
) -> DivergenceReport:
    """Co-run both layers with sync tracing and diff the streams.

    ``inject_layer`` ('ir' | 'asm' | None) selects which layer, if
    any, receives the single fault at injectable dynamic site
    ``inject_index`` under ``fault_model``, with the campaign step
    budget (:meth:`~repro.fi.campaign.CampaignConfig.max_steps`).  For
    control-flow faults the report also names the corrupted edge (the
    branch site, its intended target, and where the fault redirected
    it).  The report also exposes the two traces as ``report.trace_a``
    / ``report.trace_b``.
    """
    from ..faultmodel import validate_fault_model
    from ..fi.campaign import CampaignConfig, _Layer

    if inject_layer not in (None, "ir", "asm"):
        raise ValueError(f"inject_layer must be 'ir' or 'asm', "
                         f"got {inject_layer!r}")
    fm = validate_fault_model(fault_model)
    cfg = config or TraceConfig()
    tracers = {"ir": IRTracer(cfg),
               "asm": MachineTracer(cfg, module=module)}
    results = {}
    for name, tracer in tracers.items():
        adapter = _Layer(name, module=module, layout=layout,
                         program=compiled, fault_model=fm)
        if name == inject_layer and inject_index is not None:
            golden = adapter.simulator("decoded").run()
            results[name] = adapter.simulator(
                "decoded", CampaignConfig().max_steps(golden.dyn_total),
                trace=tracer,
            ).run(inject_index=inject_index, inject_bit=inject_bit)
        else:
            results[name] = adapter.simulator("decoded", trace=tracer).run()
    report = diff_traces(tracers["ir"].trace, tracers["asm"].trace,
                         results["ir"], results["asm"], module=module,
                         compiled=compiled)
    report.inject_layer = inject_layer
    report.inject_index = inject_index if inject_layer else None
    report.inject_bit = inject_bit if inject_layer else 0
    report.fault_model = fm
    if inject_layer is not None:
        edge = results[inject_layer].extra.get("cf_edge")
        if isinstance(edge, dict):
            report.cf_edge = edge
    return report


def diff_traces(
    trace_a: Trace,
    trace_b: Trace,
    res_a: ExecResult,
    res_b: ExecResult,
    module=None,
    compiled=None,
) -> DivergenceReport:
    """Diff two collected traces into a :class:`DivergenceReport`."""
    matched, pair = diff_sync_streams(trace_a.sync, trace_b.sync)
    report = DivergenceReport(
        layer_a=trace_a.layer,
        layer_b=trace_b.layer,
        status_a=res_a.status.value,
        status_b=res_b.status.value,
        matched=matched,
        events_a=len(trace_a.sync),
        events_b=len(trace_b.sync),
        truncated=trace_a.truncated or trace_b.truncated,
    )
    report.trace_a = trace_a
    report.trace_b = trace_b
    if pair is not None:
        ev_a, ev_b = pair
        div = Divergence(index=matched, event_a=ev_a, event_b=ev_b)
        if module is not None:
            div.site_a = _ir_site(module, ev_a if trace_a.layer == "ir"
                                  else None)
        if compiled is not None:
            div.site_b = _asm_site(compiled,
                                   ev_b if trace_b.layer == "asm"
                                   else None)
        report.divergence = div
        lo = max(0, matched - _CONTEXT)
        report.context = trace_a.sync[lo:matched]
    return report


def lockstep_built(built, **kwargs) -> DivergenceReport:
    """:func:`run_lockstep` on a :class:`repro.pipeline.BuiltProgram`."""
    return run_lockstep(built.module, built.layout, built.compiled,
                        **kwargs)
