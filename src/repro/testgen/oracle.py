"""Differential oracle: one program, the full execution/protection matrix.

For a program factory (anything returning a fresh
:class:`~repro.ir.module.Module` per call — generated MiniC, direct-IR
generation, or a benchmark source), the oracle builds every protection
variant

    unprotected, dup30, dup50, dup70, dup100, flowery, cfc, dup100+cfc

and executes each at both layers (IR interpreter, asm machine) under
all three dispatch tiers (naive ladders, pre-decoded closures,
exec-compiled generated code) — an 8 x 2 x 3 = 48-run matrix.  Every run
must finish ``OK`` — a checker firing on a fault-free run is a protection
bug, not noise — and produce output bit-identical to the unprotected
IR golden run; within a layer every dispatch tier must additionally
agree with the first on the full result signature (status, output,
dynamic counters).

Partial levels use :func:`partial_selection` — a seeded arbitrary
subset of the duplicable instructions — rather than the profiling
planner: semantics preservation must hold for *every* subset, so
random subsets are the stronger (and much faster) test.  The planner
itself is validated separately by the mutation harness.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from ..backend.lower import lower_module
from ..execresult import ExecResult, RunStatus
from ..interp.interpreter import IRInterpreter
from ..interp.layout import GlobalLayout
from ..ir.module import Module
from ..ir.verifier import verify_module
from ..machine.machine import AsmMachine, compile_program
from ..protection.cfc import apply_cfc
from ..protection.duplication import duplicable_instructions, duplicate_module
from ..protection.flowery import apply_flowery
from ..simulator import TIERS

__all__ = [
    "ORACLE_VARIANTS",
    "OracleConfig",
    "OracleFailure",
    "OracleReport",
    "partial_selection",
    "run_differential_oracle",
]

ORACLE_VARIANTS = ("unprotected", "dup30", "dup50", "dup70", "dup100",
                   "flowery", "cfc", "dup100+cfc")

#: result fields that must agree across dispatch modes within a layer
_SIG_FIELDS = ("status", "output", "dyn_total", "dyn_injectable")


@dataclass(frozen=True)
class OracleConfig:
    """Shape of one oracle matrix run."""

    variants: Tuple[str, ...] = ORACLE_VARIANTS
    layers: Tuple[str, ...] = ("ir", "asm")
    dispatches: Tuple[str, ...] = TIERS
    #: seed for the partial-selection subsets (per-variant derived)
    selection_seed: int = 0
    #: step budget = max(floor, unprotected dyn_total x factor)
    max_steps_floor: int = 200_000
    max_steps_factor: int = 64


@dataclass(frozen=True)
class OracleFailure:
    """One cell of the matrix that broke the bit-identity contract."""

    variant: str
    layer: str
    dispatch: str
    field: str                  # 'status' | 'output' | cross-dispatch field
    got: str
    want: str

    def describe(self) -> str:
        return (f"{self.variant}/{self.layer}/{self.dispatch}: {self.field} "
                f"got={self.got!r} want={self.want!r}")


@dataclass
class OracleReport:
    """Aggregate of one program's trip through the matrix."""

    name: str
    variants: Tuple[str, ...]
    runs: int = 0
    golden_output: str = ""
    failures: List[OracleFailure] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures

    def to_doc(self) -> dict:
        return {
            "name": self.name,
            "variants": list(self.variants),
            "runs": self.runs,
            "ok": self.ok,
            "failures": [vars(f).copy() for f in self.failures],
        }


def partial_selection(
    module: Module, fraction: float, seed: int
) -> Set[int]:
    """A seeded, size-``fraction`` subset of the duplicable instructions.

    Deterministic in ``(module shape, fraction, seed)``; used for the
    dup30/50/70 oracle variants (arbitrary subsets must preserve
    semantics, whatever the planner would have chosen).
    """
    iids = sorted(i.iid for i in duplicable_instructions(module))
    k = round(len(iids) * fraction)
    rng = random.Random(f"selection:{seed}:{fraction}")
    return set(rng.sample(iids, k))


def build_variant(
    make_module: Callable[[], Module], variant: str, seed: int = 0
):
    """(module, layout, compiled) for one protection variant, built from
    a fresh module (passes mutate in place)."""
    module = make_module()
    if variant != "unprotected":
        if variant == "flowery":
            info = duplicate_module(module, store_mode="eager")
            apply_flowery(module, info)
        elif variant == "cfc":
            apply_cfc(module)
        elif variant == "dup100+cfc":
            duplicate_module(module)
            apply_cfc(module)
        elif variant == "dup100":
            duplicate_module(module)
        elif variant.startswith("dup"):
            fraction = int(variant[3:]) / 100.0
            selected = partial_selection(module, fraction, seed)
            duplicate_module(module, protected=selected)
        else:
            raise ValueError(f"unknown oracle variant {variant!r}")
    verify_module(module)
    layout = GlobalLayout(module)
    compiled = compile_program(lower_module(module, layout).flatten())
    return module, layout, compiled


def _sig(res: ExecResult) -> Dict[str, str]:
    return {
        "status": res.status.value,
        "output": res.output,
        "dyn_total": str(res.dyn_total),
        "dyn_injectable": str(res.dyn_injectable),
    }


def run_differential_oracle(
    make_module: Callable[[], Module],
    name: str = "program",
    config: OracleConfig = OracleConfig(),
) -> OracleReport:
    """Execute the full variant x layer x dispatch matrix and diff it.

    ``make_module`` must return a *fresh* module on each call (e.g.
    ``lambda: compile_source(src)`` or ``lambda: generate_ir(seed)``).
    """
    report = OracleReport(name=name, variants=tuple(config.variants))

    golden_module = make_module()
    golden_layout = GlobalLayout(golden_module)
    golden = IRInterpreter(golden_module, layout=golden_layout).run()
    if golden.status is not RunStatus.OK:
        report.failures.append(OracleFailure(
            "unprotected", "ir", "decoded", "status",
            golden.status.value, RunStatus.OK.value))
        return report
    report.golden_output = golden.output
    max_steps = max(config.max_steps_floor,
                    golden.dyn_total * config.max_steps_factor)

    for variant in config.variants:
        module, layout, compiled = build_variant(
            make_module, variant, config.selection_seed)
        for layer in config.layers:
            by_dispatch: Dict[str, ExecResult] = {}
            for dispatch in config.dispatches:
                if layer == "ir":
                    sim = IRInterpreter(module, layout=layout,
                                        max_steps=max_steps,
                                        dispatch=dispatch)
                else:
                    sim = AsmMachine(compiled, layout, max_steps=max_steps,
                                     dispatch=dispatch)
                res = sim.run()
                report.runs += 1
                by_dispatch[dispatch] = res
                if res.status is not RunStatus.OK:
                    report.failures.append(OracleFailure(
                        variant, layer, dispatch, "status",
                        f"{res.status.value}/{res.trap_kind}",
                        RunStatus.OK.value))
                elif res.output != golden.output:
                    report.failures.append(OracleFailure(
                        variant, layer, dispatch, "output",
                        res.output[:160], golden.output[:160]))
            if len(by_dispatch) >= 2:
                ref_dispatch = config.dispatches[0]
                sa = _sig(by_dispatch[ref_dispatch])
                for dispatch in config.dispatches[1:]:
                    sb = _sig(by_dispatch[dispatch])
                    for fld in _SIG_FIELDS:
                        if sa[fld] != sb[fld]:
                            report.failures.append(OracleFailure(
                                variant, layer,
                                f"cross-dispatch:{dispatch}", fld,
                                sb[fld][:160], sa[fld][:160]))
                            break
    return report
