"""End-to-end build pipeline: MiniC source -> protected binary at both
layers.

This is the main high-level entry point of the library::

    from repro.pipeline import build
    built = build("crc32", scale="small", level=70, flowery=True)
    built.run_ir()      # IR-layer execution
    built.run_asm()     # assembly-layer execution

``build`` compiles the benchmark (or raw source), optionally applies
selective duplication + Flowery, lowers to assembly, and packages every
artifact the fault-injection and analysis layers need.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Set

from .backend.lower import LoweringOptions, lower_module
from .backend.program import AsmProgram
from .benchsuite.registry import BENCHMARKS, load_source
from .execresult import ExecResult
from .frontend.codegen import compile_source
from .interp.interpreter import IRInterpreter
from .interp.layout import GlobalLayout
from .ir.module import Module
from .ir.verifier import verify_module
from .machine.machine import AsmMachine, CompiledProgram, compile_program
from .protection.api import ProtectedProgram, protect
from .protection.cfc import CFCInfo, apply_cfc
from .protection.planner import SdcProfile

__all__ = ["BuiltProgram", "build", "build_from_source"]


@dataclass
class BuiltProgram:
    """Every artifact of one compiled (and possibly protected) program."""

    name: str
    source: str
    module: Module
    layout: GlobalLayout
    asm: AsmProgram
    compiled: CompiledProgram
    protection: Optional[ProtectedProgram] = None
    cfc_info: Optional[CFCInfo] = None

    def run_ir(self, **kwargs) -> ExecResult:
        interp = IRInterpreter(
            self.module,
            layout=self.layout,
            max_steps=kwargs.pop("max_steps", 50_000_000),
            trace=kwargs.pop("trace", None),
            fault_model=kwargs.pop("fault_model", None),
        )
        return interp.run(**kwargs)

    def run_asm(self, **kwargs) -> ExecResult:
        trace = kwargs.pop("trace", None)
        if trace is not None:
            from .trace import MachineTracer, TraceConfig

            if isinstance(trace, TraceConfig):
                # the module gives call and ret events their payloads
                trace = MachineTracer(trace, module=self.module)
        machine = AsmMachine(
            self.compiled,
            self.layout,
            max_steps=kwargs.pop("max_steps", 100_000_000),
            trace=trace,
            fault_model=kwargs.pop("fault_model", None),
        )
        return machine.run(**kwargs)

    def lockstep(self, **kwargs):
        """Co-run both layers and diff them (see :mod:`repro.trace.diff`)."""
        from .trace.diff import run_lockstep

        return run_lockstep(self.module, self.layout, self.compiled,
                            **kwargs)

    @property
    def is_protected(self) -> bool:
        return self.protection is not None


def build_from_source(
    source: str,
    name: str = "program",
    level: Optional[int] = None,
    flowery: bool = False,
    profile: Optional[SdcProfile] = None,
    selected: Optional[Set[int]] = None,
    compare_cse: bool = True,
    profile_campaigns: int = 400,
    profile_seed: int = 0,
    cfc: bool = False,
    cfc_weakness: Optional[str] = None,
) -> BuiltProgram:
    """Compile MiniC source; ``level=None`` leaves it unprotected.

    ``cfc=True`` adds signature-based control-flow checking after
    duplication (composable: ``level`` and ``cfc`` are independent).
    """
    module = compile_source(source, name)
    protection = None
    if level is not None:
        protection = protect(
            module,
            level=level,
            flowery=flowery,
            profile=profile,
            selected=selected,
            profile_campaigns=profile_campaigns,
            profile_seed=profile_seed,
        )
    cfc_info = None
    if cfc:
        cfc_info = apply_cfc(module, weakness=cfc_weakness)
        verify_module(module)
    layout = GlobalLayout(module)
    asm = lower_module(
        module, layout, LoweringOptions(compare_cse=compare_cse)
    )
    compiled = compile_program(asm.flatten())
    return BuiltProgram(
        name=name,
        source=source,
        module=module,
        layout=layout,
        asm=asm,
        compiled=compiled,
        protection=protection,
        cfc_info=cfc_info,
    )


def build(
    benchmark: str,
    scale: str = "small",
    level: Optional[int] = None,
    flowery: bool = False,
    profile: Optional[SdcProfile] = None,
    compare_cse: bool = True,
    profile_campaigns: int = 400,
    profile_seed: int = 0,
    cfc: bool = False,
    cfc_weakness: Optional[str] = None,
) -> BuiltProgram:
    """Build a registered benchmark (see :mod:`repro.benchsuite`)."""
    source = load_source(benchmark, scale)
    return build_from_source(
        source,
        name=benchmark,
        level=level,
        flowery=flowery,
        profile=profile,
        compare_cse=compare_cse,
        profile_campaigns=profile_campaigns,
        profile_seed=profile_seed,
        cfc=cfc,
        cfc_weakness=cfc_weakness,
    )
