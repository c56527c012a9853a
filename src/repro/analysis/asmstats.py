"""Static and dynamic statistics over lowered assembly.

Used by the experiments to explain *why* penetration distributions are
application-specific (§5.2: "depending on whether a program is
memory-bound or not", call density, control-flow properties): the
instruction-mix and role histograms quantify exactly those properties.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, Optional

from ..backend.isa import Role
from ..backend.program import AsmProgram
from ..machine.machine import CompiledProgram

__all__ = ["AsmStatics", "static_stats", "dynamic_role_histogram"]


@dataclass
class AsmStatics:
    """Static instruction statistics of a lowered program."""

    total: int
    by_opcode: Dict[str, int] = field(default_factory=dict)
    by_role: Dict[str, int] = field(default_factory=dict)
    injectable: int = 0
    #: instructions with no IR provenance (mapping-penetration surface)
    unmapped: int = 0

    @property
    def injectable_fraction(self) -> float:
        return self.injectable / self.total if self.total else 0.0

    def role_fraction(self, role: str) -> float:
        return self.by_role.get(role, 0) / self.total if self.total else 0.0

    def penetration_surface(self) -> Dict[str, int]:
        """Static count of instructions in each penetration-prone role."""
        return {
            "store": (
                self.by_role.get(Role.STORE_RELOAD, 0)
                + self.by_role.get(Role.STORE_ADDR_RELOAD, 0)
            ),
            "branch": (
                self.by_role.get(Role.BR_TEST, 0)
                + self.by_role.get(Role.BR_COND_RELOAD, 0)
            ),
            "call": self.by_role.get(Role.CALL_ARG, 0),
            "mapping": (
                self.by_role.get(Role.FRAME, 0)
                + self.by_role.get(Role.RET_VAL, 0)
            ),
        }


def static_stats(program: AsmProgram) -> AsmStatics:
    opcodes: Counter = Counter()
    roles: Counter = Counter()
    injectable = 0
    unmapped = 0
    total = 0
    for fn in program.functions.values():
        for inst in fn.insts:
            total += 1
            opcodes[inst.opcode] += 1
            roles[inst.role] += 1
            if inst.is_injectable:
                injectable += 1
            if inst.prov_iid is None:
                unmapped += 1
    return AsmStatics(
        total=total,
        by_opcode=dict(opcodes),
        by_role=dict(roles),
        injectable=injectable,
        unmapped=unmapped,
    )


def dynamic_role_histogram(
    compiled: CompiledProgram, counts: Dict[int, int]
) -> Dict[str, int]:
    """Dynamic execution counts per role, from per-pc counts (a
    :class:`~repro.trace.tap.MachineCountTap`'s ``counts``)."""
    hist: Counter = Counter()
    for index, count in counts.items():
        inst = compiled.inst_at(index)
        hist[inst.role] += count
    return dict(hist)
