"""Execution result types shared by the IR interpreter and the machine.

A simulated run ends in one of three ways:

* ``OK``       — ran to completion; output may or may not match golden
* ``DETECTED`` — a duplication/Flowery checker fired (``__detect``)
* ``TRAP``     — the program crashed (segfault, div-by-zero, bad jump,
  stack overflow, timeout); the DUE class of the paper

The mapping to the paper's outcome taxonomy (Benign / SDC / DUE /
Detected) additionally needs the golden output and lives in
:mod:`repro.fi.outcomes`.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, Optional


class RunStatus(enum.Enum):
    OK = "ok"
    DETECTED = "detected"
    TRAP = "trap"


@dataclass
class ExecResult:
    """Outcome of one simulated execution."""

    status: RunStatus
    #: concatenated program output (the bytes SDC detection diffs)
    output: str
    #: total dynamic instructions executed
    dyn_total: int
    #: dynamic instructions that are fault-injection sites
    dyn_injectable: int
    #: trap kind when status is TRAP ("segfault", "step-budget", ...)
    trap_kind: Optional[str] = None
    #: return value of the entry function (None for void)
    return_value: Optional[object] = None
    #: whether a requested injection actually happened
    injected: bool = False
    #: static id of the instruction that received the fault
    injected_iid: Optional[int] = None
    #: free-form extras (layer-specific diagnostics)
    extra: Dict[str, object] = field(default_factory=dict)

    @property
    def completed(self) -> bool:
        return self.status is RunStatus.OK
