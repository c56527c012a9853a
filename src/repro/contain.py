"""Fault containment primitives shared by both simulators.

The paper's fault model guarantees every injection resolves to one of
{benign, SDC, detected, DUE}; the harness must therefore enforce the
invariant *no injected fault can crash, hang, or OOM the host process*.
``max_steps`` already bounds time.  This module supplies the remaining
resource budgets and the host-escape conversion shared by the IR
interpreter and the assembly machine (see DESIGN §11):

* **output-byte budget** — :class:`OutputBuffer`, a drop-in ``list`` of
  emitted strings that raises ``SimTrap("output-budget")`` once the
  total byte count exceeds its budget.  A flipped loop bound that turns
  a 10-line program into an unbounded printer becomes a DUE instead of
  filling host memory with output strings.
* **memory-cell budget** — ``mem_budget`` on
  :class:`~repro.memorymodel.Memory` caps the size of the backing
  bytearray (``SimTrap("mem-budget")``), so a corrupted layout or a
  misconfigured harness cannot allocate a multi-GB image.
* **call-depth budget** — enforced inside the simulators (the budget
  constant lives here); a runaway call chain traps as
  ``SimTrap("stack-overflow")`` even if each frame is too small for the
  ``sp``-based check to fire first.
* **host-escape boundary** — :func:`host_escape_record` is the
  forensics record (original exception type, layer, dynamic position)
  of a host exception that crosses the simulator boundary during an
  injected run; the simulators' shared run contract
  (:mod:`repro.simulator`) attaches it to the TRAP result (kind
  :data:`HOST_ESCAPE`), and :func:`host_escape_result` synthesizes a
  whole such result for exceptions caught just outside a simulator.

Containment is on by default and must behave *identically* in both
dispatch modes ("naive" op-string ladders and pre-decoded closures):
both modes share the same ``outputs`` buffer, the same ``Memory`` and
the same check placement, so the equivalence suite keeps diffing them
bit-for-bit.  ``REPRO_CONTAIN=0`` (or ``contain=False``) restores the
pre-containment behaviour for A/B benchmarking and for the chaos
harness's deliberate un-guarded regression runs.
"""

from __future__ import annotations

import os
from typing import Dict, Iterable, Optional

from .errors import SimTrap
from .execresult import ExecResult, RunStatus

__all__ = [
    "DEFAULT_OUTPUT_BUDGET",
    "DEFAULT_MEM_BUDGET",
    "DEFAULT_MAX_CALL_DEPTH",
    "HOST_ESCAPE",
    "OutputBuffer",
    "containment_enabled",
    "host_escape_record",
    "host_escape_result",
]

#: total bytes of simulated program output before ``output-budget`` (the
#: largest golden output in the benchsuite is a few KB; 16 MiB leaves
#: three orders of magnitude of headroom for faulty runs)
DEFAULT_OUTPUT_BUDGET = 1 << 24

#: bytes of simulated memory image before ``mem-budget`` (default
#: geometry is ~1.5 MB; 256 MiB accommodates any plausible scale-up)
DEFAULT_MEM_BUDGET = 1 << 28

#: nested simulated calls before ``stack-overflow``.  Deliberately above
#: the ~32k frames the default 512 KiB simulated stack admits, so the
#: budget only fires when the sp-based check cannot (it is a backstop,
#: not a semantic change).
DEFAULT_MAX_CALL_DEPTH = 1 << 16

#: trap kind for a host exception converted at the containment boundary
HOST_ESCAPE = "host-escape"


def containment_enabled(flag: Optional[bool] = None) -> bool:
    """Resolve the containment on/off switch.

    An explicit ``flag`` wins; otherwise the ``REPRO_CONTAIN``
    environment variable decides (default on; ``"0"`` disables).
    """
    if flag is not None:
        return bool(flag)
    return os.environ.get("REPRO_CONTAIN", "1") != "0"


class OutputBuffer(list):
    """Output list with a byte budget.

    Both simulators (and all four dispatch paths — the decoded closures
    call ``outputs.append`` just like the naive ladders) emit program
    output through ``append``, so overriding it gives one enforcement
    point by construction.  Slice assignment (the checkpoint-replay
    restore path ``outputs[:] = snap.outputs``) recomputes the byte
    count so a reused simulator never carries stale accounting.
    """

    __slots__ = ("budget", "nbytes")

    def __init__(self, budget: int = DEFAULT_OUTPUT_BUDGET,
                 items: Iterable[str] = ()):
        super().__init__(items)
        self.budget = budget
        self.nbytes = sum(len(s) for s in self)

    def append(self, s: str) -> None:
        nbytes = self.nbytes + len(s)
        if nbytes > self.budget:
            raise SimTrap(
                "output-budget",
                f"output exceeded {self.budget} bytes",
            )
        self.nbytes = nbytes
        super().append(s)

    def __setitem__(self, key, value) -> None:
        super().__setitem__(key, value)
        self.nbytes = sum(len(s) for s in self)


def host_escape_record(exc: BaseException, layer: Optional[str] = None,
                       step: int = 0, index: int = 0) -> Dict[str, object]:
    """The ``extra["host_escape"]`` forensics of a host exception: its
    type and message, the layer, and the dynamic position it hit."""
    return {"exc_type": type(exc).__name__, "detail": str(exc),
            "layer": layer, "step": step, "index": index}


def host_escape_result(exc: BaseException, layer: Optional[str] = None,
                       step: int = 0, index: int = 0) -> ExecResult:
    """Classified TRAP result for a host exception that crossed (or was
    caught just outside) the simulator boundary during an injection."""
    return ExecResult(
        status=RunStatus.TRAP,
        output="",
        dyn_total=step,
        dyn_injectable=index,
        trap_kind=HOST_ESCAPE,
        extra={"host_escape": host_escape_record(exc, layer, step, index)},
    )
