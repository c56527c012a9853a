"""The run contract both simulated layers share.

:class:`~repro.interp.interpreter.IRInterpreter` and
:class:`~repro.machine.machine.AsmMachine` differ only in what they
execute.  Everything else about a run is written once here, in the
:class:`Simulator` shell they inherit:

* the dispatch tiers (:data:`TIERS`) and the **routing rule**: decoded
  serves every run; codegen serves plain runs and resumes and hands
  checkpointing and tapped runs to decoded (generated code has no
  per-step tap points); naive refuses ``resume_from`` and
  ``checkpoints`` (only :data:`SNAPSHOT_TIERS` capture and resume);
* the **tap**: the one per-step observer a run may carry (a tracer, a
  site enumerator or a step counter, see :mod:`repro.trace.tap`);
* the fault-model check and the containment budgets (DESIGN §11):
  call depth, memory image size, output bytes;
* the **outcome mapping** — a checkpointing run that stopped early, a
  checker that fired, a simulated trap, and the host-escape boundary,
  whose record comes from :func:`repro.contain.host_escape_record`;
* **result assembly**: the ``trace``, ``early_stop``, ``host_escape``
  and ``cf_edge`` extras;
* the :class:`Snapshot` base and the restore preamble every resume
  runs (:meth:`Simulator._resume`).

A layer supplies its execution cores — ``_naive(start)``,
``_decoded(start, resume_from, checkpoints, checkpoint_cb)`` and
``_codegen(start, resume_from)``, each returning the entry's return
value — plus ``_tracer_class()`` (the layer's tracer, built from a
:class:`~repro.trace.events.TraceConfig`) and ``_finish(value)``, which
closes the run and returns the layer's own ``ExecResult`` fields and
``extra`` entries.  ``start`` is the layer's entry point (the IR's entry function and
arguments; unused by the machine).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from .contain import (
    DEFAULT_MAX_CALL_DEPTH,
    DEFAULT_MEM_BUDGET,
    DEFAULT_OUTPUT_BUDGET,
    HOST_ESCAPE,
    OutputBuffer,
    containment_enabled,
    host_escape_record,
)
from .errors import CheckpointsDone, FaultDetected, ReproError, SimTrap
from .execresult import ExecResult, RunStatus
from .faultmodel import validate_fault_model

__all__ = ["TIERS", "SNAPSHOT_TIERS", "Simulator", "Snapshot"]

#: every dispatch tier, reference first: naive op-string ladders,
#: pre-decoded closures, exec-compiled generated code
TIERS = ("naive", "decoded", "codegen")

#: the tiers that resume from snapshots (checkpoint-replay)
SNAPSHOT_TIERS = ("decoded", "codegen")


class Snapshot:
    """Mid-run state captured right before the step that allocates one
    injectable dynamic index.

    ``mem`` is a :class:`~repro.memorymodel.MemoryImage` of the written
    extents only, so capture and restore cost O(bytes written);
    ``outputs`` is the tuple of emitted strings; ``dyn_total`` and
    ``dyn_injectable`` are the golden counters at the checkpoint.  Each
    layer adds its frames or registers.  Every field is immutable or
    copied on resume, so one snapshot can seed any number of replays.
    """

    __slots__ = ("mem", "outputs", "dyn_total", "dyn_injectable")

    def __init__(self, mem, outputs: tuple, dyn_total: int,
                 dyn_injectable: int):
        self.mem = mem
        self.outputs = outputs
        self.dyn_total = dyn_total
        self.dyn_injectable = dyn_injectable


class Simulator:
    """Run state and run contract of one simulated layer (one instance
    per execution, or one reused across snapshot resumes)."""

    #: layer tag in host-escape records: ``'ir'`` or ``'asm'``
    layer = ""

    def __init__(self, layout, max_steps: int, heap_size: int,
                 stack_size: int, trace, dispatch: str,
                 contain: Optional[bool], max_call_depth: Optional[int],
                 output_budget: Optional[int], mem_budget: Optional[int],
                 fault_model: Optional[str]):
        if dispatch not in TIERS:
            raise ReproError(f"unknown dispatch mode {dispatch!r}")
        self.layout = layout
        self.max_steps = max_steps
        self.dispatch = dispatch
        # what an injection corrupts (seu/set/cf, see repro.faultmodel);
        # typos raise CampaignError here rather than silently running SEU
        self.fault_model = validate_fault_model(fault_model)
        # fault containment (DESIGN §11): resource budgets + host-escape
        # boundary, identical in every dispatch tier
        self.contain = containment_enabled(contain)
        if self.contain:
            self.max_call_depth = (max_call_depth if max_call_depth
                                   is not None else DEFAULT_MAX_CALL_DEPTH)
            if mem_budget is None:
                mem_budget = DEFAULT_MEM_BUDGET
            outputs: List[str] = OutputBuffer(
                output_budget if output_budget is not None
                else DEFAULT_OUTPUT_BUDGET)
        else:
            self.max_call_depth = 1 << 62
            mem_budget = None
            outputs = []
        self._armed = False
        self.memory = layout.make_memory(
            heap_size, stack_size, mem_budget=mem_budget)
        self.outputs = outputs
        self.dyn_total = 0
        self.dyn_injectable = 0
        # fault injection state
        self.inject_index: Optional[int] = None
        self.inject_bit = 0
        self.injected = False
        #: forensics for a control-flow fault: the corrupted edge
        self._cf_edge: Optional[Dict[str, object]] = None
        # the per-step tap (off by default; see repro.trace.tap): a
        # TraceConfig builds the layer's tracer, any other tap is used
        # as given
        self.tracer = None
        if trace is not None:
            from .trace.events import TraceConfig

            if isinstance(trace, TraceConfig):
                trace = self._tracer_class()(trace)
            trace.attach(self)
            self.tracer = trace

    def run(
        self,
        inject_index: Optional[int] = None,
        inject_bit: int = 0,
        resume_from: Optional[Snapshot] = None,
        checkpoints: Optional[Sequence[int]] = None,
        checkpoint_cb=None,
    ) -> ExecResult:
        """Execute the program and classify the run.

        ``inject_index`` selects the N-th injectable dynamic site
        (0-based) of the fault model, ``inject_bit`` the fault
        coordinate.  Per-step observation (tracing, site enumeration,
        dynamic instruction counts) is a tap passed to the constructor
        as ``trace=``; see :mod:`repro.trace.tap`.

        Checkpoint-replay runs on either snapshot tier (decoded or
        codegen; naive refuses it): ``checkpoints`` is a sorted list of
        distinct injectable indices; right before the step that
        allocates each one, ``checkpoint_cb(index, snapshot)`` receives
        a :class:`Snapshot`.  After the last one the run stops early
        (status OK, ``extra["early_stop"]``).  Checkpointing runs on
        the decoded core whatever the tier.  ``resume_from`` restores a
        snapshot and executes only the suffix.
        """
        return self._run(None, inject_index, inject_bit, resume_from,
                         checkpoints, checkpoint_cb)

    def _run(self, start, inject_index: Optional[int], inject_bit: int,
             resume_from: Optional[Snapshot],
             checkpoints: Optional[Sequence[int]],
             checkpoint_cb) -> ExecResult:
        """Route to a tier, map the outcome, assemble the result."""
        tier = self.dispatch
        if tier == "naive" and (resume_from is not None
                                or checkpoints is not None):
            raise ReproError(
                "checkpoint-replay needs a snapshot tier "
                f"({' or '.join(map(repr, SNAPSHOT_TIERS))}), "
                "not dispatch='naive'")
        self.inject_index = inject_index
        self.inject_bit = inject_bit
        self._cf_edge = None
        self._armed = False
        if tier == "codegen" and (checkpoints is not None
                                  or self.tracer is not None):
            # generated code has no per-step tap points: snapshot
            # streaming and tapped runs run the bit-identical decoded
            # core; plain runs and resumes stay on codegen
            tier = "decoded"
        early = False
        escape = None
        value = None
        try:
            if tier == "decoded":
                value = self._decoded(start, resume_from, checkpoints,
                                      checkpoint_cb)
            elif tier == "codegen":
                value = self._codegen(start, resume_from)
            else:
                value = self._naive(start)
            status, trap = RunStatus.OK, None
        except CheckpointsDone:
            status, trap = RunStatus.OK, None
            early = True
        except FaultDetected:
            status, trap = RunStatus.DETECTED, None
        except SimTrap as t:
            status, trap = RunStatus.TRAP, t.kind
        except Exception as exc:
            # the containment boundary (DESIGN §11): under an injection,
            # any host exception escaping a faulty step is a DUE, not a
            # harness crash.  Golden/uninjected runs re-raise — a host
            # exception there is a real toolchain bug and must surface.
            if not (self.contain and self._armed
                    and inject_index is not None):
                raise
            status, trap = RunStatus.TRAP, HOST_ESCAPE
            escape = host_escape_record(exc, self.layer, self.dyn_total,
                                        self.dyn_injectable)
        fields, extra = self._finish(value)
        if self.tracer is not None:
            extra["trace"] = self.tracer.trace
        if early:
            extra["early_stop"] = True
        if escape is not None:
            extra["host_escape"] = escape
        if self._cf_edge is not None:
            extra["cf_edge"] = self._cf_edge
        return ExecResult(
            status=status,
            output="".join(self.outputs),
            dyn_total=self.dyn_total,
            dyn_injectable=self.dyn_injectable,
            trap_kind=trap,
            injected=self.injected,
            extra=extra,
            **fields,
        )

    def _resume(self, snap: Snapshot) -> None:
        """The restore preamble of every resume (one simulator may serve
        many replays): memory, outputs, counters and the injection
        flag.  The layer then restores its frames or registers."""
        mem = self.memory
        if snap.mem.size != mem.size:
            raise ReproError(f"snapshot does not match the {self.layer} "
                             "simulator's memory geometry")
        mem.restore(snap.mem)
        self.outputs[:] = snap.outputs
        self.dyn_total = snap.dyn_total
        self.dyn_injectable = snap.dyn_injectable
        self.injected = False
