"""Fault-injection campaign orchestration (§4.3).

A campaign against one binary/level/layer:

1. golden run (also counts dynamic + injectable instructions);
2. draw ``n`` (dynamic-instruction index, bit) pairs uniformly with
   replacement — the paper's standard methodology;
3. re-execute with the single flip, classify the outcome;
4. aggregate counts and keep per-injection records for root-cause
   analysis.

:func:`run_ir_campaign` (LLFI-style) and :func:`run_asm_campaign`
(PINFI-style) are thin entry points over one driver, built from three
parts:

* a **layer adapter** (:class:`_Layer`) holding the only real IR/asm
  differences: which simulator to build, the golden run, which sites a
  traced golden run records, and how a statically pruned draw becomes
  a row;
* **one executor** (:func:`_execute`) that runs ``(position, index,
  bit)`` samples — in-process on the checkpoint-replay engine or the
  naive oracle, or on the supervised pool when ``workers > 1`` — and
  hands each classified row to a ``commit(position, row)`` callback;
* a **sink** behind ``commit``: in-memory rows, the injection journal
  (:class:`repro.fi.resilience.InjectionJournal`), or the
  section-profile store (:mod:`repro.fi.compose`).

A plan decides which samples reach the executor: the uniform draw here,
per-stratum draws in :mod:`repro.fi.prune`, per-section draws in
:mod:`repro.fi.compose`, each optionally pruned by bit-liveness.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..contain import host_escape_result
from ..errors import CampaignError
from ..execresult import ExecResult, RunStatus
from ..faultmodel import fault_bit_range, validate_fault_model
from ..interp.interpreter import IRInterpreter
from ..interp.layout import GlobalLayout
from ..ir.module import Module
from ..machine.machine import AsmMachine, CompiledProgram
from .engine import engine_dispatch, engine_enabled, run_injection_suite
from .outcomes import Outcome
from .stats import wilson_interval

__all__ = [
    "CampaignConfig",
    "InjectionRecord",
    "CampaignResult",
    "run_ir_campaign",
    "run_asm_campaign",
]

DEFAULT_CAMPAIGNS = 300

#: one injection of a plan: (position in the plan, dynamic injectable
#: index, fault coordinate); sinks key rows by position
Sample = Tuple[object, int, int]


def _phase(observer, name: str, **fields):
    """Observer phase context, or a no-op when no observer is attached."""
    if observer is None:
        return nullcontext()
    return observer.phase(name, **fields)


def _record_outcomes(observer, layer: str,
                     counts: Dict[Outcome, int]) -> None:
    if observer is not None:
        observer.outcomes(
            {o.value: c for o, c in counts.items() if c}, layer=layer
        )


@dataclass(frozen=True)
class CampaignConfig:
    """Shared knobs for a fault-injection campaign.

    Validated at construction: a nonsensical configuration raises
    :class:`CampaignError` immediately rather than failing deep inside
    ``np.random`` or silently producing an empty campaign.
    """

    n_campaigns: int = DEFAULT_CAMPAIGNS
    seed: int = 0
    #: timeout = factor x golden dynamic count (hangs become DUEs)
    max_steps_factor: int = 4
    min_max_steps: int = 20_000
    #: statically classify provably-benign draws (bit-liveness pruning,
    #: :mod:`repro.analysis.bitlive`) without simulating them; the draw
    #: itself is unchanged, so every estimate is bit-identical to the
    #: unpruned campaign — only the simulation work shrinks
    prune: bool = False
    #: replace the uniform draw with stratified sampling over the
    #: bit-liveness site classes (pilot + Neyman allocation, composed
    #: interval; see :mod:`repro.fi.prune`)
    stratify: bool = False

    def __post_init__(self) -> None:
        if self.n_campaigns <= 0:
            raise CampaignError(
                f"n_campaigns must be positive, got {self.n_campaigns}")
        if self.seed < 0:
            raise CampaignError(
                f"seed must be non-negative, got {self.seed}")
        if self.max_steps_factor < 1:
            raise CampaignError(
                f"max_steps_factor must be >= 1, got "
                f"{self.max_steps_factor}")
        if self.min_max_steps <= 0:
            raise CampaignError(
                f"min_max_steps must be positive, got "
                f"{self.min_max_steps}")

    def max_steps(self, golden_dyn_total: int) -> int:
        """Step budget of one injected run (a run that hits it is a
        step-budget DUE)."""
        return max(self.min_max_steps,
                   golden_dyn_total * self.max_steps_factor)


@dataclass
class InjectionRecord:
    """One injection and its outcome."""

    dyn_index: int
    bit: int
    outcome: Outcome
    #: static IR iid the fault maps to (None for unmapped asm code)
    iid: Optional[int]
    #: asm-only fields
    asm_index: Optional[int] = None
    asm_role: Optional[str] = None
    asm_opcode: Optional[str] = None
    trap_kind: Optional[str] = None
    #: fault model this injection ran under (legacy records mean "seu")
    fault_model: str = "seu"


@dataclass
class CampaignResult:
    """Aggregated campaign outcome."""

    layer: str                      # 'ir' | 'asm'
    n: int
    counts: Dict[Outcome, int]
    records: List[InjectionRecord]
    golden_output: str
    golden_dyn_total: int
    golden_dyn_injectable: int
    #: dynamic steps actually simulated (initial golden run + engine
    #: checkpoint pass + replayed suffixes, or naive full re-executions);
    #: None when rows came from a journal or pool workers
    simulated_steps: Optional[int] = None

    @property
    def sdc_probability(self) -> float:
        return self.counts.get(Outcome.SDC, 0) / self.n if self.n else 0.0

    @property
    def detected_probability(self) -> float:
        return self.counts.get(Outcome.DETECTED, 0) / self.n if self.n else 0.0

    @property
    def due_probability(self) -> float:
        return self.counts.get(Outcome.DUE, 0) / self.n if self.n else 0.0

    @property
    def pruned(self) -> int:
        """Draws resolved statically by the bit-liveness pruner."""
        return self.counts.get(Outcome.PRUNE_BENIGN, 0)

    def sdc_records(self) -> List[InjectionRecord]:
        return [r for r in self.records if r.outcome is Outcome.SDC]

    def summary(self) -> Dict[str, object]:
        """Outcome rates plus Wilson 95% confidence intervals.

        The ``*_ci`` entries use the same :mod:`repro.fi.stats` helper
        as the composed incremental estimates, so whole-program and
        section-composed summaries are directly comparable.  The benign
        rate folds in statically-pruned draws (they are benign with
        certainty), keeping pruned estimates bit-identical to their
        uniform equivalents; ``pruned`` separately reports how many
        draws never simulated.
        """
        benign_k = (self.counts.get(Outcome.BENIGN, 0)
                    + self.counts.get(Outcome.PRUNE_BENIGN, 0))
        out: Dict[str, object] = {
            "sdc": self.sdc_probability,
            "due": self.due_probability,
            "detected": self.detected_probability,
            "benign": benign_k / self.n if self.n else 0.0,
            "pruned": self.pruned,
        }
        for name, k in (("sdc", self.counts.get(Outcome.SDC, 0)),
                        ("due", self.counts.get(Outcome.DUE, 0)),
                        ("detected", self.counts.get(Outcome.DETECTED, 0)),
                        ("benign", benign_k)):
            out[f"{name}_ci"] = wilson_interval(k, self.n)
        return out


# ---------------------------------------------------------------------------
# the layer adapter
# ---------------------------------------------------------------------------

class _Layer:
    """The IR/asm differences of a campaign, and nothing else.

    ``name`` is ``'ir'`` (the IR interpreter over ``module``) or
    ``'asm'`` (the machine over ``program``); ``fault_model`` is what
    every run of the campaign injects and counts sites for.
    """

    def __init__(self, name: str, *, module: Optional[Module] = None,
                 layout: Optional[GlobalLayout] = None,
                 program: Optional[CompiledProgram] = None,
                 fault_model: Optional[str] = None):
        if name == "ir":
            if module is None:
                raise CampaignError("the IR layer needs module=")
            layout = layout or GlobalLayout(module)
        elif name == "asm":
            if program is None or layout is None:
                raise CampaignError("the asm layer needs program= and "
                                    "layout=")
        else:
            raise CampaignError(f"unknown layer {name!r}")
        self.name = name
        self.module = module
        self.layout = layout
        self.program = program
        self.fault_model = validate_fault_model(fault_model)

    @classmethod
    def of(cls, built, name: str,
           fault_model: Optional[str] = None) -> "_Layer":
        """Adapter over a :class:`~repro.pipeline.BuiltProgram`."""
        return cls(name, module=built.module, layout=built.layout,
                   program=built.compiled, fault_model=fault_model)

    def simulator(self, dispatch: str, max_steps: Optional[int] = None,
                  **options):
        """A fresh simulator; ``max_steps=None`` keeps its default
        budget (golden runs).  ``options`` are further constructor
        keywords (``trace=``, ``contain=``)."""
        if max_steps is not None:
            options["max_steps"] = max_steps
        if self.name == "ir":
            return IRInterpreter(self.module, layout=self.layout,
                                 dispatch=dispatch,
                                 fault_model=self.fault_model, **options)
        return AsmMachine(self.program, self.layout, dispatch=dispatch,
                          fault_model=self.fault_model, **options)

    def golden(self, dispatch: str = "decoded", trace=None) -> ExecResult:
        """The fault-free run; one that does not finish OK is an error.

        Its ``dyn_injectable`` counts the fault model's own site
        universe (cf faults target branch sites, not values)."""
        res = self.simulator(dispatch, trace=trace).run()
        if res.status is not RunStatus.OK:
            raise CampaignError(
                f"golden {self.name} run failed: "
                f"{res.status.value}/{res.trap_kind}")
        return res

    def site_tap(self):
        """A tracer recording the static id (IR iid / asm pc) of every
        dynamic injectable site of the fault model, in allocation
        order (see :func:`repro.fi.sections.traced_sites`)."""
        from .sections import _AsmSiteTap, _IRSiteTap, _ir_site_predicate

        if self.name == "ir":
            return _IRSiteTap(_ir_site_predicate(self.fault_model))
        return _AsmSiteTap(self.program.cf_kind if self.fault_model == "cf"
                           else self.program.inj_kind)

    def pruned_row(self, idx: int, bit: int, plan,
                   golden_output: str) -> Tuple:
        """Row for a draw the bit-liveness ``plan`` proved benign."""
        from .resilience import pruned_row

        static_id = plan.static_id(idx)
        if self.name == "ir":
            return pruned_row("ir", idx, bit, golden_output, static_id,
                              self.fault_model)
        inst = self.program.inst_at(static_id)
        return pruned_row("asm", idx, bit, golden_output, static_id,
                          self.fault_model, asm_role=inst.role,
                          asm_opcode=inst.opcode, iid=inst.prov_iid)


# ---------------------------------------------------------------------------
# plan helpers
# ---------------------------------------------------------------------------

def _draw(
    rng: np.random.Generator, n: int, sites: Sequence[int],
    fault_model: str = "seu",
) -> List[Tuple[int, int]]:
    """Draw ``n`` (dynamic index, fault coordinate) pairs uniformly
    over ``sites`` with replacement.

    The uniform campaign draws over ``range(dyn_injectable)``; a stratum
    or a section over its own ascending dynamic indices.  Each draw is
    two ``rng`` calls — every position, then every coordinate — so a
    seed always yields the same samples (and the same journal and store
    rows).  The coordinate is a bit position in [0, 64) for SEU/SET
    and a redirect coordinate in [0, CF_BIT_RANGE) for control-flow
    faults (reduced modulo the landing-site count at injection time).
    """
    if n <= 0:
        return []
    if not sites:
        raise CampaignError(
            "program has no injectable dynamic instructions under "
            f"fault model {fault_model!r}")
    positions = rng.integers(0, len(sites), size=n)
    coords = rng.integers(0, fault_bit_range(fault_model), size=n)
    return [(sites[p], c)
            for p, c in zip(positions.tolist(), coords.tolist())]


def _tier(engine: Optional[bool], dispatch: Optional[str]) -> str:
    """The tier injections run on: the engine's snapshot tier
    (``dispatch``, else ``REPRO_DISPATCH``), or ``"naive"`` when the
    engine is off (``engine``, else ``REPRO_ENGINE``)."""
    return engine_dispatch(dispatch) if engine_enabled(engine) else "naive"


def _golden(layer: _Layer, observer, engine: Optional[bool],
            dispatch: Optional[str]) -> ExecResult:
    """The ``golden`` phase, on the tier the injections will use."""
    with _phase(observer, "golden", layer=layer.name):
        return layer.golden(_tier(engine, dispatch))


def _prune_plan(layer: _Layer, observer):
    """The ``prune`` phase: a :class:`repro.fi.prune.PrunePlan`."""
    from .prune import build_prune_plan

    with _phase(observer, "prune", layer=layer.name):
        return build_prune_plan(
            layer.name, module=layer.module, layout=layer.layout,
            program=layer.program, fault_model=layer.fault_model)


def _simulated_steps(golden: ExecResult, stats: Dict[str, int]) -> int:
    """The golden run plus every step :func:`_execute` simulated."""
    return golden.dyn_total + sum(
        stats.get(k, 0)
        for k in ("golden_steps", "suffix_steps", "naive_steps"))


# ---------------------------------------------------------------------------
# the executor
# ---------------------------------------------------------------------------

def _execute(
    layer: _Layer,
    samples: Sequence[Sample],
    max_steps: int,
    commit: Callable[[object, Tuple], None],
    *,
    plan=None,
    golden_output: str = "",
    engine: Optional[bool] = None,
    dispatch: Optional[str] = None,
    stats: Optional[Dict[str, int]] = None,
    workers: int = 1,
    spec=None,
    policy=None,
    observer=None,
) -> None:
    """Run ``(position, index, bit)`` samples; ``commit(position, row)``
    once per sample, as soon as its row is classified.

    Rows follow :data:`repro.fi.resilience.ROW_FIELDS`.  With a
    bit-liveness ``plan`` a provably benign draw commits its pruned row
    (against ``golden_output``) and never reaches a simulator.  The
    rest run on the supervised pool when ``workers > 1`` (each worker
    rebuilds ``spec``), otherwise in-process: on the checkpoint-replay
    engine (``engine=None`` defers to ``REPRO_ENGINE``) at tier
    ``dispatch``, or by naive full re-execution.  The tier is resolved
    here, once: pooled and degraded runs use it whatever their own
    environment says.  Every path turns a ``MemoryError``/
    ``RecursionError`` that escapes the simulator into a ``host-escape``
    trap row (DESIGN §11): it belongs to that one injection, not to the
    campaign.  ``stats`` accumulates the steps simulated in-process (see
    :func:`_simulated_steps`).
    """
    from .resilience import _row_from_result

    if plan is not None:
        live = []
        for pos, idx, bit in samples:
            if plan.is_benign(idx, bit):
                commit(pos, layer.pruned_row(idx, bit, plan, golden_output))
            else:
                live.append((pos, idx, bit))
        samples = live
    if not samples:
        return
    fm = layer.fault_model
    tier = _tier(engine, dispatch)
    if workers > 1:
        from .resilience import run_supervised

        # index-sorted chunks keep each chunk's golden checkpointing
        # pass short (it stops at the chunk's last index); ties keep
        # plan order, and sinks key rows by position anyway
        run_supervised(
            spec, sorted(samples, key=lambda s: (s[1], s[0])), max_steps,
            workers=workers, policy=policy, observer=observer,
            commit=commit, adapter=layer, tier=tier)
        return
    if tier != "naive":
        def emit(sample, res):
            pos, idx, bit = sample
            commit(pos, _row_from_result(idx, bit, res, fm))

        run_injection_suite(
            layer.name, [(s, s[1], s[2]) for s in samples], max_steps,
            module=layer.module, layout=layer.layout,
            program=layer.program, emit=emit, dispatch=tier,
            fault_model=fm, stats=stats)
        return
    for pos, idx, bit in samples:
        try:
            res = layer.simulator("naive", max_steps).run(
                inject_index=idx, inject_bit=bit)
        except (MemoryError, RecursionError) as exc:
            res = host_escape_result(exc, layer=layer.name)
        if stats is not None:
            stats["naive_steps"] = stats.get("naive_steps", 0) + res.dyn_total
        commit(pos, _row_from_result(idx, bit, res, fm))


# ---------------------------------------------------------------------------
# the driver and its entry points
# ---------------------------------------------------------------------------

def _run(
    layer: _Layer,
    config: CampaignConfig,
    *,
    observer=None,
    engine: Optional[bool] = None,
    dispatch: Optional[str] = None,
    spec=None,
    workers: int = 1,
    journal_path: Optional[str] = None,
    policy=None,
) -> CampaignResult:
    """Golden run, draw, plan, execute, record — for either layer.

    Rows land in memory, or in the injection journal at
    ``journal_path`` (keyed by ``spec`` and ``config``): a rerun skips
    every journaled position, so a killed campaign resumes to the
    result of an uninterrupted one.
    """
    if config.stratify:
        from .prune import run_stratified_campaign

        return run_stratified_campaign(
            layer.name, config, module=layer.module, layout=layer.layout,
            program=layer.program, observer=observer, engine=engine,
            dispatch=dispatch, fault_model=layer.fault_model)
    from .resilience import InjectionJournal, record_from_row

    golden = _golden(layer, observer, engine, dispatch)
    drawn = _draw(np.random.default_rng(config.seed), config.n_campaigns,
                  range(golden.dyn_injectable), layer.fault_model)
    plan = _prune_plan(layer, observer) if config.prune else None

    journal = None
    rows: Dict[int, Tuple] = {}
    commit = rows.__setitem__
    if journal_path is not None:
        journal = InjectionJournal.open(journal_path, spec, config)
        rows, commit = journal.completed, journal.record
        if rows and observer is not None:
            observer.resume(skipped=len(rows), path=journal.path,
                            layer=layer.name)
    stats: Dict[str, int] = {}
    try:
        with _phase(observer, "inject", layer=layer.name,
                    n=config.n_campaigns, workers=workers):
            _execute(
                layer,
                [(i, idx, bit) for i, (idx, bit) in enumerate(drawn)
                 if i not in rows],
                config.max_steps(golden.dyn_total), commit, plan=plan,
                golden_output=golden.output, engine=engine,
                dispatch=dispatch, stats=stats, workers=workers, spec=spec,
                policy=policy, observer=observer)
    finally:
        if journal is not None:
            journal.close()

    counts: Dict[Outcome, int] = {o: 0 for o in Outcome}
    records: List[InjectionRecord] = []
    for i in range(config.n_campaigns):
        if i not in rows:
            raise CampaignError(
                f"campaign incomplete: sample {i} was never classified")
        outcome, record = record_from_row(rows[i], golden.output)
        counts[outcome] += 1
        records.append(record)
    _record_outcomes(observer, layer.name, counts)
    return CampaignResult(
        layer=layer.name,
        n=config.n_campaigns,
        counts=counts,
        records=records,
        golden_output=golden.output,
        golden_dyn_total=golden.dyn_total,
        golden_dyn_injectable=golden.dyn_injectable,
        simulated_steps=(None if journal is not None or workers > 1
                         else _simulated_steps(golden, stats)),
    )


def run_ir_campaign(
    module: Module,
    config: CampaignConfig = CampaignConfig(),
    layout: Optional[GlobalLayout] = None,
    observer=None,
    engine: Optional[bool] = None,
    dispatch: Optional[str] = None,
    fault_model: Optional[str] = None,
) -> CampaignResult:
    """LLFI-style campaign at the IR layer.

    ``engine`` selects the checkpoint-replay engine (see
    :mod:`repro.fi.engine`): ``None`` defers to ``REPRO_ENGINE``
    (default on).  Results are bit-identical either way; the engine only
    changes how much golden prefix is re-executed per injection.
    ``dispatch`` selects the engine-path tier (``None`` defers to
    ``REPRO_DISPATCH``, default decoded); ignored without the engine.
    ``fault_model`` selects what each injection corrupts (default SEU;
    see :mod:`repro.faultmodel`) — the golden run counts that model's
    injectable sites, so the draw universe follows the model.

    ``config.prune`` resolves provably-benign draws statically
    (:mod:`repro.analysis.bitlive`) without simulating them — same
    draw, same estimates, fewer simulated steps.  ``config.stratify``
    replaces the uniform draw entirely and delegates to
    :func:`repro.fi.prune.run_stratified_campaign`.
    """
    return _run(_Layer("ir", module=module, layout=layout,
                       fault_model=fault_model),
                config, observer=observer, engine=engine, dispatch=dispatch)


def run_asm_campaign(
    program: CompiledProgram,
    layout: GlobalLayout,
    config: CampaignConfig = CampaignConfig(),
    observer=None,
    engine: Optional[bool] = None,
    dispatch: Optional[str] = None,
    fault_model: Optional[str] = None,
) -> CampaignResult:
    """PINFI-style campaign at the assembly layer.

    ``engine``, ``dispatch`` and ``fault_model`` select the
    checkpoint-replay engine, its tier and the injected fault exactly
    as in :func:`run_ir_campaign`; ``config.prune`` and
    ``config.stratify`` behave exactly as there too.
    """
    return _run(_Layer("asm", program=program, layout=layout,
                       fault_model=fault_model),
                config, observer=observer, engine=engine, dispatch=dispatch)
