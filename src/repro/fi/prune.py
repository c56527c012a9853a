"""Benign-draw pruning and stratified sampling (ROADMAP item 3).

Two budget levers on top of the uniform campaign loop, both driven by
the bit-level liveness analysis (:mod:`repro.analysis.bitlive`):

* **Pruning** (``CampaignConfig.prune``) — the campaign draws exactly
  the samples it always drew, but any (dynamic index, bit) pair whose
  static site the analysis proves benign at that coordinate is resolved
  as :attr:`~repro.fi.outcomes.Outcome.PRUNE_BENIGN` without running
  the simulator.  Because the draw is unchanged and a pruned draw's
  true outcome *is* benign, every estimate is bit-identical to the
  unpruned campaign (the BEC observation) — only simulated steps drop.

* **Stratified sampling** (``CampaignConfig.stratify``) — the uniform
  draw is replaced by per-stratum draws over the analysis' site
  classes (``live`` / ``protected`` / ``unknown``), a pilot round
  estimates each stratum's SDC variance, and the remaining budget
  follows Neyman allocation (:func:`repro.fi.stats.neyman_allocation`).
  The composed estimate ``p = sum(W_h p_h)`` is unbiased for *any*
  partition, so the class labels carry no soundness burden; a
  duplication-protected program concentrates its SDC variance in the
  small unprotected stratum, which is where the budget goes (the DETOx
  framing).  Intervals come from
  :func:`repro.fi.stats.composed_interval`, the same machinery the
  incremental section composition uses.

The exhaustive oracle (:func:`verify_benign`) flips *every* pair the
analysis calls benign and asserts bit-identical output — the contract
``tests/test_bitlive_oracle.py`` enforces across both layers, all
dispatch tiers and both bit fault models.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..analysis.bitlive import BitliveConfig, BitliveReport, analyze_asm, analyze_ir
from ..errors import CampaignError
from ..execresult import RunStatus
from ..interp.layout import GlobalLayout
from .campaign import (
    CampaignConfig,
    CampaignResult,
    InjectionRecord,
    _draw,
    _execute,
    _golden,
    _Layer,
    _phase,
    _prune_plan,
    _record_outcomes,
    _simulated_steps,
)
from .engine import run_injection_suite
from .outcomes import Outcome, canonical_trap_kind
from .resilience import record_from_row
from .sections import traced_sites
from .stats import composed_summary, neyman_allocation, wilson_interval

__all__ = [
    "PrunePlan",
    "StratumSummary",
    "StratifiedResult",
    "build_prune_plan",
    "verify_benign",
    "run_stratified_campaign",
    "STRATA",
    "DEFAULT_PILOT",
]

#: stratum order (stable across runs; summaries and draws follow it).
#: ``live`` = live-unprotected, ``protected`` = live-protected
#: (checker/shadow provenance), ``unknown`` = no bit model (XMM/float/
#: pointer payloads).
STRATA = ("live", "protected", "unknown")

#: pilot injections per stratum before Neyman allocation
DEFAULT_PILOT = 30


# ---------------------------------------------------------------------------
# the plan: static analysis joined with one traced golden run
# ---------------------------------------------------------------------------

@dataclass
class PrunePlan:
    """Bit-liveness facts indexed by *dynamic* injectable site.

    ``seq[k]`` is the static id (IR iid / asm pc) the ``k``-th dynamic
    injectable site executes, taken from a traced golden run and
    validated against the simulator's own injectable counter — the same
    discipline as :func:`repro.fi.sections.map_sites`.
    """

    layer: str
    fault_model: str
    #: dynamic injectable index -> static id
    seq: List[int]
    report: BitliveReport
    golden_output: str
    golden_dyn_total: int
    golden_dyn_injectable: int

    def static_id(self, dyn_index: int) -> int:
        return self.seq[dyn_index]

    def is_benign(self, dyn_index: int, bit: int) -> bool:
        """Is drawing ``(dyn_index, bit)`` provably benign?"""
        if not 0 <= dyn_index < len(self.seq):
            return False
        return self.report.benign_pair(self.seq[dyn_index], bit)

    def stratum(self, dyn_index: int) -> str:
        return self.report.site_class.get(self.seq[dyn_index], "unknown")

    def strata_indices(self) -> Dict[str, List[int]]:
        """Non-empty strata -> ascending dynamic injectable indices."""
        out: Dict[str, List[int]] = {name: [] for name in STRATA}
        for dyn, sid in enumerate(self.seq):
            out[self.report.site_class.get(sid, "unknown")].append(dyn)
        return {name: idxs for name, idxs in out.items() if idxs}

    def benign_pairs(self) -> List[Tuple[int, int]]:
        """Every provably-benign (dynamic index, bit) pair — the
        exhaustive oracle's work list."""
        pairs: List[Tuple[int, int]] = []
        for dyn, sid in enumerate(self.seq):
            m = self.report.benign.get(sid, 0)
            if not m:
                continue
            for bit in range(64):
                if (m >> bit) & 1:
                    pairs.append((dyn, bit))
        return pairs

    def stats(self) -> Dict[str, object]:
        strata = self.strata_indices()
        total = len(self.seq)
        benign = sum(
            bin(self.report.benign.get(sid, 0)).count("1")
            for sid in self.seq)
        return {
            "layer": self.layer,
            "fault_model": self.fault_model,
            "dyn_sites": total,
            "benign_pairs": benign,
            "benign_fraction": benign / (64 * total) if total else 0.0,
            "strata": {name: len(idxs) for name, idxs in strata.items()},
        }


def build_prune_plan(
    layer: str,
    *,
    module=None,
    layout: Optional[GlobalLayout] = None,
    program=None,
    fault_model: Optional[str] = None,
    config: BitliveConfig = BitliveConfig(),
) -> PrunePlan:
    """Analyze + trace one golden run into a :class:`PrunePlan`.

    The site sequence comes from the validated traced run that
    :func:`repro.fi.sections.map_sites` also uses
    (:func:`repro.fi.sections.traced_sites`), so predicate/simulator
    drift is a loud :class:`CampaignError`, never a silently unsound
    prune.
    """
    adapter = _Layer(layer, module=module, layout=layout, program=program,
                     fault_model=fault_model)
    fm = adapter.fault_model
    if layer == "ir":
        report = analyze_ir(module, fm, config)
    else:
        report = analyze_asm(program, fm, config)
    golden, seq = traced_sites(adapter)
    return PrunePlan(
        layer=layer,
        fault_model=fm,
        seq=seq,
        report=report,
        golden_output=golden.output,
        golden_dyn_total=golden.dyn_total,
        golden_dyn_injectable=golden.dyn_injectable,
    )


# ---------------------------------------------------------------------------
# the exhaustive oracle
# ---------------------------------------------------------------------------

def verify_benign(
    layer: str,
    *,
    module=None,
    layout: Optional[GlobalLayout] = None,
    program=None,
    fault_model: Optional[str] = None,
    config: BitliveConfig = BitliveConfig(),
    dispatch: Optional[str] = None,
) -> Dict[str, object]:
    """Flip every benign-classified (site, bit) pair; report violations.

    A violation is any pair whose injected run is not status-OK with
    output bit-identical to golden — the pruner's soundness contract.
    Returns ``{"pairs": N, "violations": [(dyn, bit, status, trap), …],
    "plan": …stats…}``; an empty ``violations`` list is the oracle
    passing.
    """
    plan = build_prune_plan(layer, module=module, layout=layout,
                            program=program, fault_model=fault_model,
                            config=config)
    pairs = plan.benign_pairs()
    violations: List[Tuple[int, int, str, Optional[str]]] = []

    def emit(tag, res):
        if res.status is not RunStatus.OK or \
                res.output != plan.golden_output:
            dyn, bit = tag
            violations.append(
                (dyn, bit, res.status.value,
                 canonical_trap_kind(res.trap_kind)))

    if pairs:
        run_injection_suite(
            layer,
            [((dyn, bit), dyn, bit) for dyn, bit in pairs],
            CampaignConfig().max_steps(plan.golden_dyn_total),
            module=module,
            layout=layout,
            program=program,
            emit=emit,
            dispatch=dispatch,
            fault_model=plan.fault_model,
        )
    return {
        "layer": layer,
        "fault_model": plan.fault_model,
        "pairs": len(pairs),
        "violations": violations,
        "plan": plan.stats(),
    }


# ---------------------------------------------------------------------------
# stratified campaigns
# ---------------------------------------------------------------------------

@dataclass
class StratumSummary:
    """One stratum's slice of a stratified campaign."""

    name: str
    #: dynamic-site fraction of the whole draw universe
    weight: float
    #: dynamic injectable sites in the stratum
    sites: int
    n: int
    counts: Dict[Outcome, int]

    def rate(self, outcome: Outcome) -> float:
        return self.counts.get(outcome, 0) / self.n if self.n else 0.0

    def to_doc(self) -> Dict[str, object]:
        benign_k = (self.counts.get(Outcome.BENIGN, 0)
                    + self.counts.get(Outcome.PRUNE_BENIGN, 0))
        return {
            "name": self.name,
            "weight": self.weight,
            "sites": self.sites,
            "n": self.n,
            "sdc": self.rate(Outcome.SDC),
            "sdc_ci": wilson_interval(
                self.counts.get(Outcome.SDC, 0), self.n),
            "due": self.rate(Outcome.DUE),
            "detected": self.rate(Outcome.DETECTED),
            "benign": benign_k / self.n if self.n else 0.0,
            "pruned": self.counts.get(Outcome.PRUNE_BENIGN, 0),
        }


@dataclass
class StratifiedResult(CampaignResult):
    """Campaign result whose estimates compose over strata.

    The base-class ``counts``/``records`` pool every stratum (useful
    for forensics), but the headline probabilities re-weight each
    stratum by its share of the draw universe — the unbiased estimator
    for a stratified design — and ``summary()`` reports
    :func:`repro.fi.stats.composed_interval` CIs.
    """

    strata: List[StratumSummary] = field(default_factory=list)

    def _composed(self) -> Dict[str, object]:
        return composed_summary([s.weight for s in self.strata],
                                [s.counts for s in self.strata],
                                [s.n for s in self.strata])

    @property
    def sdc_probability(self) -> float:
        return self._composed()["sdc"]

    @property
    def due_probability(self) -> float:
        return self._composed()["due"]

    @property
    def detected_probability(self) -> float:
        return self._composed()["detected"]

    def summary(self) -> Dict[str, object]:
        out = self._composed()
        out["strata"] = [s.to_doc() for s in self.strata]
        return out


def run_stratified_campaign(
    layer: str,
    config: CampaignConfig,
    *,
    module=None,
    layout: Optional[GlobalLayout] = None,
    program=None,
    observer=None,
    engine: Optional[bool] = None,
    dispatch: Optional[str] = None,
    fault_model: Optional[str] = None,
) -> StratifiedResult:
    """Stratified campaign over the bit-liveness site classes.

    The total budget is ``config.n_campaigns``: a pilot of up to
    :data:`DEFAULT_PILOT` draws per non-empty stratum, then Neyman
    allocation of the remainder on the pilot's SDC standard deviations.
    Every stratum's draw comes from its own seeded RNG substream, so the
    campaign is deterministic and a stratum's samples never depend on
    the other strata's sizes.  With ``config.prune`` benign draws inside
    each stratum resolve statically, exactly as in the uniform path.
    """
    adapter = _Layer(layer, module=module, layout=layout, program=program,
                     fault_model=fault_model)
    fm = adapter.fault_model
    if fm == "cf":
        raise CampaignError(
            "stratified sampling needs a bit-level fault model "
            "(seu/set); control-flow faults have no bit lattice")
    golden = _golden(adapter, observer, engine, dispatch)
    max_steps = config.max_steps(golden.dyn_total)
    plan = _prune_plan(adapter, observer)
    strata = plan.strata_indices()
    if not strata:
        raise CampaignError("program has no injectable dynamic sites")
    names = [n for n in STRATA if n in strata]
    weights = [len(strata[n]) / len(plan.seq) for n in names]
    rngs = {n: np.random.default_rng([config.seed, STRATA.index(n)])
            for n in names}

    per_stratum: Dict[str, Dict[Outcome, int]] = {
        n: {o: 0 for o in Outcome} for n in names}
    records: List[InjectionRecord] = []
    stats: Dict[str, int] = {}

    def batch(phase: str, sizes: List[int]) -> None:
        """Draw, run and record one batch: each stratum's draws in turn,
        so records follow (batch, stratum, draw position) on every
        execution path."""
        samples: List[Tuple[int, int, int]] = []
        stratum_of: List[str] = []
        for name, k in zip(names, sizes):
            for idx, bit in _draw(rngs[name], k, strata[name], fm):
                samples.append((len(samples), idx, bit))
                stratum_of.append(name)
        rows: Dict[int, Tuple] = {}
        with _phase(observer, phase, layer=layer, n=sum(sizes)):
            _execute(adapter, samples, max_steps, rows.__setitem__,
                     plan=plan if config.prune else None,
                     golden_output=golden.output, engine=engine,
                     dispatch=dispatch, stats=stats)
        for pos, name in enumerate(stratum_of):
            outcome, record = record_from_row(rows[pos], golden.output)
            per_stratum[name][outcome] += 1
            records.append(record)

    budget = config.n_campaigns
    pilot_n = ([min(DEFAULT_PILOT, max(1, budget // (2 * len(names))))]
               * len(names))
    batch("pilot", pilot_n)

    # Neyman allocation of the remaining budget on pilot SDC spread
    sds = []
    for name in names:
        c = per_stratum[name]
        n_h = sum(c.values())
        p_h = c.get(Outcome.SDC, 0) / n_h if n_h else 0.0
        sds.append((p_h * (1 - p_h)) ** 0.5)
    remaining = max(0, budget - sum(pilot_n))
    batch("inject", neyman_allocation(weights, sds, remaining))

    strata_out = [
        StratumSummary(
            name=name,
            weight=w,
            sites=len(strata[name]),
            n=sum(per_stratum[name].values()),
            counts=per_stratum[name],
        )
        for name, w in zip(names, weights)
    ]
    counts = {o: sum(c[o] for c in per_stratum.values()) for o in Outcome}
    _record_outcomes(observer, layer, counts)
    return StratifiedResult(
        layer=layer,
        n=sum(s.n for s in strata_out),
        counts=counts,
        records=records,
        golden_output=golden.output,
        golden_dyn_total=golden.dyn_total,
        golden_dyn_injectable=golden.dyn_injectable,
        simulated_steps=_simulated_steps(golden, stats),
        strata=strata_out,
    )
