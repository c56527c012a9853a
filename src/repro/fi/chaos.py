"""Chaos fuzz harness for the fault containment contract (DESIGN §11).

The containment invariant the simulators promise is: **no injected
fault can crash, hang, or OOM the harness** — every injection, however
hostile its downstream behaviour, terminates as a classified
:class:`~repro.execresult.ExecResult` (a step/memory/output/call-depth
budget trap, a simulated machine trap, or a ``host-escape`` trap when a
host exception crossed the containment boundary).

This module *attacks* that invariant instead of assuming it: it sweeps
seeded random bit-flips across every benchmark, both layers (IR
interpreter and asm machine), and all three dispatch tiers (naive
ladders, pre-decoded closures, exec-compiled generated code), then
reports

* **escapes** — a host exception reached the harness despite the
  boundary, with a minimized reproducer ``(benchmark, layer, dispatch,
  index, bit)``;
* **divergences** — the same injection produced different results under
  two dispatch tiers, breaking the bit-identity contract the
  equivalence suite relies on, or a checkpoint *replay* of it differed
  from that tier's full run (a restore that leaked a faulty run's wild
  write, say — every drawn injection is also replayed through one
  checkpointing golden pass on one reused simulator per
  snapshot-capable tier, the campaign engine's discipline);
* an outcome/trap-kind census proving every injection was classified.

``contain=False`` runs the sweep against the *unguarded* simulators,
which is how the regression suite proves the fuzzer actually detects a
missing boundary (rather than passing vacuously).
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..benchsuite.registry import benchmark_names
from ..errors import CampaignError
from ..execresult import ExecResult
from ..faultmodel import FAULT_MODELS, fault_bit_range, validate_fault_model
from ..simulator import SNAPSHOT_TIERS, TIERS
from .campaign import CampaignConfig, _Layer
from .outcomes import canonical_trap_kind, classify_outcome

__all__ = [
    "ChaosEscape",
    "ChaosDivergence",
    "ChaosReport",
    "chaos_sweep",
    "render_chaos",
    "shrink_case",
    "CHAOS_SCHEMA",
]

CHAOS_SCHEMA = "chaos/2"

#: result fields that must be bit-identical across dispatch modes
_SIG_FIELDS = ("status", "output", "dyn_total", "dyn_injectable",
               "trap_kind", "injected_iid")


@dataclass(frozen=True)
class ChaosEscape:
    """A host exception that reached the harness: the invariant broke.

    The tuple ``(benchmark, layer, dispatch, index, bit)`` is already
    the minimized reproducer — one deterministic injection replays it::

        build(benchmark, scale=...) -> sim(dispatch).run(index, bit)
    """

    benchmark: str
    layer: str                  # 'ir' | 'asm'
    dispatch: str               # 'naive' | 'decoded' | 'codegen'
    index: int                  # injectable dynamic-instruction index
    bit: int
    exc_type: str
    detail: str
    fault_model: str = "seu"

    def reproducer(self) -> str:
        return (f"repro chaos --benchmark {self.benchmark}: "
                f"layer={self.layer} dispatch={self.dispatch} "
                f"fault_model={self.fault_model} "
                f"inject_index={self.index} inject_bit={self.bit} "
                f"-> {self.exc_type}: {self.detail}")


@dataclass(frozen=True)
class ChaosDivergence:
    """One injection whose result differs between dispatch tiers.

    Every tier is compared against the first one executed for the
    injection (``ref_dispatch``, normally ``naive``).  A checkpoint
    replay is compared against its own tier's full run and reported as
    ``other_dispatch=f"{tier}-replay"``."""

    benchmark: str
    layer: str
    index: int
    bit: int
    field: str                  # first differing result field
    ref_dispatch: str
    other_dispatch: str
    ref: str
    other: str
    fault_model: str = "seu"


@dataclass
class ChaosReport:
    """Aggregate of one chaos sweep."""

    scale: str
    seed: int
    n_per_target: int
    benchmarks: List[str]
    layers: Tuple[str, ...]
    dispatches: Tuple[str, ...]
    contain: bool
    fault_models: Tuple[str, ...] = ("seu",)
    injections: int = 0
    classified: int = 0
    #: checkpoint replays checked against full runs (checks, not
    #: injections: they add to neither count above)
    replays: int = 0
    escapes: List[ChaosEscape] = field(default_factory=list)
    divergences: List[ChaosDivergence] = field(default_factory=list)
    outcome_counts: Dict[str, int] = field(default_factory=dict)
    trap_counts: Dict[str, int] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        """The invariant held: everything classified, nothing diverged."""
        return (not self.escapes and not self.divergences
                and self.classified == self.injections)

    def to_doc(self) -> dict:
        return {
            "schema": CHAOS_SCHEMA,
            "scale": self.scale,
            "seed": self.seed,
            "n_per_target": self.n_per_target,
            "benchmarks": list(self.benchmarks),
            "layers": list(self.layers),
            "dispatches": list(self.dispatches),
            "fault_models": list(self.fault_models),
            "contain": self.contain,
            "injections": self.injections,
            "classified": self.classified,
            "replays": self.replays,
            "ok": self.ok,
            "outcome_counts": dict(sorted(self.outcome_counts.items())),
            "trap_counts": dict(sorted(self.trap_counts.items())),
            "escapes": [vars(e).copy() for e in self.escapes],
            "divergences": [vars(d).copy() for d in self.divergences],
        }


def shrink_case(items: Sequence, still_fails: Callable[[List], bool]) -> List:
    """Delta-debugging (ddmin-style) list minimization.

    Given a failing ``items`` list and a deterministic ``still_fails``
    predicate, returns a 1-minimal sublist (original order preserved)
    that still satisfies the predicate: removing any single remaining
    element makes the failure disappear.  The predicate must treat an
    un-runnable candidate (e.g. a program subset that no longer
    compiles) as *not failing*.

    Used to shrink chaos-fuzz reproducers and generated MiniC programs
    (:func:`repro.testgen.minic.minimize_minic`) to minimal witnesses.
    """
    items = list(items)
    if not still_fails(items):
        raise CampaignError("shrink_case: initial case does not fail")
    n = 2
    while len(items) >= 2:
        chunk = max(1, len(items) // n)
        reduced = False
        for start in range(0, len(items), chunk):
            candidate = items[:start] + items[start + chunk:]
            if candidate and still_fails(candidate):
                items = candidate
                n = max(2, n - 1)
                reduced = True
                break
        if not reduced:
            if chunk == 1:
                break
            n = min(len(items), n * 2)
    return items


def _target_rng(seed: int, benchmark: str, layer: str,
                fault_model: str = "seu") -> np.random.Generator:
    """Deterministic per-(benchmark, layer, model) stream, stable across
    runs.  The SEU tag matches the pre-fault-model harness so existing
    seeded sweeps replay bit-identically."""
    tag = f"{benchmark}:{layer}"
    if fault_model != "seu":
        tag += f":{fault_model}"
    return np.random.default_rng([seed, zlib.crc32(tag.encode())])


def _sig(res: ExecResult) -> Dict[str, str]:
    return {
        "status": res.status.value,
        "output": res.output,
        "dyn_total": str(res.dyn_total),
        "dyn_injectable": str(res.dyn_injectable),
        "trap_kind": str(canonical_trap_kind(res.trap_kind)),
        "injected_iid": str(res.injected_iid),
    }


def _compare(report: ChaosReport, benchmark: str, layer: str,
             fault_model: str, index: int, bit: int,
             ref_dispatch: str, ref: Dict[str, str],
             other_dispatch: str, other: Dict[str, str]) -> None:
    """Record the first differing field of two result signatures."""
    for fld in _SIG_FIELDS:
        if ref[fld] != other[fld]:
            report.divergences.append(ChaosDivergence(
                benchmark=benchmark, layer=layer, index=index, bit=bit,
                field=fld, ref_dispatch=ref_dispatch,
                other_dispatch=other_dispatch, ref=ref[fld][:120],
                other=other[fld][:120], fault_model=fault_model))
            return


def _check_replays(report: ChaosReport, benchmark: str, layer: str,
                   fault_model: str, sim: Callable[[str], object],
                   full: Dict[Tuple[str, int, int], ExecResult]) -> None:
    """Replay every injection of ``full`` (keyed ``(tier, index, bit)``)
    from checkpoints: one checkpointing golden pass, one reused
    simulator per tier — each replay restores over the previous one's
    leftovers — and compare against the tier's full run."""
    by_idx: Dict[int, Dict[int, None]] = {}
    for _tier, idx, bit in full:
        by_idx.setdefault(idx, {})[bit] = None
    if not by_idx:
        return
    tiers = sorted({tier for tier, _idx, _bit in full})
    replay_sims = {tier: sim(tier) for tier in tiers}

    def check(idx: int, snap) -> None:
        for bit in by_idx[idx]:
            for tier, rsim in replay_sims.items():
                ref = full.get((tier, idx, bit))
                if ref is None:
                    continue
                report.replays += 1
                try:
                    got = _sig(rsim.run(inject_index=idx, inject_bit=bit,
                                        resume_from=snap))
                except Exception as exc:      # noqa: BLE001
                    got = dict.fromkeys(
                        _SIG_FIELDS,
                        f"replay raised {type(exc).__name__}: {exc}")
                _compare(report, benchmark, layer, fault_model, idx, bit,
                         tier, _sig(ref), f"{tier}-replay", got)

    sim("decoded").run(checkpoints=sorted(by_idx), checkpoint_cb=check)


def chaos_sweep(
    benchmarks: Optional[Sequence[str]] = None,
    scale: str = "tiny",
    n: int = 200,
    seed: int = 2023,
    layers: Sequence[str] = ("ir", "asm"),
    dispatches: Sequence[str] = TIERS,
    contain: Optional[bool] = True,
    progress: Optional[Callable[[str], None]] = None,
    fault_models: Sequence[str] = FAULT_MODELS,
) -> ChaosReport:
    """Fuzz the containment boundary of every simulator configuration.

    For each ``benchmark x layer x fault model``, draws ``n`` seeded
    ``(index, fault-coordinate)`` injections over that model's golden
    injectable range and executes each under every dispatch tier.  Host
    exceptions become :class:`ChaosEscape` records (the harness itself
    never crashes); cross-dispatch result mismatches — every tier
    against the first — become :class:`ChaosDivergence` records; every
    result is classified against the golden output.  The injections are
    then replayed from checkpoints on each snapshot-capable tier, with
    the same ``contain`` and step budget, and a replay that differs
    from its tier's full run is a divergence too.  Simulators come from
    the campaign adapter and the step budget from
    :meth:`~repro.fi.campaign.CampaignConfig.max_steps`, as in a
    campaign.

    ``contain`` is forwarded to the simulators (``False`` disables the
    boundary — used by the regression suite to prove the fuzzer detects
    unguarded paths; ``None`` defers to ``REPRO_CONTAIN``).
    """
    from ..pipeline import build

    names = list(benchmarks) if benchmarks else benchmark_names()
    models = tuple(validate_fault_model(fm) for fm in fault_models)
    report = ChaosReport(
        scale=scale, seed=seed, n_per_target=n, benchmarks=names,
        layers=tuple(layers), dispatches=tuple(dispatches),
        contain=bool(contain) if contain is not None else True,
        fault_models=models,
    )

    for name in names:
        built = build(name, scale=scale)
        for layer in layers:
            for fm in models:
                adapter = _Layer.of(built, layer, fm)
                golden = adapter.golden()
                max_steps = CampaignConfig().max_steps(golden.dyn_total)

                def sim(dispatch):
                    return adapter.simulator(dispatch, max_steps,
                                             contain=contain)

                rng = _target_rng(seed, name, layer, fm)
                indices = rng.integers(0, golden.dyn_injectable, size=n)
                bits = rng.integers(0, fault_bit_range(fm), size=n)

                #: full runs of the snapshot-capable tiers, for replays
                full: Dict[Tuple[str, int, int], ExecResult] = {}
                for idx, bit in zip(indices.tolist(), bits.tolist()):
                    by_dispatch: Dict[str, ExecResult] = {}
                    for dispatch in dispatches:
                        report.injections += 1
                        try:
                            res = sim(dispatch).run(
                                inject_index=idx, inject_bit=bit)
                        except Exception as exc:      # noqa: BLE001
                            report.escapes.append(ChaosEscape(
                                benchmark=name, layer=layer,
                                dispatch=dispatch, index=idx, bit=bit,
                                exc_type=type(exc).__name__,
                                detail=str(exc), fault_model=fm))
                            continue
                        by_dispatch[dispatch] = res
                        if dispatch in SNAPSHOT_TIERS:
                            full[(dispatch, idx, bit)] = res
                        outcome = classify_outcome(res, golden.output)
                        report.classified += 1
                        key = outcome.value
                        report.outcome_counts[key] = \
                            report.outcome_counts.get(key, 0) + 1
                        if res.trap_kind is not None:
                            report.trap_counts[res.trap_kind] = \
                                report.trap_counts.get(res.trap_kind, 0) + 1

                    present = [d for d in dispatches if d in by_dispatch]
                    if len(present) >= 2:
                        ref = present[0]
                        a = _sig(by_dispatch[ref])
                        for other in present[1:]:
                            _compare(report, name, layer, fm, idx, bit,
                                     ref, a, other,
                                     _sig(by_dispatch[other]))
                _check_replays(report, name, layer, fm, sim, full)
                if progress is not None:
                    progress(f"{name:14s} {layer:3s} {fm:3s}  "
                             f"{n * len(tuple(dispatches))} injections  "
                             f"escapes={len(report.escapes)} "
                             f"divergences={len(report.divergences)}")
    return report


def render_chaos(report: ChaosReport) -> str:
    """Human-readable sweep summary (the ``repro chaos`` output)."""
    lines = [
        f"chaos sweep: {len(report.benchmarks)} benchmarks x "
        f"{len(report.layers)} layers x {len(report.fault_models)} "
        f"fault models x {len(report.dispatches)} dispatch tiers x "
        f"{report.n_per_target} injections "
        f"(scale={report.scale}, seed={report.seed}, "
        f"models={'/'.join(report.fault_models)}, "
        f"contain={'on' if report.contain else 'off'})",
        f"  injections executed:  {report.injections}",
        f"  injections classified: {report.classified}",
        f"  checkpoint replays checked: {report.replays}",
        f"  outcomes:  " + ", ".join(
            f"{k}={v}" for k, v in sorted(report.outcome_counts.items())),
        f"  trap kinds: " + (", ".join(
            f"{k}={v}" for k, v in sorted(report.trap_counts.items()))
            or "(none)"),
    ]
    if report.escapes:
        lines.append(f"  HOST ESCAPES: {len(report.escapes)}")
        for esc in report.escapes[:20]:
            lines.append(f"    {esc.reproducer()}")
        if len(report.escapes) > 20:
            lines.append(f"    ... {len(report.escapes) - 20} more")
    if report.divergences:
        lines.append(f"  DISPATCH DIVERGENCES: {len(report.divergences)}")
        for div in report.divergences[:20]:
            lines.append(
                f"    {div.benchmark} {div.layer} idx={div.index} "
                f"bit={div.bit}: {div.field} "
                f"{div.ref_dispatch}={div.ref!r} "
                f"{div.other_dispatch}={div.other!r}")
        if len(report.divergences) > 20:
            lines.append(f"    ... {len(report.divergences) - 20} more")
    lines.append("  invariant: " + ("HELD — no injected fault crashed, "
                                    "hung, or OOMed the harness"
                                    if report.ok else "VIOLATED"))
    return "\n".join(lines) + "\n"
