"""The four workloads, as calls into :mod:`repro`'s public API.

Every library call goes through a module attribute
(``campaign.run_ir_campaign``, never a name imported from it) so the
traced run's span wrappers (:mod:`perfbench.spans`) see it.  Nothing
here pins ``dispatch=`` or reads a ``REPRO_*`` variable: each workload
runs the library's default path, so a change of default shows up.

A workload has four parts: ``setup`` (the first program built and one
golden run per layer — what ``setup_s`` times), ``body`` (the timed
closed loop: each call starts when the previous one returns),
``outcome`` (turns the body's return value into counts, a signature and
the campaigns the gate re-checks, outside the timed region) and
``references`` (extra untimed campaigns the traced run compares
against).  The body's size comes from :data:`perfbench.spec.SIZES`.

Each campaign runs through :meth:`RunEnv.attempt`: a campaign that
raises yields None, and its planned samples count as failed instead of
ending the run.
"""

from __future__ import annotations

import os
import sys
import traceback
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro import pipeline
from repro.benchsuite import registry
from repro.contain import HOST_ESCAPE
from repro.experiments import figure2, runner
from repro.experiments.config import ExperimentConfig
from repro.fi import campaign, parallel
from repro.fi.campaign import CampaignConfig
from repro.fi.engine import engine_dispatch
from repro.fi.journal import scan_jsonl
from repro.fi.outcomes import Outcome
from repro.fi.resilience import WorkSpec

from .probes import simulator

#: the one-line edit of ``main`` the incremental workload applies
EDIT_FROM = "print(xsum);"
EDIT_TO = "print(xsum + 1.0);"

#: drawn samples each probe target replays (the first ones drawn)
PROBE_SAMPLES = 200


@dataclass
class RunEnv:
    """What a body may use besides its size and seed."""

    workdir: str
    observer: object = None
    #: ``span(name, layer, **tags)`` context manager; a no-op untraced
    span: Callable = lambda *a, **k: nullcontext()
    #: one line per campaign that raised
    errors: List[str] = field(default_factory=list)

    def attempt(self, fn):
        """``fn()``, or None when it raises; the traceback goes to
        standard error and its last line to :attr:`errors`."""
        try:
            return fn()
        except Exception:
            text = traceback.format_exc()
            print(text, end="", file=sys.stderr)
            self.errors.append(text.strip().splitlines()[-1])
            return None


@dataclass
class ProbeTarget:
    """One program and layer the traced run's simulator probes time."""

    layer: str
    built: object
    #: a fresh build of the same program, for cold-start timings
    rebuild: Callable[[], object]
    #: drawn ``(dyn_index, bit)`` pairs; None draws uniformly
    samples: Optional[List[Tuple[int, int]]]
    fault_model: str = "seu"


@dataclass
class BodyResult:
    """What one body delivered, measured outside the timed region."""

    attempted: int
    delivered: int
    host_escapes: int
    #: planned samples absent from the results, those of campaigns that
    #: raised included
    missing: int
    #: JSON-safe description of every result; the gate hashes it
    signature: dict
    #: pooled SDC/DUE/detected rates over every returned outcome
    rates: Dict[str, float]
    #: ``(built, CampaignResult)`` pairs whose drawn injections the gate
    #: re-runs naively
    checked: List[Tuple[object, object]] = field(default_factory=list)
    #: exact counts the traced run reports as per-layer metrics
    facts: Dict[str, float] = field(default_factory=dict)
    #: invariant violations found while summarizing (empty when sound)
    problems: List[str] = field(default_factory=list)
    probes: Callable[[], List[ProbeTarget]] = lambda: []
    store_path: Optional[str] = None


# ---------------------------------------------------------------------------
# shared helpers
# ---------------------------------------------------------------------------

def golden_runs(built) -> None:
    """One golden run per layer on the default engine tier."""
    for layer in ("ir", "asm"):
        simulator(built, layer, engine_dispatch()).run()


def campaign_doc(result) -> list:
    """Everything observable about one campaign, JSON-safe."""
    records = result.records
    if getattr(result, "strata", None):
        # a stratified campaign pools its records in execution order,
        # which differs between the engine and the naive path
        records = sorted(records, key=lambda r: (r.dyn_index, r.bit))
    return [
        result.layer, result.n,
        sorted((o.value, c) for o, c in result.counts.items() if c),
        [[r.dyn_index, r.bit, r.outcome.value, r.iid, r.asm_index,
          r.asm_role, r.asm_opcode, r.trap_kind, r.fault_model]
         for r in records],
        result.golden_output, result.golden_dyn_total,
        result.golden_dyn_injectable,
    ]


def pooled_rates(counts: List[Dict[Outcome, int]]) -> Dict[str, float]:
    n = max(1, sum(sum(c.values()) for c in counts))
    return {o.value: sum(c.get(o, 0) for c in counts) / n
            for o in (Outcome.SDC, Outcome.DUE, Outcome.DETECTED)}


def _samples(result) -> List[Tuple[int, int]]:
    return [(r.dyn_index, r.bit) for r in result.records
            if r.outcome is not Outcome.PRUNE_BENIGN][:PROBE_SAMPLES]


def _campaign_outcome(runs, facts=None) -> BodyResult:
    """Outcome of a body whose campaigns are ``(built, CampaignResult or
    None, planned samples)`` triples."""
    pairs = [(built, r) for built, r, _ in runs if r is not None]
    results = [r for _, r in pairs]
    return BodyResult(
        attempted=sum(n for _, _, n in runs),
        delivered=sum(len(r.records) for r in results),
        host_escapes=sum(1 for r in results for rec in r.records
                         if rec.trap_kind == HOST_ESCAPE),
        missing=sum(max(0, n - (len(r.records) if r is not None else 0))
                    for _, r, n in runs),
        signature={"campaigns": [campaign_doc(r) if r is not None else None
                                 for _, r, _ in runs]},
        rates=pooled_rates([r.counts for r in results]),
        checked=pairs,
        facts=facts or {},
    )


class Workload:
    """Defaults for a workload without reference campaigns."""

    #: tracer scope whose engine counters the ``engine.*`` metrics read
    engine_scope = "body"

    def references(self, raw, size, seed, env: RunEnv):
        """Untimed extra campaigns of the traced run: returns extra
        per-layer metrics and the problems they revealed."""
        return {}, []


# ---------------------------------------------------------------------------
# fig2-tiny: the Figure 2 artifact at tiny scale
# ---------------------------------------------------------------------------

class Fig2Tiny(Workload):
    name = "fig2-tiny"

    @staticmethod
    def _names(size) -> List[str]:
        if size["benchmarks"] == "all":
            return registry.benchmark_names()
        return list(size["benchmarks"])

    def setup(self, size) -> None:
        golden_runs(pipeline.build(self._names(size)[0], scale="tiny"))

    def body(self, size, seed, env: RunEnv):
        cfg = ExperimentConfig(
            scale="tiny", campaigns=size["campaigns"],
            profile_campaigns=size["profile_campaigns"], seed=seed,
            benchmarks=tuple(self._names(size)),
            levels=tuple(size["levels"]))
        ctx = runner.ExperimentContext(cfg, observer=env.observer)
        # run_figure2 drives every campaign itself, so one that raises
        # fails the whole body
        return ctx, env.attempt(lambda: figure2.run_figure2(cfg,
                                                            context=ctx))

    def outcome(self, raw, size, seed) -> BodyResult:
        ctx, fig = raw
        names = self._names(size)
        levels = size["levels"]
        n = size["campaigns"]
        # the planner profiles each program only for levels below 100
        profiled = names if min(levels) < 100 else []
        if fig is None:
            attempted = (len(names) * (len(levels) + 1) * 2 * n
                         + len(profiled) * size["profile_campaigns"])
            return BodyResult(attempted=attempted, delivered=0,
                              host_escapes=0, missing=attempted,
                              signature={"campaigns": None},
                              rates=pooled_rates([]))
        runs = []
        for name in names:
            runs += [(ctx.raw_build(name), r, n)
                     for r in ctx.raw_campaigns(name)]
            for level in levels:
                run = ctx.protected_run(name, level)
                runs += [(run.built, run.ir_campaign, n),
                         (run.built, run.asm_campaign, n)]
        out = _campaign_outcome(runs)
        profiles = [ctx.profile(name) for name in profiled]
        out.attempted += len(profiles) * size["profile_campaigns"]
        out.delivered += sum(p.campaigns for p in profiles)
        out.missing += sum(max(0, size["profile_campaigns"] - p.campaigns)
                           for p in profiles)
        out.signature["cells"] = [
            [c.benchmark, c.level, c.ir_coverage, c.asm_coverage]
            for c in fig.cells]
        out.signature["profiles"] = [
            [p.sdc_total, sorted(p.sdc_counts.items())] for p in profiles]

        def probes() -> List[ProbeTarget]:
            targets = []
            for name in names:
                built = ctx.raw_build(name)
                for layer, result in zip(("ir", "asm"),
                                         ctx.raw_campaigns(name)):
                    targets.append(ProbeTarget(
                        layer, built,
                        lambda name=name: pipeline.build(name, scale="tiny"),
                        _samples(result)))
            return targets

        out.probes = probes
        return out


# ---------------------------------------------------------------------------
# campaign-long: uniform SEU campaigns with long suffixes
# ---------------------------------------------------------------------------

class CampaignLong(Workload):
    name = "campaign-long"

    def setup(self, size) -> None:
        golden_runs(pipeline.build(size["benchmark"], scale=size["scale"]))

    def body(self, size, seed, env: RunEnv):
        built = pipeline.build(size["benchmark"], scale=size["scale"])
        cfg = CampaignConfig(n_campaigns=size["n"], seed=seed)
        ir = env.attempt(lambda: campaign.run_ir_campaign(
            built.module, cfg, built.layout, observer=env.observer))
        asm = env.attempt(lambda: campaign.run_asm_campaign(
            built.compiled, built.layout, cfg, observer=env.observer))
        return built, ir, asm

    def outcome(self, raw, size, seed) -> BodyResult:
        built, ir, asm = raw
        out = _campaign_outcome([(built, ir, size["n"]),
                                 (built, asm, size["n"])])

        def rebuild():
            return pipeline.build(size["benchmark"], scale=size["scale"])

        out.probes = lambda: [
            ProbeTarget(r.layer, built, rebuild, _samples(r))
            for r in (ir, asm) if r is not None]
        return out


# ---------------------------------------------------------------------------
# smart-dup100: pruned SEU and pruned+stratified SET on dup-100 programs
# ---------------------------------------------------------------------------

class SmartDup100(Workload):
    name = "smart-dup100"

    def _build(self, size, name):
        return pipeline.build(name, scale=size["scale"], level=size["level"])

    def setup(self, size) -> None:
        golden_runs(self._build(size, size["benchmarks"][0]))

    def body(self, size, seed, env: RunEnv):
        runs = []
        for name in size["benchmarks"]:
            built = self._build(size, name)
            asm = env.attempt(lambda: campaign.run_asm_campaign(
                built.compiled, built.layout,
                CampaignConfig(n_campaigns=size["n"], seed=seed, prune=True),
                observer=env.observer))
            ir = env.attempt(lambda: campaign.run_ir_campaign(
                built.module,
                CampaignConfig(n_campaigns=size["n"], seed=seed, prune=True,
                               stratify=True),
                built.layout, observer=env.observer, fault_model="set"))
            runs.append((name, built, asm, ir))
        return runs

    def outcome(self, raw, size, seed) -> BodyResult:
        runs = [(built, r, size["n"]) for _, built, asm, ir in raw
                for r in (asm, ir)]
        returned = [r for _, r, _ in runs if r is not None]
        out = _campaign_outcome(
            runs, facts={"prune.pruned_frac": (
                sum(r.pruned for r in returned)
                / max(1, sum(r.n for r in returned)))})

        def probes() -> List[ProbeTarget]:
            targets = []
            for name, built, asm, ir in raw:
                rebuild = (lambda name=name: self._build(size, name))
                if asm is not None:
                    targets.append(ProbeTarget("asm", built, rebuild,
                                               _samples(asm)))
                if ir is not None:
                    targets.append(ProbeTarget("ir", built, rebuild,
                                               _samples(ir), "set"))
            return targets

        out.probes = probes
        return out

    def references(self, raw, size, seed, env: RunEnv):
        """Uniform campaigns on the identical draws: the denominators of
        ``prune.steps_ratio`` and ``stratify.steps_ratio``.  Pruning
        must also leave the asm estimates bit-identical."""
        uniform_asm = pruned_asm = uniform_ir = stratified_ir = 0
        problems = []
        for name, built, asm, ir in raw:
            cfg = CampaignConfig(n_campaigns=size["n"], seed=seed)
            if asm is not None:
                with env.span("uniform-asm", "reference"):
                    u_asm = campaign.run_asm_campaign(built.compiled,
                                                      built.layout, cfg)
                problems += [
                    f"{name}: pruned asm {key} estimate differs from the "
                    f"uniform campaign on the same draw"
                    for key in ("sdc", "due", "detected", "benign")
                    if u_asm.summary()[key] != asm.summary()[key]]
                uniform_asm += u_asm.simulated_steps
                pruned_asm += asm.simulated_steps
            if ir is not None:
                with env.span("uniform-ir-set", "reference"):
                    u_ir = campaign.run_ir_campaign(built.module, cfg,
                                                    built.layout,
                                                    fault_model="set")
                uniform_ir += u_ir.simulated_steps
                stratified_ir += ir.simulated_steps
        return {"prune.steps_ratio": uniform_asm / max(1, pruned_asm),
                "stratify.steps_ratio": uniform_ir / max(1, stratified_ir),
                }, problems


# ---------------------------------------------------------------------------
# incremental-2w: cold / edit / warm on a shared store, 2 workers
# ---------------------------------------------------------------------------

def _store_host_escapes(path: str) -> int:
    """Host-escape traps among the store's rows: each simulated
    injection once, however often its section is served afterwards."""
    escapes = []

    def count(doc):
        # row: [idx, bit, status, output, iid, asm_index, asm_role,
        #       asm_opcode, trap_kind, fault_model]
        if doc.get("ev") == "row" and doc["row"][8] == HOST_ESCAPE:
            escapes.append(doc["row"])

    if os.path.exists(path):
        scan_jsonl(path, count)
    return len(escapes)


class Incremental2w(Workload):
    name = "incremental-2w"
    PHASES = ("cold", "edit", "warm")
    #: the pool's workers run the engine out of this process's sight, so
    #: engine counts come from the workers=1 reference over the same plan
    engine_scope = "reference"

    def setup(self, size) -> None:
        golden_runs(pipeline.build(size["benchmark"], scale=size["scale"]))

    def sources(self, size) -> Tuple[str, str]:
        src = registry.load_source(size["benchmark"], size["scale"])
        edited = src.replace(EDIT_FROM, EDIT_TO)
        if edited == src:
            raise ValueError(f"edit target {EDIT_FROM!r} not found")
        return src, edited

    def run_phase(self, size, seed, layer, source, store, workers, observer):
        spec = WorkSpec(source=source, name=size["benchmark"], layer=layer)
        return parallel.run_incremental_campaign_for_spec(
            spec, CampaignConfig(n_campaigns=size["n"], seed=seed),
            store_path=store, workers=workers, observer=observer)

    def body(self, size, seed, env: RunEnv):
        src, edited = self.sources(size)
        store = os.path.join(env.workdir, "store.jsonl")
        runs = []
        for layer in ("ir", "asm"):
            for phase, source in zip(self.PHASES, (src, edited, edited)):
                with env.span("incremental", "fi.compose", phase=phase,
                              layer_name=layer):
                    r = env.attempt(lambda: self.run_phase(
                        size, seed, layer, source, store, size["workers"],
                        env.observer))
                runs.append((layer, phase, r))
        return store, runs

    @staticmethod
    def composed_doc(r) -> list:
        return [r.simulated, r.cache_hits, r.n_total,
                sorted((o.value, c) for o, c in r.counts.items() if c),
                [[s.profile.key, s.profile.name, s.profile.n, s.cached,
                  s.simulated,
                  sorted((o.value, c) for o, c in s.profile.counts.items()
                         if c)]
                 for s in r.sections]]

    def outcome(self, raw, size, seed) -> BodyResult:
        store, runs = raw
        n = size["n"]
        returned = [(phase, r) for _, phase, r in runs if r is not None]
        # a composed result may serve a cached profile larger than the
        # plan; only a shortfall is a missing sample
        short = sum(max(0, n - r.n_total) for _, r in returned)
        out = BodyResult(
            attempted=len(runs) * n,
            delivered=sum(r.n_total for _, r in returned),
            host_escapes=_store_host_escapes(store),
            missing=short + n * (len(runs) - len(returned)),
            signature={"runs": [
                [layer, phase, self.composed_doc(r) if r else None]
                for layer, phase, r in runs]},
            rates=pooled_rates([r.counts for _, r in returned]),
            facts={f"compose.{phase}_simulated": sum(
                r.simulated for p, r in returned if p == phase)
                for phase in ("edit", "warm")},
            store_path=store,
        )
        if short:
            out.problems.append(f"{short} planned samples missing")
        if out.facts["compose.warm_simulated"]:
            out.problems.append("warm runs simulated injections")
        src, _ = self.sources(size)

        def probes() -> List[ProbeTarget]:
            def rebuild():
                return pipeline.build_from_source(src,
                                                  name=size["benchmark"])
            built = rebuild()
            return [ProbeTarget(layer, built, rebuild, None)
                    for layer in ("ir", "asm")]

        out.probes = probes
        return out

    def references(self, raw, size, seed, env: RunEnv):
        """The cold runs again with ``workers=1`` on a fresh store: the
        numerator of ``pool.speedup_vs_serial``.  Composition is
        worker-count independent, so the results must match."""
        _, runs = raw
        src, _ = self.sources(size)
        store = os.path.join(env.workdir, "serial.jsonl")
        problems = []
        for layer, phase, pooled in runs:
            if phase != "cold" or pooled is None:
                continue
            with env.span("incremental", "fi.compose", phase="serial",
                          layer_name=layer):
                serial = self.run_phase(size, seed, layer, src, store, 1,
                                        None)
            if self.composed_doc(serial) != self.composed_doc(pooled):
                problems.append(
                    f"{layer}: workers=1 cold run differs from workers=2")
        return {}, problems


WORKLOADS = {w.name: w for w in (Fig2Tiny(), CampaignLong(), SmartDup100(),
                                 Incremental2w())}
