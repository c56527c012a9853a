"""Campaign throughput benchmark: naive re-execution vs the engine.

Measures end-to-end fault-injection campaign time at both layers for
one benchmark/scale, twice each: once on the pre-engine path (naive
dispatch, full golden-prefix re-execution per injection) and once
through the checkpoint-replay engine on its default replay tier, which
the campaign executor routes per call (DESIGN §13.5).  The
two runs must produce bit-identical :class:`CampaignResult`s — the
speedup is only meaningful if the engine changes nothing but time — so
the harness asserts record-level equality before reporting.

The emitted document (``BENCH_campaign.json``) is the PR's performance
artifact; ``repro bench`` and ``scripts/bench_campaign.py`` are thin
wrappers, and ``benchmarks/test_perf_simulators.py`` enforces the
speedup floor on the CI smoke workload.

Since bench_campaign/2 the document also carries a ``containment``
section: the same engine campaign timed with the fault containment
sandbox (DESIGN §11) disabled (``REPRO_CONTAIN=0``) and enabled,
proving the budgets-and-boundary machinery costs a few percent at most
and changes no result.

Since bench_campaign/4 each layer carries a ``codegen`` section: the
same engine campaign timed warm on the decoded tier and on the
template-generated codegen tier (``dispatch="codegen"``, DESIGN §13),
asserting record-level bit-identity, plus warm single golden-run
timings of both tiers (best of 3).  The campaign-level speedup is
diluted by the golden checkpointing pass (which always streams from
the decoded core); the ``run_speedup`` figures measure the generated
code itself and carry the >= 2x acceptance floor.

Since bench_campaign/5 each layer carries an ``incremental`` section
(DESIGN §15): the section-level compositional campaign run cold (empty
profile store — every section simulates, plus the one traced golden
pass that enumerates sites) and warm (identical program — every
section is a store hit, zero injections simulated).  The cold run must
stay within the 1.3x acceptance ratio of the plain engine campaign,
measured as the median ratio over alternating (engine, cold) pairs; the
warm run is the "plan re-evaluation" path and carries the >= 10x floor
enforced by ``benchmarks/test_perf_simulators.py``.

Since bench_campaign/6 it carries a ``pruning`` section (DESIGN §17):
the same fully-duplicated program measured under the two smart-sampling
mechanisms.  A pruned+stratified campaign (bit-liveness site classes,
pilot + Neyman allocation) must reproduce the 3000-injection uniform
campaign's SDC estimate — estimate inside the uniform CI, intervals
overlapping, equal-or-narrower width — at >= 2x fewer simulated steps
(the floor ``benchmarks/test_perf_simulators.py`` enforces); and a
pruned campaign over the *identical* uniform draw must return
bit-identical outcome estimates while skipping the simulation of every
statically-benign draw.

Since bench_campaign/3 it additionally carries a ``testgen`` section
(DESIGN §12): a differential-oracle smoke over a handful of generated
programs timed against a 60 s budget, plus the
``campaign_imports_testgen`` flag — recorded *before* the smoke pulls
the package in — proving the campaigns above executed without ever
importing :mod:`repro.testgen` (its runtime cost to campaigns is
exactly zero, not merely small).
"""

from __future__ import annotations

import gc
import os
import statistics
import sys
import tempfile
import time
from contextlib import contextmanager
from typing import Dict, List, Optional, Tuple

from ..fi.campaign import CampaignConfig, CampaignResult
from ..pipeline import build

__all__ = ["run_campaign_bench", "render_bench", "campaign_signature"]

BENCH_SCHEMA = "bench_campaign/6"

#: wall-clock budget for the testgen oracle-matrix smoke
TESTGEN_BUDGET_SECONDS = 60.0
#: seeds the smoke sweeps (each runs one MiniC and one direct-IR matrix)
TESTGEN_SMOKE_SEEDS = (0, 1, 2)

#: CI smoke workload: long enough traces (golden IR ~54k / asm ~121k
#: dynamic steps at medium scale) that checkpoint-replay amortization
#: dominates the fixed snapshot/restore cost per injection
DEFAULT_BENCHMARK = "pathfinder"
DEFAULT_SCALE = "medium"
DEFAULT_N = 40
DEFAULT_SEED = 2023

#: alternating (engine, cold incremental) campaign pairs behind each
#: ``cold_ratio_vs_engine``.  On a shared 2-vCPU host one asm pair in
#: six read above 1.3x, in bursts of several pairs; medians of 11
#: consecutive pairs read at most 1.21x
COLD_RATIO_PAIRS = 11

#: pruning-section workload: fully duplicated so the bit-liveness
#: analysis has a checker-shadowed stratum to allocate away from; tiny
#: scale keeps the 3000-injection uniform reference CI-affordable
PRUNING_BENCHMARK = "pathfinder"
PRUNING_SCALE = "tiny"
PRUNING_LEVEL = 100
#: the uniform reference budget (the paper-scale per-cell campaign)
PRUNING_UNIFORM_N = 3000
#: stratified budget sized for the same CI width as the uniform
#: reference — the >= 2x steps floor is measured at equal precision
PRUNING_STRATIFIED_N = 1000
#: budget of the prune bit-identity check (asm layer, same draw)
PRUNING_PRUNE_N = 1000


def campaign_signature(result: CampaignResult) -> Tuple:
    """Everything observable about a campaign, as a comparable value."""
    return (
        result.layer,
        result.n,
        tuple(sorted((o.value, c) for o, c in result.counts.items())),
        tuple(
            (r.dyn_index, r.bit, r.outcome.value, r.iid, r.asm_index,
             r.asm_role, r.asm_opcode, r.trap_kind)
            for r in result.records
        ),
        result.golden_output,
        result.golden_dyn_total,
        result.golden_dyn_injectable,
    )


def _time_campaign(run, *args, **kwargs) -> Tuple[float, CampaignResult]:
    t0 = time.perf_counter()
    result = run(*args, **kwargs)
    return time.perf_counter() - t0, result


def _time_golden(built, layer: str, dispatch: str,
                 rounds: int = 3) -> float:
    """Best-of-``rounds`` wall time of one full golden run (warm —
    callers must have executed the tier once already so decode/codegen
    caches are primed)."""
    from ..interp.interpreter import IRInterpreter
    from ..machine.machine import AsmMachine

    best = float("inf")
    for _ in range(rounds):
        if layer == "ir":
            sim = IRInterpreter(built.module, layout=built.layout,
                                dispatch=dispatch)
        else:
            sim = AsmMachine(built.compiled, built.layout,
                             dispatch=dispatch)
        t0 = time.perf_counter()
        sim.run()
        best = min(best, time.perf_counter() - t0)
    return best


def _time_cold_pairs(engine, cold, store_dir: str):
    """Time the plain engine campaign and a cold incremental campaign as
    :data:`COLD_RATIO_PAIRS` back-to-back pairs, so drift hits both
    alike.  The first runner alternates between pairs, so neither always
    pays the warm-up; the collector is paused while timing and runs
    between pairs; each cold run gets a fresh store under ``store_dir``.
    ``cold(store)`` runs the incremental campaign on an open store.
    Returns the ``(engine, cold)`` seconds of every pair, the last cold
    result and its store path."""
    from .compose import SectionProfileStore

    pairs = []
    enabled = gc.isenabled()
    gc.disable()
    try:
        for i in range(COLD_RATIO_PAIRS):
            gc.collect()
            store_path = os.path.join(store_dir, f"store{i}.jsonl")
            with SectionProfileStore(store_path) as store:
                secs = {}
                for name in (("engine", "cold") if i % 2 == 0
                             else ("cold", "engine")):
                    if name == "engine":
                        secs[name], _ = _time_campaign(engine)
                    else:
                        secs[name], cold_res = _time_campaign(cold, store)
            pairs.append((secs["engine"], secs["cold"]))
    finally:
        if enabled:
            gc.enable()
    return pairs, cold_res, store_path


def _run_pruning_section() -> Dict:
    """The smart-sampling benchmark (DESIGN §17), as a JSON-safe doc.

    IR layer: pruned+stratified vs the 3000-injection uniform reference
    at equal CI width — the estimate must land inside the uniform CI
    with >= 2x fewer simulated steps.  Asm layer: pruning alone over the
    identical uniform draw — estimates must be bit-identical with every
    statically-benign draw's simulation skipped.  All step counts are
    deterministic for the fixed (benchmark, scale, seed), so the ratios
    below are reproducible figures, not wall-clock noise.
    """
    from .campaign import run_asm_campaign, run_ir_campaign

    built = build(PRUNING_BENCHMARK, scale=PRUNING_SCALE,
                  level=PRUNING_LEVEL)
    uni_s, uniform = _time_campaign(
        run_ir_campaign, built.module,
        CampaignConfig(n_campaigns=PRUNING_UNIFORM_N, seed=DEFAULT_SEED),
        built.layout, dispatch="codegen")
    strat_s, strat = _time_campaign(
        run_ir_campaign, built.module,
        CampaignConfig(n_campaigns=PRUNING_STRATIFIED_N,
                       seed=DEFAULT_SEED, prune=True, stratify=True),
        built.layout, dispatch="codegen")
    us, ss = uniform.summary(), strat.summary()
    u_lo, u_hi = us["sdc_ci"]
    s_lo, s_hi = ss["sdc_ci"]
    steps_ratio = (uniform.simulated_steps / strat.simulated_steps
                   if strat.simulated_steps else float("inf"))

    asm_uni_s, asm_uni = _time_campaign(
        run_asm_campaign, built.compiled, built.layout,
        CampaignConfig(n_campaigns=PRUNING_PRUNE_N, seed=DEFAULT_SEED),
        dispatch="codegen")
    asm_pr_s, asm_pr = _time_campaign(
        run_asm_campaign, built.compiled, built.layout,
        CampaignConfig(n_campaigns=PRUNING_PRUNE_N, seed=DEFAULT_SEED,
                       prune=True),
        dispatch="codegen")
    au, ap = asm_uni.summary(), asm_pr.summary()
    prune_identical = all(
        au[k] == ap[k] for k in ("sdc", "due", "detected", "benign"))
    prune_ratio = (asm_uni.simulated_steps / asm_pr.simulated_steps
                   if asm_pr.simulated_steps else float("inf"))
    return {
        "benchmark": PRUNING_BENCHMARK,
        "scale": PRUNING_SCALE,
        "level": PRUNING_LEVEL,
        "stratified": {
            "layer": "ir",
            "uniform_n": PRUNING_UNIFORM_N,
            "stratified_n": PRUNING_STRATIFIED_N,
            "uniform_sdc": us["sdc"],
            "uniform_sdc_ci": [u_lo, u_hi],
            "stratified_sdc": ss["sdc"],
            "stratified_sdc_ci": [s_lo, s_hi],
            "uniform_steps": uniform.simulated_steps,
            "stratified_steps": strat.simulated_steps,
            "steps_ratio": steps_ratio,
            "uniform_seconds": uni_s,
            "stratified_seconds": strat_s,
            "within_uniform_ci": u_lo <= ss["sdc"] <= u_hi,
            "ci_overlap": s_lo <= u_hi and u_lo <= s_hi,
            "width_ok": (s_hi - s_lo) <= (u_hi - u_lo),
        },
        "prune": {
            "layer": "asm",
            "n": PRUNING_PRUNE_N,
            "pruned": asm_pr.pruned,
            "uniform_steps": asm_uni.simulated_steps,
            "pruned_steps": asm_pr.simulated_steps,
            "steps_ratio": prune_ratio,
            "uniform_seconds": asm_uni_s,
            "pruned_seconds": asm_pr_s,
            "estimates_identical": prune_identical,
        },
        "sound": (u_lo <= ss["sdc"] <= u_hi and prune_identical
                  and steps_ratio >= 2.0),
    }


@contextmanager
def _contain_env(value: str):
    """Temporarily pin ``REPRO_CONTAIN`` (the sandbox on/off switch)."""
    prev = os.environ.get("REPRO_CONTAIN")
    os.environ["REPRO_CONTAIN"] = value
    try:
        yield
    finally:
        if prev is None:
            os.environ.pop("REPRO_CONTAIN", None)
        else:
            os.environ["REPRO_CONTAIN"] = prev


def run_campaign_bench(
    benchmark: str = DEFAULT_BENCHMARK,
    scale: str = DEFAULT_SCALE,
    n: int = DEFAULT_N,
    seed: int = DEFAULT_SEED,
    level: Optional[int] = None,
    flowery: bool = False,
) -> Dict:
    """Benchmark naive vs engine campaign execution at both layers.

    Returns a JSON-safe document; see :data:`BENCH_SCHEMA`.  The
    ``steps_per_sec`` figures are *nominal*: golden dynamic steps × n
    divided by wall time, i.e. the rate at which naive-equivalent work
    is retired — the engine's value exceeds its real executed-step rate
    exactly because it skips redundant golden prefixes.
    """
    from .campaign import run_asm_campaign, run_ir_campaign

    built = build(benchmark, scale=scale, level=level, flowery=flowery)
    cfg = CampaignConfig(n_campaigns=n, seed=seed)

    layers: Dict[str, Dict] = {}
    cold_pairs: Dict[str, List[Tuple[float, float]]] = {}
    for layer in ("ir", "asm"):
        if layer == "ir":
            args = (built.module, cfg, built.layout)
            run = run_ir_campaign
        else:
            args = (built.compiled, built.layout, cfg)
            run = run_asm_campaign
        naive_s, naive_res = _time_campaign(run, *args, engine=False)
        engine_s, engine_res = _time_campaign(run, *args, engine=True)
        # containment overhead: the same engine campaign with the fault
        # containment sandbox off vs on (both warm — the run above
        # already primed decode caches and allocator pools)
        with _contain_env("0"):
            off_s, off_res = _time_campaign(run, *args, engine=True)
        with _contain_env("1"):
            on_s, on_res = _time_campaign(run, *args, engine=True)
        # dispatch tiers on the engine path: decoded vs generated code,
        # both warm (the first codegen run below builds and caches the
        # generated source; only the second is timed)
        _time_campaign(run, *args, engine=True, dispatch="codegen")
        dec_s, dec_res = _time_campaign(run, *args, engine=True,
                                        dispatch="decoded")
        cg_s, cg_res = _time_campaign(run, *args, engine=True,
                                      dispatch="codegen")
        identical = campaign_signature(naive_res) == \
            campaign_signature(engine_res)
        contain_identical = campaign_signature(off_res) == \
            campaign_signature(on_res)
        codegen_identical = campaign_signature(dec_res) == \
            campaign_signature(cg_res)
        # raw tier throughput: one full golden run per tier, warm
        run_dec_s = _time_golden(built, layer, "decoded")
        run_cg_s = _time_golden(built, layer, "codegen")
        # compositional incremental campaign: cold (empty store, every
        # section simulates + one traced site-enumeration pass) vs warm
        # (same program — pure store lookups, the plan-re-evaluation
        # path).  Timed against the plain engine campaign.
        from .compose import (
            _SITE_MAPS, SectionProfileStore, run_incremental_campaign,
        )

        def cold(store):
            # every cold run pays the traced site-enumeration pass, not
            # only the first one in the process
            _SITE_MAPS.pop(built.module, None)
            return run_incremental_campaign(built, layer, cfg, store)

        with tempfile.TemporaryDirectory(
                prefix="repro-bench-store-") as store_dir:
            pairs, inc_cold, store_path = _time_cold_pairs(
                lambda: run(*args, engine=True), cold, store_dir)
            with SectionProfileStore(store_path) as inc_store:
                inc_warm_s, inc_warm = _time_campaign(
                    run_incremental_campaign, built, layer, cfg, inc_store)
        cold_pairs[layer] = pairs
        work = naive_res.golden_dyn_total * n
        layers[layer] = {
            "naive_seconds": naive_s,
            "engine_seconds": engine_s,
            "speedup": naive_s / engine_s if engine_s > 0 else float("inf"),
            "naive_campaigns_per_sec": n / naive_s,
            "engine_campaigns_per_sec": n / engine_s,
            "naive_steps_per_sec": work / naive_s,
            "engine_steps_per_sec": work / engine_s,
            "golden_dyn_total": naive_res.golden_dyn_total,
            "golden_dyn_injectable": naive_res.golden_dyn_injectable,
            "results_identical": identical,
            "containment": {
                "off_seconds": off_s,
                "on_seconds": on_s,
                "overhead_pct": (on_s - off_s) / off_s * 100.0
                if off_s > 0 else 0.0,
                "results_identical": contain_identical,
            },
            "codegen": {
                "decoded_seconds": dec_s,
                "codegen_seconds": cg_s,
                "speedup": dec_s / cg_s if cg_s > 0 else float("inf"),
                "run_decoded_seconds": run_dec_s,
                "run_codegen_seconds": run_cg_s,
                "run_speedup": run_dec_s / run_cg_s
                if run_cg_s > 0 else float("inf"),
                "results_identical": codegen_identical,
            },
            "incremental": {
                "sections": len(inc_cold.sections),
                "cold_seconds": statistics.median(c for _, c in pairs),
                "warm_seconds": inc_warm_s,
                "cold_simulated": inc_cold.simulated,
                "warm_simulated": inc_warm.simulated,
                "cold_ratio_vs_engine": statistics.median(
                    c / e for e, c in pairs),
                "warm_speedup_vs_engine": engine_s / inc_warm_s
                if inc_warm_s > 0 else float("inf"),
                "warm_pure_hits": inc_warm.simulated == 0,
            },
        }

    pruning = _run_pruning_section()

    # zero-runtime-cost proof: nothing the campaigns above executed may
    # have imported the validation tooling.  Snapshot the flag *before*
    # the oracle smoke imports it.
    campaign_imports_testgen = any(
        name == "repro.testgen" or name.startswith("repro.testgen.")
        for name in sys.modules
    )
    from ..frontend.codegen import compile_source
    from ..testgen import generate_ir, generate_minic, run_differential_oracle

    t0 = time.perf_counter()
    oracle_runs = 0
    oracle_ok = True
    for s in TESTGEN_SMOKE_SEEDS:
        prog = generate_minic(s)
        for name, make in (
            (f"minic-{s}", lambda p=prog, s=s: compile_source(
                p.source, f"bench-minic{s}")),
            (f"ir-{s}", lambda s=s: generate_ir(s)),
        ):
            report = run_differential_oracle(make, name=name)
            oracle_runs += report.runs
            oracle_ok = oracle_ok and report.ok
    oracle_s = time.perf_counter() - t0
    testgen = {
        "oracle_seeds": list(TESTGEN_SMOKE_SEEDS),
        "oracle_programs": 2 * len(TESTGEN_SMOKE_SEEDS),
        "oracle_matrix_runs": oracle_runs,
        "oracle_seconds": oracle_s,
        "budget_seconds": TESTGEN_BUDGET_SECONDS,
        "within_budget": oracle_s < TESTGEN_BUDGET_SECONDS,
        "oracle_ok": oracle_ok,
        "campaign_imports_testgen": campaign_imports_testgen,
    }

    naive_total = sum(d["naive_seconds"] for d in layers.values())
    engine_total = sum(d["engine_seconds"] for d in layers.values())
    contain_off_total = sum(
        d["containment"]["off_seconds"] for d in layers.values())
    contain_on_total = sum(
        d["containment"]["on_seconds"] for d in layers.values())
    codegen_dec_total = sum(
        d["codegen"]["decoded_seconds"] for d in layers.values())
    codegen_cg_total = sum(
        d["codegen"]["codegen_seconds"] for d in layers.values())
    inc_cold_total = sum(
        d["incremental"]["cold_seconds"] for d in layers.values())
    inc_warm_total = sum(
        d["incremental"]["warm_seconds"] for d in layers.values())
    run_dec_total = sum(
        d["codegen"]["run_decoded_seconds"] for d in layers.values())
    run_cg_total = sum(
        d["codegen"]["run_codegen_seconds"] for d in layers.values())
    return {
        "schema": BENCH_SCHEMA,
        "params": {
            "benchmark": benchmark,
            "scale": scale,
            "n_campaigns": n,
            "seed": seed,
            "level": level,
            "flowery": flowery,
        },
        "layers": layers,
        "pruning": pruning,
        "testgen": testgen,
        "overall": {
            "naive_seconds": naive_total,
            "engine_seconds": engine_total,
            "speedup": naive_total / engine_total
            if engine_total > 0 else float("inf"),
            "results_identical": all(
                d["results_identical"] for d in layers.values()),
            "containment": {
                "off_seconds": contain_off_total,
                "on_seconds": contain_on_total,
                "overhead_pct": (contain_on_total - contain_off_total)
                / contain_off_total * 100.0
                if contain_off_total > 0 else 0.0,
                "results_identical": all(
                    d["containment"]["results_identical"]
                    for d in layers.values()),
            },
            "codegen": {
                "decoded_seconds": codegen_dec_total,
                "codegen_seconds": codegen_cg_total,
                "speedup": codegen_dec_total / codegen_cg_total
                if codegen_cg_total > 0 else float("inf"),
                "run_decoded_seconds": run_dec_total,
                "run_codegen_seconds": run_cg_total,
                "run_speedup": run_dec_total / run_cg_total
                if run_cg_total > 0 else float("inf"),
                "results_identical": all(
                    d["codegen"]["results_identical"]
                    for d in layers.values()),
            },
            "incremental": {
                "cold_seconds": inc_cold_total,
                "warm_seconds": inc_warm_total,
                "cold_ratio_vs_engine": statistics.median(
                    (ci + ca) / (ei + ea) for (ei, ci), (ea, ca)
                    in zip(cold_pairs["ir"], cold_pairs["asm"])),
                "warm_speedup_vs_engine": engine_total / inc_warm_total
                if inc_warm_total > 0 else float("inf"),
                "warm_pure_hits": all(
                    d["incremental"]["warm_pure_hits"]
                    for d in layers.values()),
            },
        },
    }


def render_bench(doc: Dict) -> str:
    """Human-readable table for one bench document."""
    p = doc["params"]
    lines: List[str] = [
        f"campaign bench: {p['benchmark']}/{p['scale']} "
        f"n={p['n_campaigns']} seed={p['seed']} "
        f"level={p['level']} flowery={p['flowery']}",
        f"{'layer':6s} {'naive':>9s} {'engine':>9s} {'speedup':>8s} "
        f"{'camp/s':>8s} {'identical':>9s}",
    ]
    for layer, d in doc["layers"].items():
        lines.append(
            f"{layer:6s} {d['naive_seconds']:8.3f}s {d['engine_seconds']:8.3f}s "
            f"{d['speedup']:7.2f}x {d['engine_campaigns_per_sec']:8.1f} "
            f"{str(d['results_identical']):>9s}"
        )
    o = doc["overall"]
    lines.append(
        f"{'all':6s} {o['naive_seconds']:8.3f}s {o['engine_seconds']:8.3f}s "
        f"{o['speedup']:7.2f}x {'':8s} {str(o['results_identical']):>9s}"
    )
    lines.append("containment sandbox (engine campaigns, off vs on):")
    lines.append(
        f"{'layer':6s} {'off':>9s} {'on':>9s} {'overhead':>9s} "
        f"{'identical':>9s}")
    for layer, d in doc["layers"].items():
        c = d["containment"]
        lines.append(
            f"{layer:6s} {c['off_seconds']:8.3f}s {c['on_seconds']:8.3f}s "
            f"{c['overhead_pct']:+8.2f}% {str(c['results_identical']):>9s}"
        )
    oc = o["containment"]
    lines.append(
        f"{'all':6s} {oc['off_seconds']:8.3f}s {oc['on_seconds']:8.3f}s "
        f"{oc['overhead_pct']:+8.2f}% {str(oc['results_identical']):>9s}"
    )
    lines.append("dispatch tiers, decoded vs codegen (campaign = engine "
                 "path incl. decoded golden pass; run = one golden run):")
    lines.append(
        f"{'layer':6s} {'campaign-dec':>12s} {'campaign-cg':>12s} "
        f"{'speedup':>8s} {'run-speedup':>11s} {'identical':>9s}")
    for layer, d in doc["layers"].items():
        g = d["codegen"]
        lines.append(
            f"{layer:6s} {g['decoded_seconds']:11.3f}s "
            f"{g['codegen_seconds']:11.3f}s {g['speedup']:7.2f}x "
            f"{g['run_speedup']:10.2f}x "
            f"{str(g['results_identical']):>9s}"
        )
    og = o["codegen"]
    lines.append(
        f"{'all':6s} {og['decoded_seconds']:11.3f}s "
        f"{og['codegen_seconds']:11.3f}s {og['speedup']:7.2f}x "
        f"{og['run_speedup']:10.2f}x "
        f"{str(og['results_identical']):>9s}"
    )
    lines.append("incremental campaigns, cold (empty store) vs warm "
                 "(pure cache hits), vs the plain engine campaign:")
    lines.append(
        f"{'layer':6s} {'cold':>9s} {'warm':>9s} {'cold-ratio':>10s} "
        f"{'warm-speedup':>12s} {'warm-sim':>8s}")
    for layer, d in doc["layers"].items():
        i = d["incremental"]
        lines.append(
            f"{layer:6s} {i['cold_seconds']:8.3f}s {i['warm_seconds']:8.3f}s "
            f"{i['cold_ratio_vs_engine']:9.2f}x "
            f"{i['warm_speedup_vs_engine']:11.1f}x "
            f"{i['warm_simulated']:8d}"
        )
    oi = o["incremental"]
    lines.append(
        f"{'all':6s} {oi['cold_seconds']:8.3f}s {oi['warm_seconds']:8.3f}s "
        f"{oi['cold_ratio_vs_engine']:9.2f}x "
        f"{oi['warm_speedup_vs_engine']:11.1f}x "
        f"{'0' if oi['warm_pure_hits'] else '!':>8s}"
    )
    pr = doc.get("pruning")
    if pr:
        st, pu = pr["stratified"], pr["prune"]
        lines.append(
            f"smart sampling ({pr['benchmark']}/{pr['scale']} "
            f"level={pr['level']}, DESIGN §17):")
        lines.append(
            f"  stratified ir: sdc {st['stratified_sdc']:.4f} "
            f"[{st['stratified_sdc_ci'][0]:.4f},"
            f"{st['stratified_sdc_ci'][1]:.4f}] n={st['stratified_n']} "
            f"vs uniform {st['uniform_sdc']:.4f} "
            f"[{st['uniform_sdc_ci'][0]:.4f},"
            f"{st['uniform_sdc_ci'][1]:.4f}] n={st['uniform_n']}: "
            f"{st['steps_ratio']:.2f}x fewer steps "
            f"(within-ci={st['within_uniform_ci']}, "
            f"width-ok={st['width_ok']})"
        )
        lines.append(
            f"  pruned asm: {pu['pruned']}/{pu['n']} draws resolved "
            f"statically, {pu['steps_ratio']:.2f}x fewer steps, "
            f"estimates identical: {pu['estimates_identical']}"
        )
        lines.append(f"  sound: {pr['sound']}")
    tg = doc.get("testgen")
    if tg:
        lines.append(
            f"testgen oracle smoke: {tg['oracle_programs']} programs / "
            f"{tg['oracle_matrix_runs']} matrix runs in "
            f"{tg['oracle_seconds']:.2f}s (budget {tg['budget_seconds']:.0f}s, "
            f"ok={tg['oracle_ok']}); campaigns imported repro.testgen: "
            f"{tg['campaign_imports_testgen']}"
        )
    return "\n".join(lines) + "\n"
