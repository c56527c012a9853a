"""Command-line interface.

::

    repro list                               # benchmarks
    repro run crc32 --scale small            # run at both layers
    repro asm crc32 --scale tiny             # assembly listing
    repro ir crc32                           # IR listing
    repro protect crc32 --level 70 --flowery # protect + report structure
    repro inject crc32 --level 100 -n 300    # campaign + coverage + causes
    repro trace crc32 --level 100 --inject 50 --layer asm
                                             # lockstep divergence diff
    repro stats crc32 --level 100 -n 100     # campaign observability
    repro stats crc32 -n 300 --journal c.jsonl   # crash-safe campaign
    repro campaign crc32 --incremental --store s.jsonl
                                             # section-composed, cache hits
    repro resume c.jsonl                     # finish an interrupted one
    repro bench pathfinder --scale medium    # naive vs engine throughput
    repro chaos --smoke                      # fuzz the containment contract
    repro testgen --seed 7 --oracle          # generate + differential oracle
    repro mutate --smoke                     # mutation-test the protection
    repro experiment fig2|fig3|fig17|fault-matrix|incremental|table1|overhead|compile-time
    repro store verify s.jsonl               # recompute CRCs + key hashes
    repro store compact s.jsonl              # rewrite to live content
    repro store stats                        # counters ($REPRO_STORE)

Environment knobs (REPRO_SCALE, REPRO_CAMPAIGNS, REPRO_BENCHMARKS...)
apply to the ``experiment`` subcommand; see
:mod:`repro.experiments.config`.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional

from .analysis.rootcause import classify_campaign
from .analysis.coverage import sdc_coverage
from .benchsuite.registry import BENCHMARKS, benchmark_names, load_source
from .faultmodel import FAULT_MODELS
from .fi.campaign import CampaignConfig, run_asm_campaign, run_ir_campaign
from .ir.printer import print_module
from .pipeline import build
from .experiments import (
    ExperimentConfig,
    render_compile_time,
    render_fault_matrix,
    render_figure2,
    render_incremental,
    render_figure3,
    render_figure17,
    render_overhead,
    render_pruning,
    render_table1,
    run_compile_time,
    run_fault_matrix,
    run_figure2,
    run_incremental,
    run_figure3,
    run_figure17,
    run_overhead,
    run_pruning,
    run_table1,
)

__all__ = ["main"]


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("benchmark", choices=benchmark_names())
    p.add_argument("--scale", default="small",
                   choices=("tiny", "small", "medium"))


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=("Cross-layer evaluation of instruction duplication "
                     "(SC'23 reproduction)"),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list benchmarks")

    run_p = sub.add_parser("run", help="run a benchmark at both layers")
    _add_common(run_p)

    ir_p = sub.add_parser("ir", help="print a benchmark's IR")
    _add_common(ir_p)
    ir_p.add_argument("--level", type=int, default=None)
    ir_p.add_argument("--flowery", action="store_true")

    asm_p = sub.add_parser("asm", help="print a benchmark's assembly")
    _add_common(asm_p)
    asm_p.add_argument("--level", type=int, default=None)
    asm_p.add_argument("--flowery", action="store_true")

    prot_p = sub.add_parser("protect", help="protect and report structure")
    _add_common(prot_p)
    prot_p.add_argument("--level", type=int, default=100)
    prot_p.add_argument("--flowery", action="store_true")

    inj_p = sub.add_parser("inject", help="fault-injection campaign")
    _add_common(inj_p)
    inj_p.add_argument("--level", type=int, default=None,
                       help="protection level (omit for unprotected)")
    inj_p.add_argument("--flowery", action="store_true")
    inj_p.add_argument("--cfc", action="store_true",
                       help="add signature-based control-flow checking")
    inj_p.add_argument("-n", "--campaigns", type=int, default=300)
    inj_p.add_argument("--seed", type=int, default=2023)
    inj_p.add_argument("--fault-model", choices=FAULT_MODELS,
                       default="seu",
                       help="injected fault model: single bit flip (seu), "
                            "transient double flip + flag upset (set), or "
                            "branch-target redirect (cf)")
    inj_p.add_argument("--prune", action="store_true",
                       help="resolve provably-benign draws statically "
                            "(bit-liveness pruning: same draw, same "
                            "estimates, fewer simulated steps)")
    inj_p.add_argument("--stratify", action="store_true",
                       help="stratified sampling over bit-liveness site "
                            "classes with Neyman allocation")

    trace_p = sub.add_parser(
        "trace",
        help="co-run IR and asm layers in lockstep and diff sync streams",
    )
    _add_common(trace_p)
    trace_p.add_argument("--level", type=int, default=None)
    trace_p.add_argument("--flowery", action="store_true")
    trace_p.add_argument("--inject", type=int, default=None,
                         help="injectable dynamic site index (omit for a "
                              "golden co-run)")
    trace_p.add_argument("--bit", type=int, default=0)
    trace_p.add_argument("--layer", choices=("ir", "asm"), default="asm",
                         help="layer receiving the injection")
    trace_p.add_argument("--fault-model", choices=FAULT_MODELS,
                         default="seu",
                         help="fault model for the injected layer (cf "
                              "faults make the report name the corrupted "
                              "edge)")
    trace_p.add_argument("--mode", default="sync",
                         choices=("sync", "ring", "sample", "full"),
                         help="step-record mode (sync events are always on)")
    trace_p.add_argument("--limit", type=int, default=None,
                         help="cap on recorded sync events per layer")
    trace_p.add_argument("--tail", type=int, default=10,
                         help="step records to print per layer "
                              "(non-sync modes)")
    trace_p.add_argument("--jsonl", default=None,
                         help="write both traces as JSONL to this path")

    stats_p = sub.add_parser(
        "stats",
        help="campaign with observability: phase timings, throughput, "
             "outcomes",
    )
    _add_common(stats_p)
    stats_p.add_argument("--level", type=int, default=None)
    stats_p.add_argument("--flowery", action="store_true")
    stats_p.add_argument("--cfc", action="store_true",
                         help="add signature-based control-flow checking")
    stats_p.add_argument("-n", "--campaigns", type=int, default=300)
    stats_p.add_argument("--seed", type=int, default=2023)
    stats_p.add_argument("--layer", choices=("ir", "asm"), default="asm")
    stats_p.add_argument("--fault-model", choices=FAULT_MODELS,
                         default="seu",
                         help="injected fault model (recorded per journal "
                              "row; campaigns resume bit-identically)")
    stats_p.add_argument(
        "--workers", type=int, default=None,
        help="worker processes (default: REPRO_WORKERS or the CPU count)",
    )
    stats_p.add_argument("--jsonl", default=None,
                         help="write the observer event stream to this path")
    stats_p.add_argument(
        "--journal", default=None, metavar="PATH",
        help="checkpoint every classified injection to this JSONL "
             "journal; rerunning (or `repro resume`) skips journaled "
             "samples",
    )
    stats_p.add_argument("--prune", action="store_true",
                         help="resolve provably-benign draws statically "
                              "(bit-liveness pruning: same draw, same "
                              "estimates, fewer simulated steps)")
    stats_p.add_argument("--stratify", action="store_true",
                         help="stratified sampling over bit-liveness "
                              "site classes with Neyman allocation")

    res_p = sub.add_parser(
        "resume",
        help="resume an interrupted campaign from its injection journal",
    )
    res_p.add_argument("journal", help="journal written by --journal")
    res_p.add_argument(
        "--workers", type=int, default=None,
        help="worker processes (default: REPRO_WORKERS or the CPU count)",
    )
    res_p.add_argument("--jsonl", default=None,
                       help="write the observer event stream to this path")

    camp_p = sub.add_parser(
        "campaign",
        help="fault-injection campaign; --incremental composes "
             "section profiles from a persistent content-hash store",
    )
    _add_common(camp_p)
    camp_p.add_argument("--level", type=int, default=None)
    camp_p.add_argument("--flowery", action="store_true")
    camp_p.add_argument("--cfc", action="store_true")
    camp_p.add_argument("-n", "--campaigns", type=int, default=300)
    camp_p.add_argument("--seed", type=int, default=2023)
    camp_p.add_argument("--layer", choices=("ir", "asm"), default="ir")
    camp_p.add_argument("--fault-model", choices=FAULT_MODELS,
                        default="seu")
    camp_p.add_argument("--incremental", action="store_true",
                        help="section-level campaign: unchanged sections "
                             "are cache hits against --store")
    camp_p.add_argument("--store", default=None, metavar="PATH",
                        help="section-profile store (JSONL journal); "
                             "created on first use, shared across "
                             "programs, re-runs and concurrent "
                             "campaigns (default: $REPRO_STORE)")
    camp_p.add_argument(
        "--workers", type=int, default=1,
        help="worker processes for the injections the store cannot "
             "serve (incremental mode)",
    )
    camp_p.add_argument("--prune", action="store_true",
                        help="resolve provably-benign draws statically "
                             "(bit-liveness pruning: same draw, same "
                             "estimates, fewer simulated steps)")
    camp_p.add_argument("--stratify", action="store_true",
                        help="stratified sampling over bit-liveness site "
                             "classes with Neyman allocation (not "
                             "compatible with --incremental)")

    bench_p = sub.add_parser(
        "bench",
        help="benchmark campaign throughput: naive vs checkpoint-replay "
             "engine",
    )
    bench_p.add_argument("benchmark", nargs="?", default="pathfinder",
                         choices=benchmark_names())
    bench_p.add_argument("--scale", default="medium",
                         choices=("tiny", "small", "medium"))
    bench_p.add_argument("-n", "--campaigns", type=int, default=40)
    bench_p.add_argument("--seed", type=int, default=2023)
    bench_p.add_argument("--level", type=int, default=None)
    bench_p.add_argument("--flowery", action="store_true")
    bench_p.add_argument("--out", default="BENCH_campaign.json",
                         metavar="PATH",
                         help="write the JSON bench document here "
                              "('-' to skip)")

    chaos_p = sub.add_parser(
        "chaos",
        help="fuzz the fault containment contract: seeded bit-flips "
             "across all benchmarks, layers, and dispatch modes",
    )
    chaos_p.add_argument(
        "--benchmark", action="append", default=None,
        choices=benchmark_names(), metavar="NAME",
        help="restrict the sweep to this benchmark (repeatable; "
             "default: all)",
    )
    chaos_p.add_argument("--scale", default="tiny",
                         choices=("tiny", "small", "medium"))
    chaos_p.add_argument("-n", "--injections", type=int, default=200,
                         help="injections per benchmark/layer "
                              "(each runs under every dispatch mode)")
    chaos_p.add_argument("--seed", type=int, default=2023)
    chaos_p.add_argument(
        "--smoke", action="store_true",
        help="CI-sized sweep: 8 injections per target at tiny scale",
    )
    chaos_p.add_argument(
        "--fault-model", action="append", default=None,
        choices=FAULT_MODELS, metavar="MODEL",
        help="restrict the sweep to this fault model (repeatable; "
             "default: all of seu, set, cf)",
    )
    chaos_p.add_argument("--json", default=None, metavar="PATH",
                         help="write the JSON report here")

    tg_p = sub.add_parser(
        "testgen",
        help="generate seed-deterministic programs and (optionally) run "
             "each through the differential protection/layer/dispatch "
             "oracle matrix",
    )
    tg_p.add_argument("--kind", choices=("minic", "ir"), default="minic",
                      help="MiniC source generation or direct-IR modules")
    tg_p.add_argument("--seed", type=int, default=0, help="first seed")
    tg_p.add_argument("--count", type=int, default=1,
                      help="number of consecutive seeds")
    tg_p.add_argument("--oracle", action="store_true",
                      help="run every generated program through the full "
                           "differential oracle matrix instead of "
                           "printing it")
    tg_p.add_argument("--json", default=None, metavar="PATH",
                      help="write the oracle reports as JSON here")

    mut_p = sub.add_parser(
        "mutate",
        help="mutation-test the protection passes: every catalogued "
             "weakening must be killed by the golden, coverage, or "
             "plan-invariant oracle",
    )
    mut_p.add_argument(
        "--mutant", action="append", default=None, metavar="NAME",
        help="run only this mutant (repeatable; default: full catalog)",
    )
    mut_p.add_argument(
        "--smoke", action="store_true",
        help="CI-sized subset: one mutant per oracle family plus an "
             "identity row",
    )
    mut_p.add_argument("--list", action="store_true", dest="list_mutants",
                       help="list the catalog and exit")
    mut_p.add_argument("--json", default=None, metavar="PATH",
                       help="write the kill-matrix JSON here")

    exp_p = sub.add_parser("experiment", help="regenerate a paper artifact")
    exp_p.add_argument(
        "which",
        choices=("table1", "fig2", "fig3", "fig17", "fault-matrix",
                 "incremental", "pruning", "overhead", "compile-time"),
    )

    store_p = sub.add_parser(
        "store",
        help="maintain a shared section-profile store: compact "
             "(rewrite to live content, atomically, under the lock), "
             "verify (recompute CRCs and key hashes), stats",
    )
    store_p.add_argument("action", choices=("compact", "verify", "stats"))
    store_p.add_argument("path", nargs="?", default=None,
                         help="store file (default: $REPRO_STORE)")
    store_p.add_argument("--json", action="store_true",
                         help="emit the raw report as JSON")
    return parser


def _cmd_list() -> int:
    for name in benchmark_names():
        b = BENCHMARKS[name]
        print(f"{name:14s} {b.suite:8s} {b.domain}")
    return 0


def _cmd_run(args) -> int:
    built = build(args.benchmark, scale=args.scale)
    ir = built.run_ir()
    asm = built.run_asm()
    print(ir.output, end="")
    print(f"# IR dyn: {ir.dyn_total}  injectable: {ir.dyn_injectable}")
    print(f"# ASM dyn: {asm.dyn_total}  injectable: {asm.dyn_injectable}")
    print(f"# cross-layer outputs match: {ir.output == asm.output}")
    return 0


def _cmd_ir(args) -> int:
    built = build(args.benchmark, scale=args.scale, level=args.level,
                  flowery=args.flowery)
    print(print_module(built.module), end="")
    return 0


def _cmd_asm(args) -> int:
    built = build(args.benchmark, scale=args.scale, level=args.level,
                  flowery=args.flowery)
    print(built.asm.text(), end="")
    return 0


def _cmd_protect(args) -> int:
    built = build(args.benchmark, scale=args.scale, level=args.level,
                  flowery=args.flowery)
    prot = built.protection
    assert prot is not None
    print(f"benchmark:          {args.benchmark} ({args.scale})")
    print(f"protection level:   {args.level}%")
    print(f"flowery:            {prot.flowery} {prot.flowery_stats}")
    print(f"protected instrs:   {len(prot.dup_info.protected)}")
    print(f"checkers inserted:  {prot.dup_info.checker_count()}")
    print(f"checkers folded:    {len(built.asm.folded_checkers)} (backend)")
    if prot.plan is not None:
        print(f"plan budget/spent:  {prot.plan.budget}/{prot.plan.spent} "
              f"dynamic instructions")
    return 0


def _cmd_inject(args) -> int:
    cfg = CampaignConfig(n_campaigns=args.campaigns, seed=args.seed,
                         prune=args.prune, stratify=args.stratify)
    built = build(args.benchmark, scale=args.scale, level=args.level,
                  flowery=args.flowery, cfc=args.cfc)
    fm = args.fault_model
    ir = run_ir_campaign(built.module, cfg, built.layout, fault_model=fm)
    asm = run_asm_campaign(built.compiled, built.layout, cfg,
                           fault_model=fm)
    print(f"# fault model: {fm}"
          + (f", protection: level={args.level}" if args.level is not None
             else ", protection: none")
          + (", cfc" if args.cfc else ""))
    print(f"{'layer':6s} {'sdc':>8s} {'due':>8s} {'detected':>9s} "
          f"{'benign':>8s}")
    for res in (ir, asm):
        s = res.summary()
        line = (f"{res.layer:6s} {s['sdc']:8.3f} {s['due']:8.3f} "
                f"{s['detected']:9.3f} {s['benign']:8.3f}")
        if s.get("pruned"):
            line += f"  pruned={s['pruned']}"
        print(line)
    if args.level is not None:
        raw_built = build(args.benchmark, scale=args.scale)
        raw_ir = run_ir_campaign(raw_built.module, cfg, raw_built.layout,
                                 fault_model=fm)
        raw_asm = run_asm_campaign(
            raw_built.compiled, raw_built.layout, cfg, fault_model=fm
        )
        print(f"coverage IR : "
              f"{sdc_coverage(raw_ir.sdc_probability, ir.sdc_probability):.3f}")
        print(f"coverage ASM: "
              f"{sdc_coverage(raw_asm.sdc_probability, asm.sdc_probability):.3f}")
        assert built.protection is not None
        report = classify_campaign(
            args.benchmark, args.level, asm, built.module, built.asm,
            built.protection.dup_info,
        )
        if report.counts:
            print("escape root causes:",
                  {p.value: n for p, n in sorted(
                      report.counts.items(), key=lambda kv: -kv[1])})
    return 0


def _cmd_trace(args) -> int:
    from .trace import TraceConfig

    built = build(args.benchmark, scale=args.scale, level=args.level,
                  flowery=args.flowery)
    cfg = TraceConfig(mode=args.mode, sync_limit=args.limit)
    report = built.lockstep(
        inject_layer=args.layer if args.inject is not None else None,
        inject_index=args.inject,
        inject_bit=args.bit,
        config=cfg,
        fault_model=args.fault_model,
    )
    print(report.narrate())
    if args.mode != "sync" and args.tail > 0:
        for tr in (report.trace_a, report.trace_b):
            recs = tr.step_records()[-args.tail:]
            print(f"# last {len(recs)} {tr.layer} step records "
                  f"({tr.steps_seen} steps total)")
            for rec in recs:
                print(f"  {rec.describe()}")
    if args.jsonl:
        with open(args.jsonl, "w") as fh:
            fh.write(report.trace_a.to_jsonl())
            fh.write(report.trace_b.to_jsonl())
        print(f"# traces written to {args.jsonl}")
    return 0


def _fmt_summary(s) -> str:
    """Rates with their Wilson 95% intervals, one line."""
    parts = []
    for k in ("sdc", "due", "detected", "benign"):
        lo, hi = s[f"{k}_ci"]
        parts.append(f"{k}={s[k]:.3f} [{lo:.3f},{hi:.3f}]")
    if s.get("pruned"):
        parts.append(f"pruned={s['pruned']}")
    return " ".join(parts)


def _print_campaign_result(res) -> None:
    """Summary line(s) for a CampaignResult or StratifiedResult."""
    s = res.summary()
    print(_fmt_summary(s))
    if res.simulated_steps is not None:
        print(f"# simulated steps: {res.simulated_steps}")
    for st in s.get("strata", []):
        lo, hi = st["sdc_ci"]
        print(f"#   stratum {st['name']:<10} w={st['weight']:.3f} "
              f"n={st['n']} sdc={st['sdc']:.3f} [{lo:.3f},{hi:.3f}] "
              f"pruned={st['pruned']}")


def _cmd_campaign(args) -> int:
    built = build(args.benchmark, scale=args.scale, level=args.level,
                  flowery=args.flowery, cfc=args.cfc)
    cfg = CampaignConfig(n_campaigns=args.campaigns, seed=args.seed,
                         prune=args.prune, stratify=args.stratify)
    fm = args.fault_model
    if not args.incremental:
        if args.layer == "ir":
            res = run_ir_campaign(built.module, cfg, built.layout,
                                  fault_model=fm)
        else:
            res = run_asm_campaign(built.compiled, built.layout, cfg,
                                   fault_model=fm)
        print(f"{args.benchmark} {args.layer} n={res.n}")
        _print_campaign_result(res)
        return 0

    from .fi.parallel import run_incremental_campaign_for_spec
    from .fi.resilience import WorkSpec

    spec = WorkSpec(
        source=built.source, name=args.benchmark, level=args.level,
        flowery=args.flowery, layer=args.layer, fault_model=fm,
        cfc=args.cfc,
    )
    res = run_incremental_campaign_for_spec(
        spec, cfg, args.store, workers=args.workers, built=built,
    )
    print(f"{args.benchmark} {args.layer} n={res.n_total} "
          f"sections={len(res.sections)} simulated={res.simulated} "
          f"replayed={res.replayed} "
          f"cache-hits={res.cache_hits}/{len(res.sections)}")
    print(_fmt_summary(res.summary()))
    return 0


def _cmd_stats(args) -> int:
    from .fi.parallel import WorkSpec, run_parallel_campaign
    from .trace import CampaignObserver

    observer = CampaignObserver()
    spec = WorkSpec(
        source=load_source(args.benchmark, args.scale),
        name=args.benchmark,
        level=args.level,
        flowery=args.flowery,
        layer=args.layer,
        fault_model=args.fault_model,
        cfc=args.cfc,
    )
    cfg = CampaignConfig(n_campaigns=args.campaigns, seed=args.seed,
                         prune=args.prune, stratify=args.stratify)
    result = run_parallel_campaign(spec, cfg, workers=args.workers,
                                   observer=observer,
                                   journal_path=args.journal)
    print(observer.summary(), end="")
    _print_campaign_result(result)
    if args.jsonl:
        observer.write_jsonl(args.jsonl)
        print(f"# events written to {args.jsonl}")
    return 0


def _cmd_resume(args) -> int:
    from .fi.parallel import run_parallel_campaign
    from .fi.resilience import InjectionJournal
    from .trace import CampaignObserver

    spec, config, completed = InjectionJournal.peek(args.journal)
    print(f"# resuming {args.journal}: {spec.name} layer={spec.layer} "
          f"{len(completed)}/{config.n_campaigns} samples journaled")
    observer = CampaignObserver()
    result = run_parallel_campaign(spec, config, workers=args.workers,
                                   observer=observer,
                                   journal_path=args.journal)
    print(observer.summary(), end="")
    print(_fmt_summary(result.summary()))
    if args.jsonl:
        observer.write_jsonl(args.jsonl)
        print(f"# events written to {args.jsonl}")
    return 0


def _cmd_bench(args) -> int:
    import json

    from .fi.bench import render_bench, run_campaign_bench

    doc = run_campaign_bench(
        benchmark=args.benchmark, scale=args.scale, n=args.campaigns,
        seed=args.seed, level=args.level, flowery=args.flowery,
    )
    print(render_bench(doc), end="")
    if args.out != "-":
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=2)
            fh.write("\n")
        print(f"# bench document written to {args.out}")
    return 0 if doc["overall"]["results_identical"] else 1


def _cmd_chaos(args) -> int:
    import json

    from .fi.chaos import chaos_sweep, render_chaos

    n = 8 if args.smoke else args.injections
    kwargs = {}
    if args.fault_model:
        kwargs["fault_models"] = args.fault_model
    report = chaos_sweep(
        benchmarks=args.benchmark, scale=args.scale, n=n, seed=args.seed,
        progress=lambda line: print(f"# {line}"),
        **kwargs,
    )
    print(render_chaos(report), end="")
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(report.to_doc(), fh, indent=2)
            fh.write("\n")
        print(f"# chaos report written to {args.json}")
    return 0 if report.ok else 1


def _cmd_testgen(args) -> int:
    import json

    from .frontend.codegen import compile_source
    from .ir.printer import print_module
    from .testgen import generate_ir, generate_minic, run_differential_oracle

    docs = []
    failed = False
    for seed in range(args.seed, args.seed + args.count):
        if args.kind == "minic":
            prog = generate_minic(seed)
            name = f"minic-{seed}"
            make = lambda: compile_source(prog.source, name)  # noqa: E731
            listing = prog.source
        else:
            name = f"ir-{seed}"
            make = lambda: generate_ir(seed)  # noqa: E731
            listing = print_module(generate_ir(seed))
        if not args.oracle:
            print(f"// {name}")
            print(listing)
            continue
        report = run_differential_oracle(make, name=name)
        docs.append(report.to_doc())
        status = "ok" if report.ok else "FAILED"
        print(f"{name:12s} {report.runs:3d} matrix runs  {status}")
        for failure in report.failures:
            failed = True
            print(f"  {failure.describe()}")
    if args.json and args.oracle:
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump({"schema": "testgen-oracle/1", "reports": docs},
                      fh, indent=2)
            fh.write("\n")
        print(f"# oracle reports written to {args.json}")
    return 1 if failed else 0


def _cmd_mutate(args) -> int:
    import json

    from .testgen.mutants import MUTANTS, SMOKE_MUTANTS, run_mutation_suite

    if args.list_mutants:
        for m in MUTANTS:
            mark = "" if m.expect_killed else " (identity: must survive)"
            print(f"{m.name:30s} {m.kind:9s} {m.oracle:9s} "
                  f"{m.description}{mark}")
        return 0
    names = args.mutant
    if args.smoke:
        names = list(SMOKE_MUTANTS) + list(args.mutant or [])
    report = run_mutation_suite(
        names=names, progress=lambda line: print(f"# {line}"))
    print(report.render())
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(report.to_doc(), fh, indent=2)
            fh.write("\n")
        print(f"# kill matrix written to {args.json}")
    return 0 if report.ok else 1


def _cmd_store(args) -> int:
    import json

    from .fi.compose import compact_store, store_stats, verify_store

    path = args.path or os.environ.get("REPRO_STORE")
    if not path:
        print("error: no store path given and REPRO_STORE is not set",
              file=sys.stderr)
        return 2
    if args.action == "compact":
        report = compact_store(path)
        ok = True
    elif args.action == "verify":
        report = verify_store(path)
        ok = bool(report["ok"])
    else:
        report = store_stats(path)
        ok = True
    if args.json:
        print(json.dumps(report, indent=2))
    else:
        for k, v in report.items():
            print(f"{k:22s} {v}")
    return 0 if ok else 1


def _cmd_experiment(which: str) -> int:
    cfg = ExperimentConfig.from_env()
    if which == "table1":
        print(render_table1(run_table1(cfg)))
    elif which == "fig2":
        print(render_figure2(run_figure2(cfg)))
    elif which == "fig3":
        print(render_figure3(run_figure3(cfg)))
    elif which == "fig17":
        print(render_figure17(run_figure17(cfg)))
    elif which == "fault-matrix":
        print(render_fault_matrix(run_fault_matrix(cfg)))
    elif which == "incremental":
        print(render_incremental(run_incremental(cfg)))
    elif which == "pruning":
        print(render_pruning(run_pruning(cfg)))
    elif which == "overhead":
        print(render_overhead(run_overhead(cfg)))
    else:
        print(render_compile_time(run_compile_time(cfg)))
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "list":
        return _cmd_list()
    if args.command == "run":
        return _cmd_run(args)
    if args.command == "ir":
        return _cmd_ir(args)
    if args.command == "asm":
        return _cmd_asm(args)
    if args.command == "protect":
        return _cmd_protect(args)
    if args.command == "inject":
        return _cmd_inject(args)
    if args.command == "trace":
        return _cmd_trace(args)
    if args.command == "stats":
        return _cmd_stats(args)
    if args.command == "campaign":
        return _cmd_campaign(args)
    if args.command == "resume":
        return _cmd_resume(args)
    if args.command == "bench":
        return _cmd_bench(args)
    if args.command == "chaos":
        return _cmd_chaos(args)
    if args.command == "testgen":
        return _cmd_testgen(args)
    if args.command == "mutate":
        return _cmd_mutate(args)
    if args.command == "store":
        return _cmd_store(args)
    if args.command == "experiment":
        return _cmd_experiment(args.which)
    raise AssertionError("unreachable")


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
