"""Child process: one workload in one mode, in a fresh interpreter.

The parent (``python -m perfbench``) starts
``python -m perfbench.child --workload W --mode M …`` with every
``REPRO_*`` variable scrubbed and ``src`` on ``PYTHONPATH``; the child
writes one JSON document to ``--result``.  Modes:

``setup``
    Import :mod:`repro`, build the workload's first program and finish
    one golden run per layer, then report the wall-clock time (the
    parent subtracts its spawn time: that is one ``setup_s`` sample).
    Set-up, each timed body and the traced body also report the host
    speed sampled while they ran (:mod:`perfbench.hostclock`).
``run``
    Setup, then the untraced body as a closed loop: repeated until
    ``--seconds`` have been measured, at least once.  Then the
    correctness gate on the first repetition.
``trace``
    Setup, one body with spans and an observer attached, the
    workload's untimed reference campaigns, and the simulator probes;
    reports the per-layer metrics and writes the spans as JSONL.
``pin``
    Setup and one body, reporting the result signature the gate pins
    (the parent sets ``REPRO_ENGINE=0`` for it; pools run serially).

Only the standard library is imported at module level: the incremental
workload's pool workers are spawned processes that re-import this
module as their ``__main__``, and the entry point stays behind the
``__name__`` check so they never re-run it.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time


def _usage():
    return (resource.getrusage(resource.RUSAGE_SELF),
            resource.getrusage(resource.RUSAGE_CHILDREN))


def measured(fn):
    """Run ``fn`` and return ``(result, usage)`` for the call.

    ``cpu_s`` covers this process and every reaped child (the pool's
    workers); ``peak_rss_mb`` is the largest resident set of either.
    """
    (s0, c0) = _usage()
    t0 = time.perf_counter()
    result = fn()
    wall = time.perf_counter() - t0
    (s1, c1) = _usage()
    own = (s1.ru_utime - s0.ru_utime) + (s1.ru_stime - s0.ru_stime)
    kids = (c1.ru_utime - c0.ru_utime) + (c1.ru_stime - c0.ru_stime)
    return result, {
        "wall_s": wall,
        "cpu_s": own + kids,
        "children_cpu_s": kids,
        "sys_s": (s1.ru_stime - s0.ru_stime) + (c1.ru_stime - c0.ru_stime),
        "minflt": (s1.ru_minflt - s0.ru_minflt) + (c1.ru_minflt
                                                   - c0.ru_minflt),
        "peak_rss_mb": max(s1.ru_maxrss, c1.ru_maxrss) / 1024.0,
    }


def _counts(body, env) -> dict:
    return {"attempted": body.attempted, "delivered": body.delivered,
            "failed": body.host_escapes + body.missing,
            "errors": env.errors}


def _workdir(root: str, name: str) -> str:
    path = os.path.join(root, name)
    os.makedirs(path)
    return path


def _store_metrics(path) -> dict:
    from repro.fi.compose import SectionProfileStore, store_stats

    if path is None:
        return {"store.open_s": 0.0, "store.bytes": 0, "store.rows": 0}

    def open_s():
        t0 = time.perf_counter()
        SectionProfileStore(path).close()
        return time.perf_counter() - t0

    stats = store_stats(path)
    return {
        "store.open_s": statistics.median(open_s() for _ in range(3)),
        "store.bytes": stats["bytes"],
        "store.rows": stats["events"]["row"],
    }


def per_layer_metrics(tracer, root, observer, body, refs, probes, usage,
                      size, engine_scope) -> dict:
    """Every per-layer metric except ``trace.overhead_frac`` (which
    needs the untraced child's wall time; the parent adds it)."""
    total = tracer.total
    counters = tracer.counters.get(engine_scope, {})
    golden = counters.get("golden_steps", 0)
    suffix = counters.get("suffix_steps", 0)
    replays = counters.get("replays", 0)
    workers = [e for e in observer.worker_events()
               if e.get("mode") != "serial"]
    supervised = total(layer="fi.resilience")
    serial = total(name="incremental", scope="reference", phase="serial")
    m = {
        "pipeline.frontend_s": total(layer="pipeline.frontend"),
        "pipeline.protect_s": total(layer="pipeline.protect"),
        "pipeline.lower_s": total(layer="pipeline.lower"),
        "planner.profile_s": total(layer="planner.profile"),
        "sim.minflt_per_injection": (usage["minflt"]
                                     / max(1, body.delivered)),
        "proc.sys_frac": usage["sys_s"] / usage["cpu_s"],
        "engine.inject_s": total(layer="fi.engine", scope=engine_scope),
        "engine.golden_steps": golden,
        "engine.suffix_steps": suffix,
        "engine.replays": replays,
        "engine.steps_per_injection": ((golden + suffix) / replays
                                       if replays else 0.0),
        "prune.plan_s": total(layer="fi.prune"),
        "prune.pruned_frac": body.facts.get("prune.pruned_frac", 0.0),
        "prune.steps_ratio": refs.get("prune.steps_ratio", 1.0),
        "stratify.steps_ratio": refs.get("stratify.steps_ratio", 1.0),
        "sections.map_s": total(layer="fi.sections"),
        "compose.edit_simulated": body.facts.get("compose.edit_simulated",
                                                 0),
        "compose.warm_simulated": body.facts.get("compose.warm_simulated",
                                                 0),
        "pool.busy_frac": (sum(e["seconds"] for e in workers)
                           / (supervised * size.get("workers", 1))
                           if supervised else 0.0),
        "pool.cpu_s": usage["children_cpu_s"],
        "pool.chunks": len(workers),
        "pool.speedup_vs_serial": (serial / total(name="incremental",
                                                  phase="cold")
                                   if serial else 1.0),
        "trace.unattributed_frac": (tracer.self_times(root)["perfbench.body"]
                                    / tracer.duration(root)),
    }
    for phase in ("cold", "edit", "warm"):
        m[f"compose.{phase}_s"] = total(name="incremental", phase=phase)
    m.update(_store_metrics(body.store_path))
    m.update(probes)
    return m


def main(argv=None) -> int:
    p = argparse.ArgumentParser(prog="python -m perfbench.child")
    p.add_argument("--workload", required=True)
    p.add_argument("--mode", required=True,
                   choices=("setup", "run", "trace", "pin"))
    p.add_argument("--size", default="full", choices=("full", "smoke"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=0.0)
    p.add_argument("--workdir", required=True)
    p.add_argument("--result", required=True)
    p.add_argument("--spans")
    args = p.parse_args(argv)

    from . import hostclock, spec

    # importing repro is part of set-up, so the sampler starts first
    with hostclock.Sampler() as clock:
        from .workloads import WORKLOADS, RunEnv

        wl = WORKLOADS[args.workload]
        size = dict(spec.SIZES[args.workload][args.size])
        if args.mode == "pin" and "workers" in size:
            size["workers"] = 1
        wl.setup(size)
        doc = {"ready": time.time()}
    doc["host_s"] = clock.host_s()

    if args.mode in ("run", "pin"):
        from .gate import check, signature_hash

        reps = []
        first = None
        start = time.perf_counter()
        while True:
            env = RunEnv(_workdir(args.workdir, f"rep{len(reps)}"))
            with hostclock.Sampler() as clock:
                raw, usage = measured(lambda: wl.body(size, args.seed, env))
            usage["host_s"] = clock.host_s()
            body = wl.outcome(raw, size, args.seed)
            usage.update(_counts(body, env))
            reps.append(usage)
            if first is None:
                first = body
            if time.perf_counter() - start >= args.seconds:
                break
        doc["reps"] = reps
        if args.mode == "pin":
            doc["pin"] = {"signature": signature_hash(first.signature),
                          "rates": first.rates}
        else:
            doc["gate"] = check(
                first, workload=args.workload, size=args.size,
                seed=args.seed, naive_per_campaign=size.get("naive_checks", 0))

    elif args.mode == "trace":
        from repro.trace import CampaignObserver

        from .gate import check
        from .probes import run_probes
        from .spans import Tracer

        tracer = Tracer(args.workload, f"{args.workload}-s{args.seed}-"
                                       f"{os.getpid()}")
        observer = CampaignObserver()
        env = RunEnv(_workdir(args.workdir, "traced"), observer=observer,
                     span=tracer.span)

        def traced_body():
            with tracer.patched(), \
                    tracer.span("body", "perfbench.body") as root:
                return root, wl.body(size, args.seed, env)

        with hostclock.Sampler() as clock:
            (root, raw), usage = measured(traced_body)
        usage["host_s"] = clock.host_s()
        body = wl.outcome(raw, size, args.seed)
        usage.update(_counts(body, env))
        gate = check(body, workload=args.workload, size=args.size,
                     seed=args.seed, naive_per_campaign=0)

        tracer.scope = "reference"
        with tracer.patched():
            refs, problems = wl.references(raw, size, args.seed, env)
        tracer.scope = "probes"
        probes = run_probes(body.probes(), args.seed)

        per_layer = per_layer_metrics(
            tracer, root, observer, body, refs, probes, usage, size,
            wl.engine_scope)
        if per_layer["trace.unattributed_frac"] > spec.MAX_UNATTRIBUTED:
            problems.append(
                f"top-level spans cover only "
                f"{1 - per_layer['trace.unattributed_frac']:.1%} of the body")
        gate["problems"] += problems
        gate["ok"] = not gate["problems"]
        if args.spans:
            tracer.write_jsonl(args.spans, extra=[
                dict(ev, workload=args.workload, run=tracer.run_id)
                for ev in observer.events])
        doc.update(body=usage, gate=gate, per_layer=per_layer,
                   self_times=tracer.self_times(root))

    with open(args.result, "w") as fh:
        json.dump(doc, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
