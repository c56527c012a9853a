"""Command line of the benchmark (see ``perfbench/README.md``)::

    python -m perfbench run   [--workload W]... [--seed S] [--seconds T]
                              [--trace 0|1] [--smoke]
    python -m perfbench trace [--workload W]... [--seed S] [--smoke]
    python -m perfbench pin   [--workload W]... [--seed S] [--smoke]

``run`` measures each selected workload (all four by default) in fresh
child processes with tracing off and prints every end-to-end metric,
times at the reference host speed (:mod:`perfbench.hostclock`);
``trace`` (the same as ``run --trace 1``) is the separate traced run
that prints the per-layer metrics; ``pin`` regenerates the gate's
``expected.json`` entries.  ``run`` and ``trace`` write their whole
document under ``.perfbench/`` and end standard output with one JSON
line: ``{"correct", "attempted", "failed", "metrics"}``.  Exit status
is 0 when every correctness check passed, 1 when one failed or a child
crashed, 2 when the tree holds no :mod:`repro` sources.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

from . import spec
from .hostclock import at_reference

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
#: git-ignored output directory: documents, span files, child scratch
OUT_DIR = os.path.join(ROOT, ".perfbench")
#: every child must end well inside the 180 s a single-workload run has
CHILD_TIMEOUT = 170.0
#: setup_s is the median of this many fresh-process set-ups, taken
#: before and after the body so they sample the whole run's host state
SETUP_SAMPLES = 7


class ChildFailed(RuntimeError):
    pass


def child_env(extra=None) -> dict:
    """The parent's environment without ``REPRO_*``, with ``src`` first
    on the import path.  Bytecode is cached under ``OUT_DIR``, not in
    the tree: the first child compiles, and every later one, pool
    workers included, starts the way an installed package does."""
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("REPRO_") and k != "PYTHONDONTWRITEBYTECODE"}
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    env["PYTHONPYCACHEPREFIX"] = os.path.join(OUT_DIR, "pycache")
    env.update(extra or {})
    return env


def run_child(workload: str, mode: str, args, *, seconds: float = 0.0,
              spans=None, extra_env=None, timeout=CHILD_TIMEOUT) -> dict:
    """Run one child to completion in its own process group and return
    its document, with ``setup_s`` measured from the spawn."""
    os.makedirs(OUT_DIR, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{workload}-{mode}-", dir=OUT_DIR)
    result = os.path.join(workdir, "result.json")
    cmd = [sys.executable, "-m", "perfbench.child", "--workload", workload,
           "--mode", mode, "--seed", str(args.seed),
           "--size", "smoke" if args.smoke else "full",
           "--seconds", str(seconds), "--workdir", workdir,
           "--result", result]
    if spans:
        cmd += ["--spans", spans]
    try:
        spawned = time.time()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(extra_env),
                                stdout=sys.stderr.fileno(),
                                start_new_session=True)
        try:
            code = proc.wait(timeout=timeout)
        finally:
            # the child's process group holds its pool workers; none may
            # outlive it
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            proc.wait()
        if code != 0:
            raise ChildFailed(f"{workload} {mode} child exited with {code}")
        with open(result) as fh:
            doc = json.load(fh)
        doc["setup_s"] = doc["ready"] - spawned
        return doc
    except subprocess.TimeoutExpired:
        raise ChildFailed(f"{workload} {mode} child exceeded "
                          f"{timeout:g} s") from None
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def git_revision():
    """HEAD's commit, read from ``.git`` without running git (the tree
    may be a plain checkout)."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def measure_run(workload: str, args) -> dict:
    """The end-to-end metrics, times at the reference host speed (see
    :mod:`perfbench.hostclock`); ``raw`` keeps them as measured."""
    def setup():
        doc = run_child(workload, "setup", args)
        return {"setup_s": doc["setup_s"], "host_s": doc["host_s"]}

    before = (SETUP_SAMPLES - 1) // 2
    setups = [setup() for _ in range(before)]
    doc = run_child(workload, "run", args, seconds=args.seconds)
    setups.append({"setup_s": doc["setup_s"], "host_s": doc["host_s"]})
    setups += [setup() for _ in range(SETUP_SAMPLES - 1 - before)]
    reps = doc["reps"]

    def metrics(scale):
        median = statistics.median
        walls = [scale(r["wall_s"], r) for r in reps]
        return {
            "wall_s": median(walls),
            "injections_per_s": median(r["delivered"] / w
                                       for r, w in zip(reps, walls)),
            "cpu_s": median(scale(r["cpu_s"], r) for r in reps),
            "setup_s": median(scale(s["setup_s"], s) for s in setups),
            "peak_rss_mb": median(r["peak_rss_mb"] for r in reps),
        }

    values = metrics(lambda secs, m: at_reference(secs, m["host_s"]))
    raw = metrics(lambda secs, m: secs)
    return {"values": values, "raw": raw, "gate": doc["gate"], "reps": reps,
            "setup_samples": setups,
            "attempted": sum(r["attempted"] for r in reps),
            "failed": sum(r["failed"] for r in reps),
            "errors": [e for r in reps for e in r["errors"]]}


def measure_trace(workload: str, args) -> dict:
    untraced = run_child(workload, "run", args)
    spans = os.path.join(OUT_DIR, f"spans-{workload}-s{args.seed}"
                                  f"{'-smoke' if args.smoke else ''}.jsonl")
    traced = run_child(workload, "trace", args, spans=spans)
    values = dict(traced["per_layer"])
    # both bodies at the reference host speed: they run tens of seconds
    # apart, and the host drifts by more than the wrappers cost
    traced_s, untraced_s = (at_reference(m["wall_s"], m["host_s"])
                            for m in (traced["body"], untraced["reps"][0]))
    values["trace.overhead_frac"] = traced_s / untraced_s - 1.0
    gate = traced["gate"]
    if untraced["gate"]["signature"] != gate["signature"]:
        gate["problems"].append("traced and untraced runs returned "
                                "different results")
    gate["problems"] += untraced["gate"]["problems"]
    gate["ok"] = not gate["problems"]
    gate["naive_rechecked"] = untraced["gate"]["naive_rechecked"]
    return {"values": values, "gate": gate, "spans": spans,
            "signatures": {"untraced": untraced["gate"]["signature"],
                           "traced": gate["signature"]},
            "self_times": traced["self_times"],
            "body_wall_s": traced["body"]["wall_s"],
            "attempted": traced["body"]["attempted"],
            "failed": traced["body"]["failed"],
            "errors": traced["body"]["errors"]}


def pin(workloads, args) -> int:
    """Record each workload's signature and rates in ``expected.json``:
    the whole-program workloads on the naive oracle path, the
    incremental one serially."""
    size = "smoke" if args.smoke else "full"
    with open(spec.EXPECTED_JSON) as fh:
        doc = json.load(fh)
    for workload in workloads:
        # the naive oracle path is slow: no time limit
        child = run_child(workload, "pin", args,
                          extra_env={"REPRO_ENGINE": "0"}, timeout=None)
        key = spec.expected_key(workload, size, args.seed)
        doc["entries"][key] = child["pin"]
        print(f"pinned {key}: {child['pin']['signature'][:16]} "
              f"{child['pin']['rates']}")
    doc["entries"] = dict(sorted(doc["entries"].items()))
    with open(spec.EXPECTED_JSON, "w") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    return 0


def _table(rows) -> str:
    widths = [max(len(str(r[i])) for r in rows) for i in range(len(rows[0]))]
    return "\n".join("  ".join(str(c).ljust(w) for c, w in zip(r, widths))
                     .rstrip() for r in rows)


def _fmt(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(prog="python -m perfbench",
                                description=__doc__.split("\n\n")[0])
    p.add_argument("command", choices=("run", "trace", "pin"))
    p.add_argument("--workload", action="append",
                   choices=list(spec.workloads()),
                   help="repeatable; default: every workload")
    p.add_argument("--seed", type=int, default=spec.DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=0.0,
                   help="measure at least this long (whole bodies)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="seconds-long sizes, for the self-test")
    args = p.parse_args(argv)
    # a terminated parent still stops its children (run_child's finally)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))

    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: no repro sources under {SRC}", file=sys.stderr)
        return 2
    workloads = args.workload or list(spec.workloads())
    if args.command == "pin":
        return pin(workloads, args)
    traced = args.command == "trace" or args.trace == 1
    registry = spec.metrics("per_layer" if traced else "end_to_end")

    results = {}
    try:
        for workload in workloads:
            results[workload] = (measure_trace(workload, args) if traced
                                 else measure_run(workload, args))
    except ChildFailed as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    # untraced times are at the reference host speed; "measured" is raw
    rows = [("workload", "metric", "value", "unit")
            + (() if traced else ("measured",))]
    metrics = {}
    for workload, res in results.items():
        for name, unit in registry.items():
            value = res["values"][name]
            rows.append((workload, name, _fmt(value), unit) + (
                () if traced else (_fmt(res["raw"][name]),)))
            key = name if len(workloads) == 1 else f"{workload}/{name}"
            metrics[key] = {"value": value, "unit": unit}
        gate = res["gate"]
        if not gate["ok"]:
            res["failed"] = res["attempted"]
        res["failed_frac"] = res["failed"] / res["attempted"]
        rows.append((workload, "failed_frac", _fmt(res["failed_frac"]),
                     "ratio") + (() if traced else ("",)))
    print(_table(rows))
    if traced:
        layers = sorted({layer for res in results.values()
                         for layer in res["self_times"]})
        table = [("self time (s)",) + tuple(results)]
        for layer in layers:
            table.append((layer,) + tuple(
                _fmt(res["self_times"].get(layer, 0.0))
                for res in results.values()))
        table.append(("body wall",) + tuple(
            _fmt(res["body_wall_s"]) for res in results.values()))
        print()
        print(_table(table))
    for workload, res in results.items():
        gate = res["gate"]
        state = "ok" if gate["ok"] else "FAILED"
        pinned = "pinned signature matched" if gate["pinned"] else \
            "seed not pinned"
        print(f"gate {workload}: {state} ({pinned}; "
              f"{gate['naive_rechecked']} naive re-runs)")
        for problem in gate["problems"]:
            print(f"  {problem}")
        for error in res["errors"]:
            print(f"  a campaign raised (its samples count as failed): "
                  f"{error}")

    correct = all(res["gate"]["ok"] for res in results.values())
    summary = {
        "correct": correct,
        "attempted": sum(res["attempted"] for res in results.values()),
        "failed": sum(res["failed"] for res in results.values()),
        "metrics": metrics,
    }
    document = {
        "schema": "perfbench/1",
        "command": "trace" if traced else "run",
        "seed": args.seed,
        "seconds": args.seconds,
        "size": "smoke" if args.smoke else "full",
        "environment": {
            "python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "nproc": os.cpu_count(),
            "platform": platform.platform(),
            "git_revision": git_revision(),
        },
        "load": "closed loop, one driving process, workloads one at a "
                "time; only incremental-2w spawns workers (2)",
        "workloads": {w: dict(results[w], why=spec.workloads()[w],
                              size=spec.SIZES[w]["smoke" if args.smoke
                                                 else "full"])
                      for w in workloads},
        "result": summary,
    }
    path = os.path.join(
        OUT_DIR, f"{document['command']}-"
                 f"{workloads[0] if len(workloads) == 1 else 'all'}-"
                 f"s{args.seed}{'-smoke' if args.smoke else ''}.json")
    with open(path, "w") as fh:
        json.dump(document, fh, indent=1)
    print(f"document: {os.path.relpath(path, ROOT)}")
    print(json.dumps(summary))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
