"""Simulator probes of the traced run: step speed, cold-start cost,
snapshot capture, suffix replay and outcome classification, timed on a
workload's own programs and drawn samples through the simulators'
public ``run(checkpoints=…, resume_from=…)`` interface.
"""

from __future__ import annotations

import statistics
import time
from typing import Dict, List, Tuple

import numpy as np

from repro.fi.engine import engine_dispatch
from repro.fi.outcomes import classify_outcome
from repro.interp.interpreter import IRInterpreter
from repro.machine.machine import AsmMachine

#: timed repetitions of each warm run (the median is kept)
REPEATS = 3
#: tiers whose warm step speed is reported, default tier included
TIERS = ("decoded", "codegen")
#: the tier that serves checkpointing runs whatever the engine's tier:
#: codegen hands a run with ``checkpoints=`` to the decoded core
SNAPSHOT_TIER = "decoded"
#: a replay with a suffix shorter than this measures the fixed cost of
#: a restore rather than step execution
SHORT_SUFFIX = 100


def simulator(built, layer: str, tier: str, fault_model=None, **kwargs):
    """An ``IRInterpreter`` or ``AsmMachine`` for ``built`` on ``tier``."""
    if layer == "ir":
        return IRInterpreter(built.module, layout=built.layout,
                             dispatch=tier, fault_model=fault_model,
                             **kwargs)
    return AsmMachine(built.compiled, built.layout, dispatch=tier,
                      fault_model=fault_model, **kwargs)


def _timed(fn) -> Tuple[float, object]:
    t0 = time.perf_counter()
    result = fn()
    return time.perf_counter() - t0, result


def _median_time(fn) -> float:
    return statistics.median(_timed(fn)[0] for _ in range(REPEATS))


def _noop(index, snapshot) -> None:
    pass


def run_probes(targets, seed: int) -> Dict[str, float]:
    """Every ``sim.*`` metric plus ``classify.us`` over ``targets``."""
    tier = engine_dispatch()
    steps = {}          # (layer, tier) -> [steps, seconds]
    prepare: Dict[str, List[float]] = {"ir": [], "asm": []}
    snap_extra = 0.0
    snap_count = 0
    replays: List[Tuple[float, int]] = []      # (seconds, suffix steps)
    classified = []                            # (result, golden output)

    for t in targets:
        fm = t.fault_model

        # cold start: the first run of a fresh build pays the tier's
        # one-time preparation (decode or code generation)
        fresh = t.rebuild()

        def cold_run():
            return simulator(fresh, t.layer, tier, fm).run()

        first, _ = _timed(cold_run)
        prepare[t.layer].append(first - _median_time(cold_run))

        golden = None
        plain = {}          # tier -> seconds of a warm plain run
        for name in TIERS:
            golden = simulator(t.built, t.layer, name, fm).run()    # warm-up
            plain[name] = _median_time(
                lambda: simulator(t.built, t.layer, name, fm).run())
            acc = steps.setdefault((t.layer, name), [0, 0.0])
            acc[0] += golden.dyn_total
            acc[1] += plain[name]

        samples = t.samples
        if samples is None:
            rng = np.random.default_rng(seed)
            samples = list(zip(
                rng.integers(0, golden.dyn_injectable, 200).tolist(),
                rng.integers(0, 64, 200).tolist()))
        by_idx: Dict[int, List[int]] = {}
        for idx, bit in samples:
            by_idx.setdefault(idx, []).append(bit)
        checkpoints = sorted(by_idx)

        # snapshot capture: a checkpointing pass stops at its last
        # checkpoint, so charge it against a plain run's time over the
        # same prefix on the same tier
        def checkpointing():
            return simulator(t.built, t.layer, SNAPSHOT_TIER, fm).run(
                checkpoints=checkpoints, checkpoint_cb=_noop)

        prefix = checkpointing()
        secs = _median_time(checkpointing)
        snap_extra += secs - (plain[SNAPSHOT_TIER] * prefix.dyn_total
                              / golden.dyn_total)
        snap_count += len(checkpoints)

        # suffix replay from each snapshot, one reused simulator (the
        # engine's discipline)
        replay_sim = simulator(t.built, t.layer, tier, fm,
                               max_steps=max(20_000, 4 * golden.dyn_total))

        def replay(idx, snap):
            start = getattr(snap, "steps", None)
            if start is None:
                start = snap.dyn_total
            for bit in by_idx[idx]:
                secs, res = _timed(lambda: replay_sim.run(
                    inject_index=idx, inject_bit=bit, resume_from=snap))
                replays.append((secs, max(0, res.dyn_total - start)))
                classified.append((res, golden.output))

        simulator(t.built, t.layer, tier, fm).run(checkpoints=checkpoints,
                                                  checkpoint_cb=replay)

    def classify_all():
        for res, out in classified:
            classify_outcome(res, out)

    short = [s for s, suffix in replays if suffix < SHORT_SUFFIX]
    metrics = {
        f"sim.{layer}.{name}.steps_per_s": n / secs
        for (layer, name), (n, secs) in steps.items()
    }
    metrics.update({
        f"sim.{layer}.prepare_s": statistics.mean(vals)
        for layer, vals in prepare.items() if vals
    })
    metrics.update({
        "sim.snapshot_us": 1e6 * snap_extra / snap_count,
        "sim.replay_us": 1e6 * statistics.median(s for s, _ in replays),
        "sim.replay_short_us": (1e6 * statistics.median(short)
                                if short else 0.0),
        "sim.replay_steps_per_s": (sum(n for _, n in replays)
                                   / sum(s for s, _ in replays)),
        "classify.us": 1e6 * _median_time(classify_all) / len(classified),
    })
    return metrics
