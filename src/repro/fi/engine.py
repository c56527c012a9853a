"""Checkpoint-replay execution engine for fault-injection campaigns.

The naive campaign loop re-executes the *entire* golden prefix for
every injection: O(n_campaigns × trace_len) dynamic steps.  Because the
fault model perturbs nothing before the targeted dynamic instruction,
every injection at dynamic index ``k`` shares the first ``k`` golden
steps exactly.  This engine amortizes them (the FastFlip idea applied
to replay structure):

1. sort the distinct drawn injection indices ascending;
2. execute the golden trace **once** with ``checkpoints=`` set, letting
   the simulator stream out an immutable snapshot of machine state at
   each index (taken just before the targeted instruction executes —
   the flip lands after it writes its destination; checkpointing runs
   on the decoded core whatever the tier);
3. for each injection at that index, resume the replay simulator from
   the snapshot — on either snapshot tier, decoded or codegen — and run
   only the post-injection *suffix*.

Total cost drops to O(trace_len + Σ suffix lengths).  Determinism: both
simulators are sequential and single-threaded, a snapshot captures the
complete machine state (memory, registers/frames, flags, program
counter, step/injection counters, output buffer), and the replayed
suffix executes the same closures over the same state — so every replay
is bit-identical to the corresponding full run, and campaign results
are bit-identical to the naive path (asserted by
``tests/test_engine_equivalence.py``).

A snapshot's memory is an extent image (:class:`~repro.memorymodel
.MemoryImage`): only the bytes the run has written, so capturing it
and restoring it onto the reused replay simulator cost O(bytes
written), not O(image) (DESIGN §10).  The engine holds one snapshot at
a time: replays for an index happen inside the checkpoint callback,
before the golden pass moves on, so peak memory is the golden and
replay simulators' two images plus one extent image, regardless of
campaign size.

``REPRO_ENGINE=0`` disables the engine globally (campaigns fall back to
the naive re-execution path with naive dispatch — the exact pre-engine
code path), which is also the baseline the benchmark harness measures
against.
"""

from __future__ import annotations

import os
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from ..contain import host_escape_result
from ..errors import CampaignError
from ..execresult import ExecResult
from ..interp.layout import GlobalLayout
from ..ir.module import Module
from ..machine.machine import CompiledProgram
from ..simulator import SNAPSHOT_TIERS

__all__ = ["engine_dispatch", "engine_enabled", "run_injection_suite"]


def engine_enabled(flag: Optional[bool] = None) -> bool:
    """Resolve the engine on/off switch.

    An explicit ``flag`` wins; otherwise the ``REPRO_ENGINE``
    environment variable decides (default on; ``"0"`` disables).
    """
    if flag is not None:
        return bool(flag)
    return os.environ.get("REPRO_ENGINE", "1") != "0"


def engine_dispatch(dispatch: Optional[str] = None) -> str:
    """Resolve the engine tier a caller forced, or the default one.

    An explicit ``dispatch`` wins; otherwise ``REPRO_DISPATCH`` decides,
    defaulting to ``"decoded"``: the tier golden runs and set-up run
    on, and the one whose closures every tier's checkpoints stream
    from.  Campaign replays do not simply take this default: when
    neither ``dispatch`` nor ``REPRO_DISPATCH`` forces a tier, the
    campaign executor routes each call's replays to codegen or decoded
    by whether its planned suffix steps pay for the codegen build
    (:func:`repro.fi.campaign._route`).  Results are bit-identical
    across tiers, and no journal or store key depends on the tier.
    Only the snapshot tiers (:data:`~repro.simulator.SNAPSHOT_TIERS`)
    are legal here — ``"naive"`` cannot resume from checkpoints.  A
    typo (``"codgen"``) raises :class:`CampaignError` rather than
    silently falling back.
    """
    resolved = (dispatch if dispatch is not None
                else os.environ.get("REPRO_DISPATCH", "decoded"))
    if resolved not in SNAPSHOT_TIERS:
        raise CampaignError(
            "engine dispatch must be "
            + " or ".join(repr(t) for t in SNAPSHOT_TIERS)
            + f", got {resolved!r}")
    return resolved


def run_injection_suite(
    layer: str,
    samples: Iterable[Tuple[object, int, int]],
    max_steps: int,
    *,
    module: Optional[Module] = None,
    layout: Optional[GlobalLayout] = None,
    program: Optional[CompiledProgram] = None,
    emit: Callable[[object, ExecResult], None],
    dispatch: Optional[str] = None,
    fault_model: Optional[str] = None,
    stats: Optional[Dict[str, int]] = None,
) -> None:
    """Run every ``(tag, dyn_index, bit)`` injection with checkpoint-replay.

    ``emit(tag, result)`` is called once per sample, in ascending
    ``dyn_index`` order (callers that need the original sample order key
    their own structures by ``tag``).  Indices beyond the end of the
    golden trace — impossible when drawn below the injectable count, but
    guarded anyway — fall back to plain full executions.

    ``dispatch`` selects the snapshot tier (see :func:`engine_dispatch`;
    the campaign executor passes the tier it forced or routed); suffix
    replays resume on it, while the golden checkpointing pass
    always streams snapshots from the decoded core (the simulators'
    routing rule, :mod:`repro.simulator`).  ``fault_model``
    (default SEU) selects what the injection corrupts — the simulators
    watch/checkpoint at that model's injectable sites.

    ``stats``, when given, accumulates the engine's simulated-step
    accounting in place: ``golden_steps`` (the shared checkpointing
    pass), ``suffix_steps`` (dynamic steps actually re-executed across
    every replay — a resumed run's ``dyn_total`` is full-run-equivalent,
    so the suffix is its total minus the snapshot's step counter) and
    ``replays``.  This is the denominator behind the pruning benchmark's
    "fewer simulated steps" claim (:mod:`repro.fi.prune`).
    """
    # the adapter lives with the campaign driver, which imports this module
    from .campaign import _Layer

    tier = engine_dispatch(dispatch)
    adapter = _Layer(layer, module=module, layout=layout, program=program,
                     fault_model=fault_model)

    def fresh():
        return adapter.simulator(tier, max_steps)

    by_idx: Dict[int, List[Tuple[object, int]]] = {}
    for tag, idx, bit in samples:
        by_idx.setdefault(idx, []).append((tag, bit))
    if not by_idx:
        return
    targets = sorted(by_idx)
    done = set()

    # One long-lived replay simulator: resuming from a snapshot resets
    # the complete machine state — its restore zeroes whatever a faulty
    # replay wrote outside the snapshot's extents — so reusing the
    # instance (rather than constructing a fresh ~MB memory image per
    # injection) is safe and saves the dominant allocation cost on
    # short traces.
    replay_sim = fresh()

    def account(suffix: int) -> None:
        if stats is not None:
            stats["suffix_steps"] = stats.get("suffix_steps", 0) + suffix
            stats["replays"] = stats.get("replays", 0) + 1

    def replay(idx: int, snap) -> None:
        for tag, bit in by_idx[idx]:
            try:
                res = replay_sim.run(
                    inject_index=idx, inject_bit=bit, resume_from=snap
                )
            except (MemoryError, RecursionError) as exc:
                # resource exhaustion outside the simulator's own
                # containment boundary (e.g. during snapshot restore):
                # classify this one injection as a trap instead of
                # letting the worker die and burn split-retry budget
                res = host_escape_result(exc, layer=layer)
            account(max(0, res.dyn_total - snap.dyn_total))
            emit(tag, res)
        done.add(idx)

    golden = fresh().run(checkpoints=targets, checkpoint_cb=replay)
    if stats is not None:
        stats["golden_steps"] = (
            stats.get("golden_steps", 0) + golden.dyn_total)
    for idx in targets:
        if idx not in done:  # pragma: no cover - defensive
            for tag, bit in by_idx[idx]:
                try:
                    res = fresh().run(inject_index=idx, inject_bit=bit)
                except (MemoryError, RecursionError) as exc:
                    res = host_escape_result(exc, layer=layer)
                account(res.dyn_total)
                emit(tag, res)
