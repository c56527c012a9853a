"""Multiprocess fault-injection campaigns.

Campaigns are embarrassingly parallel: every injection is an
independent re-execution.  On multi-core hosts this module fans a
campaign out over worker processes; each worker rebuilds the pipeline
from a compact :class:`WorkSpec` (source + protection parameters)
because compiled program graphs are cheaper to rebuild than to pickle.

:func:`run_parallel_campaign` is the build phase plus the campaign
driver of :mod:`repro.fi.campaign`: with ``workers > 1`` its executor
hands the samples to the resilience layer (:mod:`repro.fi.resilience`)
— bounded-size chunks with per-chunk watchdogs and crash retry — and
with ``journal_path`` every classified injection lands in an on-disk
journal that lets a killed campaign resume bit-identically.  Results
are bit-identical for any worker count because the (index, bit) sample
list is drawn once up front from the campaign seed and each sample
carries its original position through the work units.
"""

from __future__ import annotations

import os
from typing import Optional

from ..errors import CampaignError
from .campaign import CampaignConfig, CampaignResult, _Layer, _phase, _run
from .resilience import ResiliencePolicy, WorkSpec, _build_from_spec

__all__ = ["WorkSpec", "run_parallel_campaign",
           "run_incremental_campaign_for_spec", "default_workers"]


def default_workers() -> int:
    """Worker count: ``REPRO_WORKERS`` if set, else the CPU count.

    The value is validated (a malformed ``REPRO_WORKERS`` raises
    :class:`CampaignError`, not a bare ``ValueError``) and capped at
    ``os.cpu_count()`` — more workers than cores only adds spawn
    overhead for these CPU-bound campaigns.
    """
    ncpu = max(1, os.cpu_count() or 1)
    env = os.environ.get("REPRO_WORKERS")
    if env:
        try:
            requested = int(env)
        except ValueError:
            raise CampaignError(
                f"REPRO_WORKERS must be an integer, got {env!r}"
            ) from None
        return min(max(1, requested), ncpu)
    return ncpu


def run_parallel_campaign(
    spec: WorkSpec,
    config: CampaignConfig = CampaignConfig(),
    workers: Optional[int] = None,
    observer=None,
    journal_path: Optional[str] = None,
    policy: Optional[ResiliencePolicy] = None,
    built=None,
) -> CampaignResult:
    """Run a campaign for ``spec``, fanned out over supervised processes.

    Deterministic for a given (spec, config) regardless of worker
    count, chunking, retries, or interruptions.  With ``journal_path``
    every classified injection is checkpointed to an append-only JSONL
    journal; re-running with the same (spec, config) skips journaled
    samples, so a killed campaign resumes where it left off and returns
    a result bit-identical to an uninterrupted run.  An optional
    :class:`repro.trace.CampaignObserver` receives phase timings,
    per-chunk throughput, retry/timeout/resume events, and the outcome
    histogram.  ``built`` short-circuits the build phase when the
    caller already compiled the spec'd program.  A stratified campaign
    (``config.stratify``) runs in-process and cannot be journaled.
    """
    if config.stratify and journal_path is not None:
        raise CampaignError(
            "stratified campaigns cannot be journaled; run without a "
            "journal or without stratify")
    workers = workers or default_workers()
    if built is None:
        with _phase(observer, "build", layer=spec.layer):
            built = _build_from_spec(spec)
    return _run(_Layer.of(built, spec.layer, spec.fault_model), config,
                observer=observer, spec=spec, workers=workers,
                journal_path=journal_path, policy=policy)


def run_incremental_campaign_for_spec(
    spec: WorkSpec,
    config: CampaignConfig = CampaignConfig(),
    store_path: Optional[str] = None,
    workers: Optional[int] = None,
    observer=None,
    policy: Optional[ResiliencePolicy] = None,
    built=None,
    dispatch: Optional[str] = None,
):
    """Section-level incremental campaign for a :class:`WorkSpec`.

    The section planner (:mod:`repro.fi.compose`) decides what the
    store cannot serve; only those injections execute — in-process
    through the checkpoint-replay engine, or (``workers > 1``) fanned
    out through the chunked crash-tolerant supervisor with each
    classified row checkpointed into the store under its section's
    profile key.  Returns a :class:`repro.fi.compose.ComposedResult`.

    With ``store_path=None`` the shared-store default ``REPRO_STORE``
    applies (DESIGN §16), so a fleet of campaign processes can be
    pointed at one store without threading the path through every
    call site; the store layer handles cross-process locking, claim
    dedup and degradation to private mode.
    """
    from .compose import SectionProfileStore, run_incremental_campaign

    workers = workers if workers is not None else default_workers()
    if built is None:
        with _phase(observer, "build", layer=spec.layer):
            built = _build_from_spec(spec)
    if store_path is None:
        store_path = os.environ.get("REPRO_STORE") or None
    store = SectionProfileStore(store_path) if store_path else None
    try:
        return run_incremental_campaign(
            built, spec.layer, config, store,
            fault_model=spec.fault_model, dispatch=dispatch,
            observer=observer,
            spec=spec, workers=workers, policy=policy,
        )
    finally:
        if store is not None:
            store.close()
