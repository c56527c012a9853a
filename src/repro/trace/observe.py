"""Campaign observability: phase timings, worker throughput, outcomes.

A :class:`CampaignObserver` is threaded through the campaign runners
(:mod:`repro.fi.campaign`, :mod:`repro.fi.parallel`) and the
experiment driver (:mod:`repro.experiments.runner`).  It collects a
flat stream of timestamped events — phases, per-worker summaries,
outcome counts — which can be emitted as JSONL for machines or as a
summary table for humans.

Event schema (one JSON object per line)::

    {"ev": "phase",   "name": ..., "seconds": ..., ...extra}
    {"ev": "worker",  "worker": i, "chunk": c, "injections": n,
     "seconds": s, "rate": n/s}
    {"ev": "outcome", "counts": {...}, "total": n}
    {"ev": "route",   "layer": ..., "tier": ..., "planned_steps": ...,
     "static_size": ..., "forced": ...}
    {"ev": ...}       # free-form via emit()

A ``worker`` event is one finished work unit: ``worker`` is the pool
slot that ran it and ``chunk`` the supervisor's chunk id; an in-process
run reports ``worker`` 0, ``"mode": "serial"`` and no ``chunk``.

A ``route`` event is one call of the campaign executor: the replay tier
it chose (DESIGN §13.5), its planned suffix steps, the program's static
size (IR instructions or asm uops) and whether ``dispatch=``,
``REPRO_DISPATCH`` or ``REPRO_ENGINE=0`` forced the tier.  The parent
process emits it for pooled calls too.

All timings use :func:`time.perf_counter`; events carry a monotonic
``t`` offset (seconds since the observer was created) rather than a
wall-clock time, so event streams from one run are reproducible in
shape.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional

__all__ = ["CampaignObserver"]


class CampaignObserver:
    """Collects phase/worker/outcome events during a campaign."""

    def __init__(self) -> None:
        self._t0 = time.perf_counter()
        self.events: List[dict] = []

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------
    def emit(self, ev: str, **fields: object) -> dict:
        """Record one free-form event and return it."""
        record: dict = {"ev": ev, "t": round(self._now(), 6)}
        record.update(fields)
        self.events.append(record)
        return record

    @contextmanager
    def phase(self, name: str, **fields: object) -> Iterator[None]:
        """Time a named phase (compile / lower / golden / inject / ...)."""
        start = time.perf_counter()
        try:
            yield
        finally:
            self.emit("phase", name=name,
                      seconds=round(time.perf_counter() - start, 6),
                      **fields)

    def worker(self, worker: int, injections: int, seconds: float,
               **fields: object) -> None:
        """Record one finished work unit's throughput.

        ``worker`` is the pool slot that ran it (0 for an in-process
        run; a replacement takes its dead predecessor's slot) and the
        supervisor adds ``chunk=<id>``."""
        rate = injections / seconds if seconds > 0 else 0.0
        self.emit("worker", worker=worker, injections=injections,
                  seconds=round(seconds, 6), rate=round(rate, 2),
                  **fields)

    def outcomes(self, counts: Dict[str, int], **fields: object) -> None:
        """Record the final outcome histogram of a campaign."""
        self.emit("outcome", counts=dict(counts),
                  total=sum(counts.values()), **fields)

    def route(self, layer: str, tier: str, planned_steps: int,
              static_size: int, forced: bool) -> None:
        """Record the replay tier one executor call chose."""
        self.emit("route", layer=layer, tier=tier,
                  planned_steps=planned_steps, static_size=static_size,
                  forced=forced)

    # -- resilience events (see repro.fi.resilience) -------------------

    def retry(self, chunk: int, reason: str, attempt: int,
              remaining: int, **fields: object) -> None:
        """Record a chunk re-dispatch after a worker crash or timeout."""
        self.emit("retry", chunk=chunk, reason=reason, attempt=attempt,
                  remaining=remaining, **fields)

    def timeout(self, chunk: int, seconds: float, **fields: object) -> None:
        """Record a per-chunk watchdog expiry."""
        self.emit("timeout", chunk=chunk, seconds=seconds, **fields)

    def resume(self, skipped: int, path: str, **fields: object) -> None:
        """Record samples replayed from an injection journal."""
        self.emit("resume", skipped=skipped, path=path, **fields)

    def degrade(self, reason: str, **fields: object) -> None:
        """Record a fall-back from process workers to serial execution."""
        self.emit("degrade", reason=reason, **fields)

    def _now(self) -> float:
        return time.perf_counter() - self._t0

    # ------------------------------------------------------------------
    # reading
    # ------------------------------------------------------------------
    def phase_seconds(self) -> Dict[str, float]:
        """Total seconds per phase name (phases may repeat)."""
        out: Dict[str, float] = {}
        for ev in self.events:
            if ev["ev"] == "phase":
                out[ev["name"]] = out.get(ev["name"], 0.0) + ev["seconds"]
        return out

    def worker_events(self) -> List[dict]:
        return [e for e in self.events if e["ev"] == "worker"]

    def outcome_counts(self) -> Dict[str, int]:
        """Merged outcome counts across all outcome events."""
        out: Dict[str, int] = {}
        for ev in self.events:
            if ev["ev"] == "outcome":
                for k, v in ev["counts"].items():
                    out[k] = out.get(k, 0) + v
        return out

    def route_events(self) -> List[dict]:
        return [e for e in self.events if e["ev"] == "route"]

    def resilience_events(self) -> List[dict]:
        """Retry / timeout / resume / degrade events, in order."""
        return [e for e in self.events
                if e["ev"] in ("retry", "timeout", "resume", "degrade")]

    # ------------------------------------------------------------------
    # output
    # ------------------------------------------------------------------
    def to_jsonl(self) -> str:
        return "\n".join(json.dumps(e) for e in self.events) + "\n"

    def write_jsonl(self, path: str) -> None:
        with open(path, "w") as fh:
            fh.write(self.to_jsonl())

    def summary(self) -> str:
        """Human-readable table: phases, workers, outcomes."""
        lines: List[str] = []
        phases = self.phase_seconds()
        if phases:
            total = sum(phases.values())
            lines.append("phase timings")
            lines.append(f"  {'phase':<16s} {'seconds':>10s} {'share':>7s}")
            for name, secs in phases.items():
                share = 100.0 * secs / total if total else 0.0
                lines.append(f"  {name:<16s} {secs:>10.4f} {share:>6.1f}%")
            lines.append(f"  {'total':<16s} {total:>10.4f}")
        routes = self.route_events()
        if routes:
            lines.append("replay tiers")
            lines.append(f"  {'layer':<6s} {'tier':<8s} "
                         f"{'planned steps':>14s} {'static size':>12s} "
                         f"{'forced':>7s}")
            for ev in routes:
                lines.append(f"  {ev['layer']:<6s} {ev['tier']:<8s} "
                             f"{ev['planned_steps']:>14d} "
                             f"{ev['static_size']:>12d} "
                             f"{'yes' if ev['forced'] else 'no':>7s}")
        workers = self.worker_events()
        if workers:
            lines.append("worker throughput")
            lines.append(f"  {'worker':<8s} {'chunk':>6s} "
                         f"{'injections':>10s} "
                         f"{'seconds':>10s} {'inj/s':>8s}")
            for ev in workers:
                lines.append(f"  {ev['worker']:<8d} "
                             f"{ev.get('chunk', '-')!s:>6s} "
                             f"{ev['injections']:>10d} "
                             f"{ev['seconds']:>10.4f} "
                             f"{ev['rate']:>8.1f}")
        counts = self.outcome_counts()
        if counts:
            total = sum(counts.values())
            lines.append("outcomes")
            for name in sorted(counts):
                share = 100.0 * counts[name] / total if total else 0.0
                lines.append(f"  {name:<16s} {counts[name]:>8d} "
                             f"{share:>6.1f}%")
            lines.append(f"  {'total':<16s} {total:>8d}")
        resil = self.resilience_events()
        if resil:
            lines.append("resilience")
            skipped = sum(e["skipped"] for e in resil
                          if e["ev"] == "resume")
            if skipped:
                lines.append(f"  resumed from journal: {skipped} "
                             f"samples skipped")
            for kind, label in (("retry", "retries"),
                                ("timeout", "timeouts"),
                                ("degrade", "degrades")):
                n = sum(1 for e in resil if e["ev"] == kind)
                if n:
                    lines.append(f"  {label:<16s} {n:>8d}")
        if not lines:
            return "(no events recorded)\n"
        return "\n".join(lines) + "\n"
