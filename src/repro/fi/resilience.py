"""Resilient campaign execution: injection journal + chunked supervisor.

Fault-injection campaigns are the paper's core measurement loop (3,000
injections per benchmark/level/layer), which makes the runner itself a
single point of failure: a crashed worker used to kill the whole
``pool.map``, a hung injection stalled a sweep, and an interrupted
full-experiment run restarted from zero.  This module makes the
campaign loop itself fault-tolerant:

* :class:`InjectionJournal` — an append-only JSONL file, one fsync'd
  line per classified injection, keyed by a content hash of
  ``(WorkSpec, CampaignConfig)``.  Any campaign — serial or parallel —
  can be killed at an arbitrary point and resumed bit-identically:
  already-journaled ``(index, bit)`` samples are replayed from disk and
  only the remainder is re-executed.

* a **chunked supervisor** (:func:`run_supervised`) — replaces the old
  single ``pool.map`` with bounded-size work units, sent one at a time
  to at most ``workers`` long-lived spawn processes, each of which
  builds the program once and serves chunks until told to stop.  The
  parent drains result rows incrementally, wakes on a worker's pipe or
  exit, enforces a per-chunk wall-clock watchdog, replaces a dead
  worker and retries its lost work with smaller chunks (a chunk is
  declared permanently failed only after
  :attr:`ResiliencePolicy.max_retries` retries), and degrades
  gracefully to in-process serial execution when process spawning
  itself is unavailable.

Determinism: the sample list is drawn once up front from the campaign
seed and every row is a pure function of ``(spec, idx, bit,
max_steps)``, so results are bit-identical regardless of worker count,
chunking, retries, or how many times the campaign was interrupted.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from collections import OrderedDict, deque
from dataclasses import dataclass, fields as dc_fields
from multiprocessing import get_context
from typing import Callable, Dict, List, Optional, Tuple

from ..errors import CampaignError
from ..execresult import ExecResult, RunStatus
from .campaign import CampaignConfig, InjectionRecord, _execute, _Layer
# not called here: kept importable because perfbench/spans.py wraps it
# under this module's name
from .engine import run_injection_suite  # noqa: F401
from .journal import QuarantineLog, append_doc, scan_jsonl
from .outcomes import Outcome, canonical_trap_kind, classify_outcome

__all__ = [
    "WorkSpec",
    "ResiliencePolicy",
    "InjectionJournal",
    "campaign_key",
    "run_supervised",
    "record_from_row",
    "normalize_row",
    "pruned_row",
]

#: positional layout of one journaled/worker row.  Version-1 journals
#: wrote 9-element rows without the trailing ``fault_model``; the loader
#: pads those with ``"seu"`` (the only model that existed then).
#: Version-2 journals wrote 10-element rows without the trailing
#: ``pruned`` flag; the loader pads those with ``0`` (nothing was
#: statically pruned before the flag existed).  ``pruned == 1`` marks a
#: draw the bit-liveness pruner resolved without simulation
#: (:mod:`repro.fi.prune`); its row still carries the golden output so
#: replay classifies it without re-running the analysis.
ROW_FIELDS = ("idx", "bit", "status", "output", "iid",
              "asm_index", "asm_role", "asm_opcode", "trap_kind",
              "fault_model", "pruned")

JOURNAL_VERSION = 3
#: defaults of the trailing columns older row layouts lack
_ROW_PAD = ("seu", 0)

#: test-only fault hooks — each names a sentinel path; a worker checks
#: it at the start of every chunk, and the first to claim the sentinel
#: crashes (or hangs) there, so exactly one chunk per campaign is hit.
#: This is how the test suite exercises crash recovery and the watchdog
#: without patching code inside spawn children
_CRASH_ENV = "REPRO_TEST_CRASH_SENTINEL"
_HANG_ENV = "REPRO_TEST_HANG_SENTINEL"


@dataclass(frozen=True)
class WorkSpec:
    """Everything a worker needs to rebuild the program under test."""

    source: str
    name: str = "program"
    level: Optional[int] = None
    flowery: bool = False
    compare_cse: bool = True
    #: explicit protected set (avoids re-profiling inside workers)
    selected: Optional[frozenset] = None
    layer: str = "asm"          # 'ir' | 'asm'
    #: fault model injected by workers ('seu' | 'set' | 'cf')
    fault_model: str = "seu"
    #: add the signature-based control-flow-checking pass after duplication
    cfc: bool = False


@dataclass(frozen=True)
class ResiliencePolicy:
    """Retry / watchdog knobs for the chunked supervisor."""

    #: times a chunk's samples may be re-dispatched after a crash or
    #: timeout before the campaign gives up with :class:`CampaignError`
    max_retries: int = 3
    #: per-chunk wall-clock budget, counted from when the chunk is sent;
    #: a worker's first chunk also covers its start-up and program build
    chunk_timeout: float = 300.0
    #: upper bound on samples per work unit (smaller chunks mean finer
    #: journal checkpoints and less work lost per crash, at the cost of
    #: one more pipe round trip and one more golden checkpointing pass
    #: prefix per chunk)
    max_chunk: int = 64

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise CampaignError(
                f"max_retries must be >= 0, got {self.max_retries}")
        if self.chunk_timeout <= 0:
            raise CampaignError(
                f"chunk_timeout must be positive, got {self.chunk_timeout}")
        if self.max_chunk < 1:
            raise CampaignError(
                f"max_chunk must be >= 1, got {self.max_chunk}")


# ---------------------------------------------------------------------------
# campaign identity
# ---------------------------------------------------------------------------

def _spec_doc(spec: WorkSpec) -> dict:
    doc = {f.name: getattr(spec, f.name) for f in dc_fields(WorkSpec)}
    if doc["selected"] is not None:
        doc["selected"] = sorted(doc["selected"])
    # omit fields at their defaults so campaign keys (and journals) from
    # before the fault-model/CFC additions still hash — and resume —
    # identically
    if doc.get("fault_model") == "seu":
        del doc["fault_model"]
    if doc.get("cfc") is False:
        del doc["cfc"]
    return doc


def _config_doc(config: CampaignConfig) -> dict:
    doc = {f.name: getattr(config, f.name)
           for f in dc_fields(CampaignConfig)}
    # omit the pruning switches at their defaults so campaign keys (and
    # journals) from before they existed still hash — and resume —
    # identically
    if doc.get("prune") is False:
        del doc["prune"]
    if doc.get("stratify") is False:
        del doc["stratify"]
    return doc


def _spec_from_doc(doc: dict) -> WorkSpec:
    doc = dict(doc)
    if doc.get("selected") is not None:
        doc["selected"] = frozenset(doc["selected"])
    return WorkSpec(**doc)


def campaign_key(spec: WorkSpec, config: CampaignConfig) -> str:
    """Content hash identifying one campaign's exact inputs.

    Two campaigns share a key iff they would draw the same samples and
    execute the same program — the precondition for replaying journaled
    rows.
    """
    canon = json.dumps(
        {"spec": _spec_doc(spec), "config": _config_doc(config)},
        sort_keys=True,
    )
    return hashlib.sha256(canon.encode()).hexdigest()


# ---------------------------------------------------------------------------
# the row format, shared by the executor, the sinks and journal replay
# ---------------------------------------------------------------------------

#: process-global memo of built pipelines, keyed by the layer-independent
#: part of the spec (the build is identical for 'ir' and 'asm' work).  A
#: pool worker builds on its first chunk and reuses the build for every
#: later one; an in-process caller running interleaved IR/asm sweeps over
#: the same program pays the compile cost once.  Bounded LRU so a long
#: multi-benchmark experiment cannot accumulate program graphs without
#: limit.
_BUILD_CACHE: "OrderedDict[str, object]" = OrderedDict()
_BUILD_CACHE_MAX = 8


def _build_cache_key(spec: WorkSpec) -> str:
    doc = _spec_doc(spec)
    # the build depends on neither the layer nor the injected fault model
    doc.pop("layer", None)
    doc.pop("fault_model", None)
    return json.dumps(doc, sort_keys=True)


def _build_from_spec(spec: WorkSpec):
    from ..pipeline import build_from_source

    key = _build_cache_key(spec)
    built = _BUILD_CACHE.get(key)
    if built is not None:
        _BUILD_CACHE.move_to_end(key)
        return built
    built = build_from_source(
        spec.source,
        name=spec.name,
        level=spec.level,
        flowery=spec.flowery,
        compare_cse=spec.compare_cse,
        selected=set(spec.selected) if spec.selected is not None else None,
        cfc=spec.cfc,
    )
    _BUILD_CACHE[key] = built
    while len(_BUILD_CACHE) > _BUILD_CACHE_MAX:
        _BUILD_CACHE.popitem(last=False)
    return built


def _row_from_result(idx: int, bit: int, res: ExecResult,
                     fault_model: str = "seu") -> Tuple:
    """Flatten one execution result into a JSON/pickle-safe row.

    The asm fields come from the machine's ``extra``; IR results carry
    none, so their rows hold None there."""
    return (idx, bit, res.status.value, res.output, res.injected_iid,
            res.extra.get("asm_index"), res.extra.get("asm_role"),
            res.extra.get("asm_opcode"), res.trap_kind, fault_model, 0)


def pruned_row(layer: str, idx: int, bit: int, golden_output: str,
               static_id, fault_model: str, *,
               asm_role=None, asm_opcode=None, iid=None) -> Tuple:
    """Row for a draw the pruner resolved statically.

    The row records the golden output with an OK status (a pruned
    draw's true outcome *is* benign) plus the ``pruned`` flag, so a
    journal replay classifies it as
    :attr:`~repro.fi.outcomes.Outcome.PRUNE_BENIGN` without needing the
    liveness analysis at read time.
    """
    if layer == "ir":
        return (idx, bit, RunStatus.OK.value, golden_output, static_id,
                None, None, None, None, fault_model, 1)
    return (idx, bit, RunStatus.OK.value, golden_output, iid,
            static_id, asm_role, asm_opcode, None, fault_model, 1)


def normalize_row(row) -> Optional[Tuple]:
    """A journal or store row of any layout as a tuple in the current
    :data:`ROW_FIELDS` layout, or None when its length matches none.

    The one reading of old rows: v1 rows gain ``fault_model="seu"`` and
    ``pruned=0``, v2 rows ``pruned=0``."""
    missing = len(ROW_FIELDS) - len(row)
    if not 0 <= missing <= len(_ROW_PAD):
        return None
    return tuple(row) + _ROW_PAD[len(_ROW_PAD) - missing:]


def record_from_row(row: Tuple, golden_output: str
                    ) -> Tuple[Outcome, InjectionRecord]:
    """Classify one row against the golden output.

    Uses :func:`classify_outcome` on a reconstructed result so journal
    replay and live execution share one classification path.  Rows with
    the ``pruned`` flag short-circuit to
    :attr:`~repro.fi.outcomes.Outcome.PRUNE_BENIGN` — they were never
    simulated, and folding them into plain Benign would hide how much
    work the pruner skipped.
    """
    (idx, bit, status, output, iid,
     asm_index, asm_role, asm_opcode, trap_kind, fault_model,
     pruned) = normalize_row(row)
    if pruned:
        outcome = Outcome.PRUNE_BENIGN
    else:
        probe = ExecResult(status=RunStatus(status), output=output,
                           dyn_total=0, dyn_injectable=0)
        outcome = classify_outcome(probe, golden_output)
    return outcome, InjectionRecord(
        dyn_index=idx, bit=bit, outcome=outcome, iid=iid,
        asm_index=asm_index, asm_role=asm_role, asm_opcode=asm_opcode,
        trap_kind=canonical_trap_kind(trap_kind),
        fault_model=fault_model,
    )


# ---------------------------------------------------------------------------
# injection journal
# ---------------------------------------------------------------------------

class InjectionJournal:
    """Append-only JSONL checkpoint of classified injections.

    Schema (one JSON object per line, each sealed with the CRC32 of its
    canonical form in a trailing ``"c"`` field, see
    :func:`~repro.fi.journal.append_doc`)::

        {"ev": "header", "version": 3, "key": <sha256>,
         "spec": {...WorkSpec...}, "config": {...CampaignConfig...},
         "c": <crc32>}
        {"ev": "row", "i": <original sample index>, "row": [idx, bit,
         status, output, iid, asm_index, asm_role, asm_opcode,
         trap_kind, fault_model, pruned], "c": <crc32>}

    ``version`` is :data:`JOURNAL_VERSION` and a row holds the
    :data:`ROW_FIELDS` columns; rows of older versions load padded
    (:func:`normalize_row`).

    Every ``record()`` flushes and fsyncs, so after ``SIGKILL`` at an
    arbitrary point the file holds all fully-classified samples plus at
    most one torn trailing line, which the loader discards.  Opening an
    existing journal whose key does not match the requested
    ``(spec, config)`` raises :class:`CampaignError` rather than
    silently mixing campaigns.
    """

    def __init__(self, path: str, key: str,
                 completed: Dict[int, Tuple], fh) -> None:
        self.path = path
        self.key = key
        self.completed = completed
        self._fh = fh

    # -- constructors ---------------------------------------------------

    @classmethod
    def open(cls, path: str, spec: WorkSpec,
             config: CampaignConfig) -> "InjectionJournal":
        """Open (resuming) or create the journal for ``(spec, config)``."""
        key = campaign_key(spec, config)
        completed: Dict[int, Tuple] = {}
        exists = os.path.exists(path) and os.path.getsize(path) > 0
        if exists:
            header, completed = cls._read(path)
            if header is None:
                raise CampaignError(
                    f"journal {path!r} has no readable header")
            if header.get("key") != key:
                raise CampaignError(
                    f"journal {path!r} belongs to a different campaign "
                    f"(journal key {header.get('key', '?')[:12]}..., "
                    f"requested {key[:12]}...); refusing to mix results")
        else:
            parent = os.path.dirname(os.path.abspath(path))
            os.makedirs(parent, exist_ok=True)
        fh = open(path, "a", encoding="utf-8")
        journal = cls(path, key, completed, fh)
        if not exists:
            journal._append({
                "ev": "header", "version": JOURNAL_VERSION, "key": key,
                "spec": _spec_doc(spec), "config": _config_doc(config),
            })
        return journal

    @classmethod
    def peek(cls, path: str
             ) -> Tuple[WorkSpec, CampaignConfig, Dict[int, Tuple]]:
        """Read a journal's identity and completed rows without opening
        it for writing (the ``repro resume`` entry point)."""
        if not os.path.exists(path):
            raise CampaignError(f"no journal at {path!r}")
        header, completed = cls._read(path)
        if header is None:
            raise CampaignError(f"journal {path!r} has no readable header")
        try:
            spec = _spec_from_doc(header["spec"])
            config = CampaignConfig(**header["config"])
        except (KeyError, TypeError) as exc:
            raise CampaignError(
                f"journal {path!r} header is malformed: {exc}") from None
        return spec, config, completed

    @staticmethod
    def _read(path: str) -> Tuple[Optional[dict], Dict[int, Tuple]]:
        """Parse a journal via the shared torn-tail-tolerant scanner.

        An unterminated final line is the torn tail of a killed writer
        and is discarded.  A *complete* line that fails to parse or
        fails its CRC32 checksum is corruption: it is quarantined to
        the ``.quarantine`` sidecar and skipped, so one rotted row
        never shadows the valid rows after it (DESIGN §16).
        """
        state: Dict[str, object] = {"header": None}
        completed: Dict[int, Tuple] = {}

        def on_doc(doc: dict) -> None:
            if doc.get("ev") == "header":
                state["header"] = doc
            elif doc.get("ev") == "row":
                row = doc.get("row")
                if isinstance(doc.get("i"), int) and \
                        isinstance(row, list):
                    row = normalize_row(row)
                    if row is not None:
                        completed[doc["i"]] = row

        scan_jsonl(path, on_doc, quarantine=QuarantineLog(path))
        return state["header"], completed

    # -- writing --------------------------------------------------------

    def _append(self, doc: dict) -> None:
        append_doc(self._fh, doc)

    def record(self, i: int, row: Tuple) -> None:
        """Durably checkpoint one classified sample."""
        self._append({"ev": "row", "i": i, "row": list(row)})
        self.completed[i] = tuple(row)

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    def __enter__(self) -> "InjectionJournal":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


# ---------------------------------------------------------------------------
# chunked supervisor
# ---------------------------------------------------------------------------

@dataclass
class _Chunk:
    """One bounded work unit: samples carry their plan position."""

    id: int
    samples: List[Tuple[object, int, int]]  # (position, idx, bit)
    retries: int = 0


@dataclass
class _Worker:
    """One pool process in worker slot ``slot``, serving chunks."""

    slot: int
    proc: object
    conn: object
    #: the chunk in flight (None while idle) and its watchdog expiry
    chunk: Optional[_Chunk] = None
    deadline: float = 0.0


def _consume_test_fault(env_var: str) -> bool:
    """Claim a test fault sentinel; at most one process ever wins."""
    path = os.environ.get(env_var)
    if not path:
        return False
    try:
        fd = os.open(path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
    except OSError:
        return False
    os.close(fd)
    return True


def _test_fault_hook() -> None:
    if _consume_test_fault(_CRASH_ENV):
        os._exit(3)
    if _consume_test_fault(_HANG_ENV):
        time.sleep(3600)


def _pool_worker(conn, spec: WorkSpec, max_steps: int, tier: str) -> None:
    """Child entry point: run every chunk the parent sends on the
    parent's ``tier``, until it sends None.

    The program is built on the first chunk and memoized
    (:data:`_BUILD_CACHE`), so later chunks start replaying at once.
    Rows are sent one at a time so the parent can journal partial
    progress even if this process later crashes or hangs.  A chunk that
    raises is reported and the worker stays in service.  A closed pipe
    means the parent is gone: an idle worker exits at EOF, a busy one
    at its next failed send.
    """
    try:
        while True:
            samples = conn.recv()
            if samples is None:
                return
            try:
                _test_fault_hook()
                t0 = time.perf_counter()
                adapter = _Layer.of(_build_from_spec(spec), spec.layer,
                                    spec.fault_model)
                _execute(adapter, samples, max_steps,
                         lambda orig, row: conn.send(("row", orig, row)),
                         engine=tier != "naive", dispatch=tier)
            except Exception as exc:              # noqa: BLE001
                # surface the failure; the supervisor decides on retries
                conn.send(("error", f"{type(exc).__name__}: {exc}"))
            else:
                conn.send(("done", time.perf_counter() - t0))
    except (EOFError, OSError):
        pass
    finally:
        conn.close()


def _chunk_sizes(n: int, workers: int, policy: ResiliencePolicy) -> int:
    """Samples per work unit: one chunk per worker, bounded above."""
    per_worker = -(-n // max(1, workers))         # ceil division
    return max(1, min(policy.max_chunk, per_worker))


def _describe_samples(samples: List[Tuple[object, int, int]]) -> str:
    head = ", ".join(f"#{orig}(idx={idx},bit={bit})"
                     for orig, idx, bit in samples[:4])
    more = f", ... {len(samples) - 4} more" if len(samples) > 4 else ""
    return head + more


def run_supervised(
    spec: WorkSpec,
    samples: List[Tuple[object, int, int]],
    max_steps: int,
    *,
    workers: int,
    commit: Callable[[object, Tuple], None],
    adapter: _Layer,
    tier: str,
    policy: Optional[ResiliencePolicy] = None,
    observer=None,
) -> None:
    """Execute ``samples`` (``(position, idx, bit)``) on ``workers``
    spawned processes, surviving worker crashes and hangs.

    At most ``min(workers, chunks)`` processes start, plus one
    replacement per worker lost while more chunks remain than live
    workers; all of them are stopped and joined before this returns.
    Each worker rebuilds ``spec`` once and runs every chunk it is sent
    on ``tier`` (``"naive"``, ``"decoded"`` or ``"codegen"``), as
    resolved by the caller.
    ``commit(position, row)`` fires exactly once per sample, as its row
    arrives.  Any failure to create the spawn context or its processes
    degrades to in-process execution on ``adapter``, on the same tier,
    which still commits per row.
    """
    policy = policy or ResiliencePolicy()
    delivered = set()

    def deliver(orig, row: Tuple) -> None:
        delivered.add(orig)
        commit(orig, tuple(row))

    def run_serially(todo: List[Tuple[object, int, int]]) -> None:
        t0 = time.perf_counter()
        _execute(adapter, [s for s in todo if s[0] not in delivered],
                 max_steps, deliver, engine=tier != "naive", dispatch=tier)
        if observer is not None:
            observer.worker(0, len(todo), time.perf_counter() - t0,
                            layer=spec.layer, mode="serial")

    try:
        ctx = get_context("spawn")
    except ValueError as exc:
        if observer is not None:
            observer.degrade(reason=f"no spawn context: {exc}",
                             layer=spec.layer)
        run_serially(samples)
        return

    # imported here, not at module level: it pulls in subprocess and
    # friends, which no serial campaign needs
    from multiprocessing.connection import wait

    size = _chunk_sizes(len(samples), workers, policy)
    pending: deque = deque(
        _Chunk(i, samples[lo:lo + size])
        for i, lo in enumerate(range(0, len(samples), size)))
    next_id = len(pending)
    slots: List[Optional[_Worker]] = [None] * workers
    degraded = False

    def requeue(chunk: _Chunk, reason: str) -> None:
        nonlocal next_id
        remaining = [s for s in chunk.samples if s[0] not in delivered]
        if not remaining:
            return
        retries = chunk.retries + 1
        if retries > policy.max_retries:
            raise CampaignError(
                f"chunk {chunk.id} permanently failed after "
                f"{policy.max_retries} retries ({reason}); lost samples: "
                f"{_describe_samples(remaining)}")
        if observer is not None:
            observer.retry(chunk=chunk.id, reason=reason,
                           attempt=retries, remaining=len(remaining),
                           layer=spec.layer)
        # retry with smaller chunks: split the remainder in half so a
        # poisoned sample is isolated in O(log n) retries
        halves = [remaining] if len(remaining) == 1 else [
            remaining[:len(remaining) // 2],
            remaining[len(remaining) // 2:],
        ]
        for part in halves:
            pending.appendleft(_Chunk(next_id, part, retries))
            next_id += 1

    def spawn(slot: int) -> Optional[_Worker]:
        nonlocal degraded
        conn, child_conn = ctx.Pipe()
        try:
            proc = ctx.Process(target=_pool_worker,
                               args=(child_conn, spec, max_steps, tier),
                               daemon=True)
            proc.start()
        except Exception as exc:                  # noqa: BLE001
            conn.close()
            degraded = True
            if observer is not None:
                observer.degrade(reason=f"process spawn failed: {exc}",
                                 layer=spec.layer)
            return None
        finally:
            child_conn.close()
        slots[slot] = _Worker(slot, proc, conn)
        return slots[slot]

    def reap(w: _Worker) -> None:
        slots[w.slot] = None
        w.proc.join(timeout=5)
        if w.proc.is_alive():
            w.proc.kill()
            w.proc.join()
        w.conn.close()

    def lost(w: _Worker) -> None:
        """Reap a worker that died; its chunk's remainder goes back."""
        reap(w)
        if w.chunk is not None:
            requeue(w.chunk, f"worker died (exitcode {w.proc.exitcode})")

    def dispatch() -> None:
        """Hand pending chunks to idle workers; start a worker in a free
        slot only when every live one is busy."""
        while pending and not degraded:
            idle = [w for w in slots if w is not None and w.chunk is None]
            w = idle[0] if idle else None
            if w is None and None in slots:
                w = spawn(slots.index(None))
            if w is None:
                return
            w.chunk = pending.popleft()
            # a worker's first chunk also covers its start-up and build
            w.deadline = time.monotonic() + policy.chunk_timeout
            try:
                w.conn.send(w.chunk.samples)
            except OSError:
                lost(w)

    def service(w: _Worker) -> None:
        """Drain ``w``'s pipe, then settle its chunk: finished, failed
        in the worker, lost with the worker, or overdue."""
        # read liveness first: a dead worker's last rows are all piped
        alive = w.proc.is_alive()
        while w.chunk is not None:
            try:
                if not w.conn.poll():
                    break
                msg = w.conn.recv()
            except (EOFError, OSError):
                alive = False
                break
            if msg[0] == "row":
                deliver(msg[1], msg[2])
                continue
            chunk, w.chunk = w.chunk, None
            if msg[0] == "done":
                if observer is not None:
                    observer.worker(w.slot, len(chunk.samples), msg[1],
                                    layer=spec.layer, chunk=chunk.id)
            else:
                requeue(chunk, f"worker error: {msg[1]}")
        if not alive:
            lost(w)
        elif w.chunk is not None and time.monotonic() >= w.deadline:
            w.proc.terminate()
            reap(w)
            if observer is not None:
                observer.timeout(chunk=w.chunk.id,
                                 seconds=policy.chunk_timeout,
                                 layer=spec.layer)
            requeue(w.chunk, f"watchdog timeout after "
                             f"{policy.chunk_timeout:g}s")

    try:
        while True:
            dispatch()
            busy = [w for w in slots
                    if w is not None and w.chunk is not None]
            if not busy:
                break
            wait([x for w in busy for x in (w.conn, w.proc.sentinel)],
                 max(0.0, min(w.deadline for w in busy) - time.monotonic()))
            for w in busy:
                service(w)
    finally:
        # idle workers are told to stop; busy ones (an exception path)
        # are terminated, so nothing waits on a worker's recv() or chunk
        live = [w for w in slots if w is not None]
        for w in live:
            if w.chunk is not None:
                w.proc.terminate()
                continue
            try:
                w.conn.send(None)
            except OSError:
                pass
        for w in live:
            reap(w)
    if pending:
        run_serially([s for ch in pending for s in ch.samples])
