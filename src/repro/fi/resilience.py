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
  single ``pool.map`` with bounded-size work units, each executed in
  its own spawn process.  The parent drains result rows incrementally,
  detects worker death via exit codes, enforces a per-chunk wall-clock
  watchdog, retries lost work with smaller chunks (a chunk is declared
  permanently failed only after :attr:`ResiliencePolicy.max_retries`
  retries), and degrades gracefully to in-process serial execution when
  process spawning itself is unavailable.

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
_LEGACY_ROW_LEN = 9
_V2_ROW_LEN = 10

#: test-only fault hooks — each names a sentinel path; the first worker
#: process to claim the sentinel crashes (or hangs) exactly once, which
#: is how the test suite exercises crash recovery and the watchdog
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
    #: per-chunk wall-clock budget, including child start-up + rebuild
    chunk_timeout: float = 300.0
    #: upper bound on samples per work unit (smaller chunks mean finer
    #: journal checkpoints and less work lost per crash, at the cost of
    #: one pipeline rebuild per chunk)
    max_chunk: int = 64
    #: parent poll cadence while draining worker pipes
    poll_interval: float = 0.02

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
        if self.poll_interval <= 0:
            raise CampaignError(
                f"poll_interval must be positive, got {self.poll_interval}")


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
#: worker process that executes several chunks — or interleaved IR/asm
#: sweeps over the same program — pays the compile cost once.  Bounded
#: LRU so a long multi-benchmark experiment cannot accumulate program
#: graphs without limit.
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
    if len(row) == _LEGACY_ROW_LEN:
        row = row + ("seu",)
    if len(row) == _V2_ROW_LEN:
        row = row + (0,)
    (idx, bit, status, output, iid,
     asm_index, asm_role, asm_opcode, trap_kind, fault_model,
     pruned) = row
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

    Schema (one JSON object per line)::

        {"ev": "header", "version": 1, "key": <sha256>,
         "spec": {...WorkSpec...}, "config": {...CampaignConfig...}}
        {"ev": "row", "i": <original sample index>, "row": [idx, bit,
         status, output, iid, asm_index, asm_role, asm_opcode,
         trap_kind]}

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
                        isinstance(row, list) and \
                        len(row) in (len(ROW_FIELDS), _V2_ROW_LEN,
                                     _LEGACY_ROW_LEN):
                    if len(row) == _LEGACY_ROW_LEN:
                        row = row + ["seu"]
                    if len(row) == _V2_ROW_LEN:
                        row = row + [0]
                    completed[doc["i"]] = tuple(row)

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
class _Running:
    proc: object
    conn: object
    chunk: _Chunk
    deadline: float
    secs: Optional[float] = None
    finished: bool = False
    error: Optional[str] = None


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


def _chunk_worker(conn, spec: WorkSpec,
                  samples: List[Tuple[object, int, int]],
                  max_steps: int) -> None:
    """Child entry point: rebuild, run the chunk, stream rows back.

    Rows are sent one at a time so the parent can journal partial
    progress even if this process later crashes or hangs.
    """
    try:
        _test_fault_hook()
        t0 = time.perf_counter()
        adapter = _Layer.of(_build_from_spec(spec), spec.layer,
                            spec.fault_model)
        _execute(adapter, samples, max_steps,
                 lambda orig, row: conn.send(("row", orig, row)))
        conn.send(("done", time.perf_counter() - t0))
    except Exception as exc:                      # noqa: BLE001
        # surface the failure to the supervisor; it decides on retries
        try:
            conn.send(("error", f"{type(exc).__name__}: {exc}"))
        except OSError:
            pass
    finally:
        try:
            conn.close()
        except OSError:
            pass


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
    policy: Optional[ResiliencePolicy] = None,
    observer=None,
) -> None:
    """Execute ``samples`` (``(position, idx, bit)``) on ``workers``
    spawned processes, surviving worker crashes and hangs.

    Each worker rebuilds ``spec``.  ``commit(position, row)`` fires
    exactly once per sample, as its row arrives.  Any failure to create
    the spawn context or its processes degrades to in-process execution
    on ``adapter``, which still commits per row.
    """
    policy = policy or ResiliencePolicy()
    delivered = set()

    def deliver(orig, row: Tuple) -> None:
        delivered.add(orig)
        commit(orig, tuple(row))

    def run_serially(todo: List[Tuple[object, int, int]]) -> None:
        t0 = time.perf_counter()
        _execute(adapter, [s for s in todo if s[0] not in delivered],
                 max_steps, deliver)
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

    size = _chunk_sizes(len(samples), workers, policy)
    next_id = 0
    pending: deque = deque()
    for start in range(0, len(samples), size):
        pending.append(_Chunk(next_id, samples[start:start + size]))
        next_id += 1

    running: List[_Running] = []
    degraded = False

    def requeue(r: _Running, reason: str) -> None:
        nonlocal next_id
        remaining = [s for s in r.chunk.samples if s[0] not in delivered]
        if not remaining:
            return
        retries = r.chunk.retries + 1
        if retries > policy.max_retries:
            raise CampaignError(
                f"chunk {r.chunk.id} permanently failed after "
                f"{policy.max_retries} retries ({reason}); lost samples: "
                f"{_describe_samples(remaining)}")
        if observer is not None:
            observer.retry(chunk=r.chunk.id, reason=reason,
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

    def reap(r: _Running) -> None:
        r.proc.join(timeout=5)
        if r.proc.is_alive():
            r.proc.kill()
            r.proc.join()
        try:
            r.conn.close()
        except OSError:
            pass

    try:
        while pending or running:
            # dispatch up to one process per worker slot
            while not degraded and pending and len(running) < workers:
                chunk = pending.popleft()
                recv_conn, send_conn = ctx.Pipe(duplex=False)
                try:
                    proc = ctx.Process(
                        target=_chunk_worker,
                        args=(send_conn, spec, chunk.samples, max_steps),
                        daemon=True,
                    )
                    proc.start()
                except Exception as exc:          # noqa: BLE001
                    send_conn.close()
                    recv_conn.close()
                    pending.appendleft(chunk)
                    degraded = True
                    if observer is not None:
                        observer.degrade(
                            reason=f"process spawn failed: {exc}",
                            layer=spec.layer)
                    break
                send_conn.close()
                running.append(_Running(
                    proc, recv_conn, chunk,
                    deadline=time.monotonic() + policy.chunk_timeout))

            if degraded and not running:
                run_serially([s for ch in pending for s in ch.samples])
                pending.clear()
                continue

            time.sleep(policy.poll_interval)

            still: List[_Running] = []
            for r in running:
                try:
                    while r.conn.poll():
                        msg = r.conn.recv()
                        if msg[0] == "row":
                            deliver(msg[1], msg[2])
                        elif msg[0] == "done":
                            r.finished = True
                            r.secs = msg[1]
                        elif msg[0] == "error":
                            r.error = msg[1]
                except (EOFError, OSError):
                    pass        # closed pipe: liveness check decides
                if r.finished:
                    reap(r)
                    if observer is not None:
                        observer.worker(r.chunk.id, len(r.chunk.samples),
                                        r.secs or 0.0, layer=spec.layer)
                elif r.error is not None:
                    reap(r)
                    requeue(r, f"worker error: {r.error}")
                elif not r.proc.is_alive():
                    # crashed before reporting: every undelivered sample
                    # goes back to the queue
                    reap(r)
                    requeue(r, f"worker died (exitcode "
                               f"{r.proc.exitcode})")
                elif time.monotonic() > r.deadline:
                    r.proc.terminate()
                    reap(r)
                    if observer is not None:
                        observer.timeout(chunk=r.chunk.id,
                                         seconds=policy.chunk_timeout,
                                         layer=spec.layer)
                    requeue(r, f"watchdog timeout after "
                               f"{policy.chunk_timeout:g}s")
                else:
                    still.append(r)
            running = still
    finally:
        for r in running:
            if r.proc.is_alive():
                r.proc.terminate()
            reap(r)
