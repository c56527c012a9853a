"""Shared fsync'd-JSONL journal primitives for multi-process stores.

:class:`~repro.fi.resilience.InjectionJournal` (§9) and
:class:`~repro.fi.compose.SectionProfileStore` (§15) independently
grew the same on-disk discipline: append-only JSONL, one flushed and
fsync'd line per event, a torn-tail-tolerant loader that discards an
unterminated final line (the expected artifact of ``SIGKILL`` mid
``write``).  This module extracts that discipline once and hardens it
for *shared* files that many campaign processes read and write
concurrently (DESIGN §16):

* **Per-line CRC32 checksums** — every appended document carries a
  ``"c"`` field: the CRC32 of its canonical JSON serialization without
  that field.  Documents written before checksums existed simply lack
  the field and load as before, so v1 journals and stores remain
  readable.

* **Corrupt-line quarantine** — a *complete* line (newline-terminated)
  that fails to parse or fails its checksum is not a torn tail: it is
  corruption (bitrot, a non-advisory writer, a partial overwrite).
  The scanner skips it, logs it to a sidecar ``<path>.quarantine``
  file, and keeps going — a corrupt row must never crash a campaign
  nor silently end the scan and shadow every later, valid row.  Only
  an unterminated final line is treated as a torn tail and silently
  discarded.

* **Advisory cross-process locking** — :class:`FileLock` wraps
  ``fcntl.flock`` on a sidecar ``<path>.lock`` file (the data file's
  fd cannot be used: compaction atomically replaces the data inode)
  with bounded retry and exponential backoff.  Exhausting the budget
  raises a loud :class:`~repro.errors.StoreLockTimeout` naming the
  path, mode, and how long was waited — callers decide whether that
  is fatal or a reason to degrade to a private store.

Scans run in binary mode and report byte offsets, so a long-lived
reader can cheaply re-scan only the tail another process appended
since its last look (the refresh path of the shared store).
"""

from __future__ import annotations

import json
import os
import time
import zlib
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Iterator, Optional

from ..errors import StoreLockTimeout

try:  # pragma: no cover - exercised only on platforms without fcntl
    import fcntl
except ImportError:  # pragma: no cover
    fcntl = None

__all__ = [
    "CRC_FIELD",
    "FileLock",
    "QuarantineLog",
    "ScanStats",
    "append_doc",
    "canonical_crc",
    "fsync_dir",
    "scan_jsonl",
    "seal_doc",
]

#: reserved top-level key carrying a document's own checksum
CRC_FIELD = "c"

#: default lock-acquisition budget (seconds); override per-lock or via
#: the environment for slow shared filesystems
DEFAULT_LOCK_TIMEOUT = 30.0
_LOCK_TIMEOUT_ENV = "REPRO_STORE_LOCK_TIMEOUT"
#: first and largest sleep (seconds) between lock-acquisition polls
_LOCK_INITIAL_DELAY = 0.002
_LOCK_MAX_DELAY = 0.1


def _env_lock_timeout() -> float:
    raw = os.environ.get(_LOCK_TIMEOUT_ENV)
    if not raw:
        return DEFAULT_LOCK_TIMEOUT
    try:
        value = float(raw)
    except ValueError:
        raise StoreLockTimeout(
            f"{_LOCK_TIMEOUT_ENV} must be a number of seconds, "
            f"got {raw!r}") from None
    if value <= 0:
        raise StoreLockTimeout(
            f"{_LOCK_TIMEOUT_ENV} must be positive, got {value!r}")
    return value


# ---------------------------------------------------------------------------
# checksummed documents
# ---------------------------------------------------------------------------

def canonical_crc(doc: dict) -> int:
    """CRC32 of a document's canonical JSON form (sans ``"c"``).

    Canonical means sorted keys and compact separators, so the checksum
    is independent of the key order and whitespace the writer happened
    to serialize with — a reloaded-and-rewritten document (compaction)
    keeps its checksum.
    """
    if CRC_FIELD in doc:
        doc = {k: v for k, v in doc.items() if k != CRC_FIELD}
    payload = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return zlib.crc32(payload.encode("utf-8")) & 0xFFFFFFFF


def seal_doc(doc: dict) -> dict:
    """Return ``doc`` with its checksum field appended (last, so the
    leading ``{"ev": ...`` prefix stays greppable)."""
    sealed = {k: v for k, v in doc.items() if k != CRC_FIELD}
    sealed[CRC_FIELD] = canonical_crc(sealed)
    return sealed


def append_doc(fh, doc: dict) -> None:
    """Append one JSONL line durably: write, flush, fsync."""
    fh.write(json.dumps(seal_doc(doc)) + "\n")
    fh.flush()
    os.fsync(fh.fileno())


def fsync_dir(path: str) -> None:
    """fsync a directory so a rename inside it is durable."""
    try:
        fd = os.open(path, os.O_RDONLY)
    except OSError:  # pragma: no cover - platform-dependent
        return
    try:
        os.fsync(fd)
    except OSError:  # pragma: no cover
        pass
    finally:
        os.close(fd)


# ---------------------------------------------------------------------------
# quarantine sidecar
# ---------------------------------------------------------------------------

class QuarantineLog:
    """Sidecar log of corrupt lines skipped while scanning a journal.

    Best-effort by design: quarantining exists so a corrupt row cannot
    crash a campaign, so the quarantine write itself must never raise.
    """

    def __init__(self, journal_path: str):
        self.path = journal_path + ".quarantine"

    def record(self, *, offset: int, line: bytes, reason: str) -> None:
        entry = {
            "ts": time.time(),
            "offset": offset,
            "reason": reason,
            "line": line.decode("utf-8", errors="replace")[:4096],
        }
        try:
            with open(self.path, "a", encoding="utf-8") as fh:
                fh.write(json.dumps(entry) + "\n")
                fh.flush()
                os.fsync(fh.fileno())
        except OSError:
            pass


# ---------------------------------------------------------------------------
# torn-tail-tolerant, quarantining scanner
# ---------------------------------------------------------------------------

@dataclass
class ScanStats:
    """Outcome of one :func:`scan_jsonl` pass."""

    #: valid documents delivered to the handler
    docs: int = 0
    #: complete lines skipped as corrupt (parse or checksum failure)
    corrupt: int = 0
    #: documents that carried and passed a checksum
    crc_checked: int = 0
    #: documents accepted without a checksum field (legacy writers)
    crc_missing: int = 0
    #: an unterminated final line was discarded
    torn_tail: bool = False
    #: byte offset just past the last complete line examined — the
    #: resume point for an incremental tail re-scan
    offset: int = 0


def scan_jsonl(
    path: str,
    on_doc: Callable[[dict], None],
    *,
    start: int = 0,
    quarantine: Optional[QuarantineLog] = None,
) -> ScanStats:
    """Scan ``path`` from byte ``start``, delivering valid documents.

    Every *complete* line (newline-terminated) either parses, passes
    its checksum (when present), and reaches ``on_doc`` — or is
    quarantined and skipped.  An unterminated final line is the torn
    tail of a killed writer: discarded, scan ends.  ``on_doc``
    receives the parsed dict with the checksum field already removed.
    """
    stats = ScanStats(offset=start)
    with open(path, "rb") as fh:
        if start:
            fh.seek(start)
        while True:
            line = fh.readline()
            if not line:
                break
            if not line.endswith(b"\n"):
                stats.torn_tail = True
                break
            line_offset = stats.offset
            stats.offset += len(line)
            reason = None
            doc = None
            try:
                doc = json.loads(line)
            except (json.JSONDecodeError, UnicodeDecodeError) as exc:
                reason = f"unparseable JSON: {exc}"
            else:
                if not isinstance(doc, dict):
                    reason = f"not a JSON object: {type(doc).__name__}"
                elif CRC_FIELD in doc:
                    claimed = doc.pop(CRC_FIELD)
                    actual = canonical_crc(doc)
                    if claimed != actual:
                        reason = (f"checksum mismatch: line claims "
                                  f"{claimed!r}, content is {actual}")
                    else:
                        stats.crc_checked += 1
                else:
                    stats.crc_missing += 1
            if reason is not None:
                stats.corrupt += 1
                if quarantine is not None:
                    quarantine.record(offset=line_offset, line=line,
                                      reason=reason)
                continue
            stats.docs += 1
            on_doc(doc)
    return stats


# ---------------------------------------------------------------------------
# advisory cross-process locking
# ---------------------------------------------------------------------------

class FileLock:
    """``fcntl.flock`` advisory lock with bounded exponential backoff.

    The lock lives on its own sidecar file so it survives atomic
    replacement of the data file (compaction renames a fresh journal
    over the old inode; an flock on the old inode would guard
    nothing).  Acquisition polls with ``LOCK_NB`` and sleeps with
    exponential backoff up to ``timeout`` seconds, then raises
    :class:`~repro.errors.StoreLockTimeout` — loudly, with the path
    and wait budget, never a silent hang.  On platforms without
    ``fcntl`` the lock degrades to a no-op (single-process semantics).
    """

    def __init__(self, path: str, *, timeout: Optional[float] = None):
        self.path = path
        self.timeout = timeout if timeout is not None else _env_lock_timeout()
        self._fd: Optional[int] = None
        #: acquisitions that had to wait at least one backoff round
        self.contended = 0
        #: total acquisitions (for stats reporting)
        self.acquisitions = 0

    @property
    def supported(self) -> bool:
        return fcntl is not None

    @property
    def held(self) -> bool:
        return self._fd is not None

    def acquire(self, *, shared: bool = False) -> None:
        if self._fd is not None:
            raise StoreLockTimeout(
                f"lock {self.path!r} is already held by this handle "
                f"(non-reentrant)")
        fd = os.open(self.path, os.O_CREAT | os.O_RDWR, 0o644)
        if fcntl is None:  # pragma: no cover - non-POSIX fallback
            self._fd = fd
            self.acquisitions += 1
            return
        mode = fcntl.LOCK_SH if shared else fcntl.LOCK_EX
        deadline = time.monotonic() + self.timeout
        delay = _LOCK_INITIAL_DELAY
        waited = False
        while True:
            try:
                fcntl.flock(fd, mode | fcntl.LOCK_NB)
                break
            except (BlockingIOError, PermissionError):
                if time.monotonic() >= deadline:
                    os.close(fd)
                    raise StoreLockTimeout(
                        f"could not acquire {'shared' if shared else 'exclusive'} "
                        f"lock on {self.path!r} within {self.timeout:g}s; "
                        f"another campaign holds it (set "
                        f"{_LOCK_TIMEOUT_ENV} to wait longer)") from None
                waited = True
                time.sleep(delay)
                delay = min(delay * 2, _LOCK_MAX_DELAY)
        self._fd = fd
        self.acquisitions += 1
        if waited:
            self.contended += 1

    def release(self) -> None:
        if self._fd is None:
            return
        fd, self._fd = self._fd, None
        try:
            if fcntl is not None:
                fcntl.flock(fd, fcntl.LOCK_UN)
        finally:
            os.close(fd)

    @contextmanager
    def exclusive(self) -> Iterator[None]:
        self.acquire(shared=False)
        try:
            yield
        finally:
            self.release()

    @contextmanager
    def shared(self) -> Iterator[None]:
        self.acquire(shared=True)
        try:
            yield
        finally:
            self.release()
