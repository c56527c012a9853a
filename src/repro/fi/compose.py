"""Compositional incremental campaigns over a section-profile store.

The whole-program campaign (:mod:`repro.fi.campaign`) answers "what is
this program's SDC rate" by re-injecting the entire program.  This
module answers the same question *compositionally* (FastFlip, DESIGN
§15): partition the program into sections (:mod:`repro.fi.sections`),
run one injection sub-campaign per section through the campaign
executor, and compose the per-section SDC/DUE/detected profiles —
weighted by each section's share of the dynamic injectable-site space —
into whole-program estimates with confidence intervals
(:mod:`repro.fi.stats`).

Each section profile is cached in a :class:`SectionProfileStore`, an
append-only fsync'd JSONL journal built on the shared primitives of
:mod:`repro.fi.journal`, keyed by a content hash over (section code,
layer, dispatch tier, fault model, execution environment, dynamic
signature, protection config, sampling plan).  Re-running an unchanged
program is therefore pure cache hits — zero simulated injections — and
editing one function (or flipping one function's protection)
re-simulates only the sections whose hashes changed.  A killed run
resumes bit-identically: every classified injection was fsync'd as a
row before the profile commit, so the next run replays journaled rows
and simulates only the remainder.

**Multi-tenant sharing (DESIGN §16).**  One store file may be written
by many concurrent campaign processes.  Every append happens under a
short-lived exclusive :class:`~repro.fi.journal.FileLock` lease that
first catches up on lines other writers appended; loads and refreshes
run under the shared mode of the same lock.  Rows carry CRC32
checksums; a complete-but-corrupt line is quarantined to a sidecar
``.quarantine`` log and skipped, never fatal.  In-flight sections are
announced with *claim* rows (owner ``host:pid:token`` plus a TTL kept
alive by heartbeats) so concurrent campaigns dedupe work: a campaign
that finds a live foreign claim waits for that owner's profile instead
of re-simulating, and takes the section over if the claim expires or
its owner is provably dead.  When the store is unreachable or lock
acquisition exhausts its budget, the store *degrades to private mode*
— in-memory only, a single loud warning — and the campaign keeps
going; only a schema mismatch is a hard error.

**Approximation contract.** For an unchanged program the composed
result is exact (the per-section oracle test proves outcome counts
bit-match an exhaustive whole-program campaign).  After an edit, reused
profiles of *unchanged* sections carry the FastFlip independence
approximation: the section's injections were classified against the
old program's golden output and executed in its context.  The dynamic
signature in the key rejects reuse whenever the edit changed the
section's dynamic site profile, which catches the common cross-section
couplings (trip counts, call counts); residual error is the documented
cost of not re-simulating the world.
"""

from __future__ import annotations

import hashlib
import json
import os
import socket
import time
import warnings
import weakref
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..errors import CampaignError, StoreLockTimeout
from .campaign import (
    CampaignConfig,
    _draw,
    _execute,
    _Layer,
    _phase,
    _prune_plan,
    _record_outcomes,
)
from .engine import engine_dispatch
# not called here: kept importable because perfbench/spans.py wraps it
# under this module's name
from .engine import run_injection_suite  # noqa: F401
from .journal import (
    FileLock,
    QuarantineLog,
    append_doc,
    fsync_dir,
    scan_jsonl,
    seal_doc,
)
from .outcomes import Outcome
from .resilience import ROW_FIELDS, record_from_row
from .sections import SiteMap, map_sites
from .stats import DEFAULT_Z, composed_interval

__all__ = [
    "STORE_SCHEMA",
    "SectionProfile",
    "SectionProfileStore",
    "SectionOutcome",
    "ComposedResult",
    "profile_key",
    "profile_key_doc",
    "key_from_doc",
    "run_incremental_campaign",
    "cached_site_map",
    "compact_store",
    "verify_store",
    "store_stats",
]

#: bump when the store document layout changes (JOURNAL_VERSION-style).
#: v2 adds per-line CRC32 checksums, claim/release coordination rows and
#: the ``kd`` key-preimage on profile commits; v1 files load unchanged.
STORE_SCHEMA = "section-profile/1"
STORE_VERSION = 2

#: default lifetime of a section claim without a heartbeat (seconds)
CLAIM_TTL = 30.0
_CLAIM_TTL_ENV = "REPRO_STORE_CLAIM_TTL"
#: how long a campaign waits on foreign claims before force-simulating
_WAIT_BUDGET_ENV = "REPRO_STORE_WAIT"
DEFAULT_WAIT_BUDGET = 600.0


def _env_float(name: str, default: float) -> float:
    raw = os.environ.get(name)
    if not raw:
        return default
    try:
        value = float(raw)
    except ValueError:
        raise CampaignError(
            f"{name} must be a number of seconds, got {raw!r}") from None
    if value <= 0:
        raise CampaignError(f"{name} must be positive, got {value!r}")
    return value


# ---------------------------------------------------------------------------
# profile identity
# ---------------------------------------------------------------------------

def _protection_doc(built) -> Dict:
    """Protection configuration of a built program, canonically.

    The section content hash already encodes the protected code; this
    doc is the belt-and-braces identity the ISSUE's key demands (and
    what makes store files self-describing).
    """
    doc: Dict = {}
    prot = getattr(built, "protection", None)
    if prot is not None:
        doc["level"] = prot.level
        if getattr(prot, "flowery", False):
            doc["flowery"] = True
    if getattr(built, "cfc_info", None) is not None:
        doc["cfc"] = True
    return doc


def profile_key_doc(
    section,
    site_map: SiteMap,
    *,
    dispatch: str,
    protection: Dict,
    seed: int,
    exhaustive_bits: Optional[Tuple[int, ...]] = None,
    prune: bool = False,
) -> Dict:
    """The preimage document a profile key hashes (see
    :func:`profile_key`).  Stored alongside profile commits as ``kd``
    so ``repro store verify`` can recompute every key hash.

    ``prune`` marks profiles whose rows may contain statically-resolved
    :data:`~repro.fi.outcomes.Outcome.PRUNE_BENIGN` entries.  It enters
    the doc only when True — unpruned campaigns keep the exact keys
    they hashed before the pruner existed, so a store populated by an
    older binary stays warm."""
    doc = {
        "schema": STORE_SCHEMA,
        "content": section.content_hash,
        "layer": section.layer,
        "dispatch": dispatch,
        "fault_model": site_map.fault_model,
        "env": site_map.env_hash,
        "dyn_sig": site_map.dyn_signatures[section.index],
        "protection": protection,
    }
    if exhaustive_bits is not None:
        doc["exhaustive_bits"] = list(exhaustive_bits)
    else:
        doc["seed"] = seed
    if prune:
        doc["prune"] = True
    return doc


def key_from_doc(doc: Dict) -> str:
    """Hash a key-preimage doc into the store key."""
    canon = json.dumps(doc, sort_keys=True)
    return hashlib.sha256(canon.encode()).hexdigest()


def profile_key(
    section,
    site_map: SiteMap,
    *,
    dispatch: str,
    protection: Dict,
    seed: int,
    exhaustive_bits: Optional[Tuple[int, ...]] = None,
    prune: bool = False,
) -> str:
    """Content hash identifying one cached section profile.

    Two lookups share a key iff the section's code, execution layer,
    replay tier, fault model, environment (globals), dynamic site
    profile, protection config and sampling *stream* (the seed, or the
    exhaustive bit plan) all match.  The per-run sample *count* is
    deliberately NOT part of the key: it is derived from the whole
    program's site totals, so baking it in would invalidate every
    unchanged section whenever any other section was edited.  A cached
    profile is served when it holds at least as many samples as the
    current plan asks for (it is at least as precise); a plan that
    needs more samples re-simulates the section and commits the larger
    profile over the old one.
    """
    return key_from_doc(profile_key_doc(
        section, site_map, dispatch=dispatch, protection=protection,
        seed=seed, exhaustive_bits=exhaustive_bits, prune=prune,
    ))


def _section_seed(seed: int, section, fault_model: str) -> int:
    """Deterministic per-section RNG stream, independent of every other
    section (so an edit elsewhere never perturbs this section's draw)."""
    digest = hashlib.sha256(
        f"{seed}|{section.layer}|{fault_model}|{section.content_hash}"
        .encode()).digest()
    return int.from_bytes(digest[:8], "big")


# ---------------------------------------------------------------------------
# profiles
# ---------------------------------------------------------------------------

@dataclass
class SectionProfile:
    """Aggregated sub-campaign outcome for one section."""

    key: str
    name: str
    content_hash: str
    n: int
    counts: Dict[Outcome, int]
    #: dynamic injectable sites the section owned at profiling time
    site_count: int

    def to_doc(self) -> Dict:
        return {
            "name": self.name,
            "content": self.content_hash,
            "n": self.n,
            "counts": {o.value: c for o, c in self.counts.items() if c},
            "sites": self.site_count,
        }

    @classmethod
    def from_doc(cls, key: str, doc: Dict) -> "SectionProfile":
        return cls(
            key=key,
            name=doc["name"],
            content_hash=doc["content"],
            n=doc["n"],
            counts={o: doc["counts"].get(o.value, 0) for o in Outcome},
            site_count=doc["sites"],
        )


# ---------------------------------------------------------------------------
# the store
# ---------------------------------------------------------------------------

class SectionProfileStore:
    """Journal-backed content-addressed section-profile cache, safe for
    concurrent multi-process use.

    Schema (one JSON object per line; shared by many campaigns)::

        {"ev": "header", "version": 2, "schema": "section-profile/1", "c": …}
        {"ev": "row", "k": <profile key>, "n": <plan sample count>,
         "i": <local sample index>,
         "row": [idx, bit, status, output, iid, asm_index, asm_role,
                 asm_opcode, trap_kind, fault_model], "c": …}
        {"ev": "profile", "k": <key>, "kd": <key preimage>,
         "profile": {...}, "c": …}
        {"ev": "claim", "k": <key>, "n": <plan n>,
         "owner": "host:pid:token", "ts": <epoch>, "ttl": <sec>, "c": …}
        {"ev": "release", "k": <key>, "owner": "host:pid:token", "c": …}

    Rows are fsync'd per append (the InjectionJournal discipline), so a
    ``SIGKILL`` at any point leaves all fully classified injections on
    disk plus at most one torn trailing line, which the loader
    discards.  Every line carries a CRC32 checksum (``"c"``, appended
    last so the ``{"ev": …`` prefix stays greppable); a complete line
    that fails its checksum or does not parse is quarantined to
    ``<path>.quarantine`` and skipped — corruption never crashes a
    campaign and never shadows later valid lines.  Legacy v1 lines
    without a checksum load as before.

    A ``profile`` line marks the section complete; rows without one are
    a partial sub-campaign the next run resumes.  Rows carry the plan's
    sample count because the seed-derived draw is a single RNG stream
    per (section, seed): the i-th sample of an n=30 plan and of an n=40
    plan differ, so rows only replay into a plan of the same size.
    Profile lines are latest-wins — committing a larger re-simulated
    profile supersedes the old one; byte-identical recommits are
    skipped (counted in :meth:`stats`).

    Writes take a short exclusive flock lease on ``<path>.lock`` (a
    sidecar, so the lease survives compaction's atomic rename) and
    first ingest any lines other processes appended; loads take the
    shared mode.  If the store is unreachable or the lock budget is
    exhausted the store degrades to *private mode*: in-memory only,
    one ``RuntimeWarning``, campaign continues.  A schema mismatch is
    always a loud :class:`~repro.errors.CampaignError`.
    """

    def __init__(self, path: str, *, lock_timeout: Optional[float] = None,
                 claim_ttl: Optional[float] = None):
        self.path = path
        self.profiles: Dict[str, SectionProfile] = {}
        #: partial (uncommitted) rows: key -> {(plan n, local i): row}
        self.partial: Dict[str, Dict[Tuple[int, int], Tuple]] = {}
        #: live claim docs by key (latest wins; profile/release clears)
        self.claims: Dict[str, Dict] = {}
        self.claim_ttl = (claim_ttl if claim_ttl is not None
                          else _env_float(_CLAIM_TTL_ENV, CLAIM_TTL))
        self.noop_commits_skipped = 0
        self.degraded = False
        self.degraded_reason: Optional[str] = None
        #: cumulative corruption/CRC statistics from every scan
        self.scan_corrupt = 0
        self.scan_crc_checked = 0
        self.scan_crc_missing = 0
        self._host = socket.gethostname()
        self._token = os.urandom(4).hex()
        self._owner = f"{self._host}:{os.getpid()}:{self._token}"
        #: claims held by this handle: key -> last heartbeat time
        self._my_claims: Dict[str, float] = {}
        self._header_seen = False
        self._offset = 0
        self._fh = None
        self._quarantine = QuarantineLog(path)
        self._lock = FileLock(path + ".lock", timeout=lock_timeout)
        try:
            with self._lock.exclusive():
                exists = os.path.exists(path) and os.path.getsize(path) > 0
                if exists:
                    self._scan_from(0)
                    if not self._header_seen:
                        raise CampaignError(
                            f"store {self.path!r} has no readable header")
                else:
                    parent = os.path.dirname(os.path.abspath(path))
                    os.makedirs(parent, exist_ok=True)
                # the append handle opens only after a successful load,
                # so an unreadable/mismatched store cannot leak the fd
                self._fh = open(path, "a", encoding="utf-8")
                if not exists:
                    append_doc(self._fh, {
                        "ev": "header", "version": STORE_VERSION,
                        "schema": STORE_SCHEMA,
                    })
                    self._header_seen = True
                    self._offset = os.fstat(self._fh.fileno()).st_size
        except StoreLockTimeout as exc:
            self._degrade(f"lock acquisition failed: {exc}")
        except OSError as exc:
            self._degrade(f"store unreachable: {exc}")

    # -- degradation ----------------------------------------------------

    def _degrade(self, reason: str) -> None:
        """Switch to private (in-memory) mode: warn once, keep going."""
        if self.degraded:
            return
        self.degraded = True
        self.degraded_reason = reason
        if self._fh is not None:
            try:
                self._fh.close()
            except OSError:
                pass
            self._fh = None
        if self._lock.held:
            self._lock.release()
        self._my_claims.clear()
        self.claims.clear()
        warnings.warn(
            f"shared profile store {self.path!r} degraded to private "
            f"(in-memory) mode: {reason}; results of this campaign will "
            f"not be shared", RuntimeWarning, stacklevel=3)

    # -- scanning / ingest ----------------------------------------------

    def _ingest(self, doc: Dict) -> None:
        ev = doc.get("ev")
        if ev == "header":
            if doc.get("schema") != STORE_SCHEMA:
                raise CampaignError(
                    f"store {self.path!r} has schema "
                    f"{doc.get('schema')!r}, expected {STORE_SCHEMA!r}")
            self._header_seen = True
        elif ev == "row":
            row = doc.get("row")
            if isinstance(doc.get("i"), int) and \
                    isinstance(doc.get("n"), int) and \
                    isinstance(row, list) and \
                    len(row) == len(ROW_FIELDS):
                self.partial.setdefault(
                    doc["k"], {})[(doc["n"], doc["i"])] = tuple(row)
        elif ev == "profile":
            try:
                self.profiles[doc["k"]] = SectionProfile.from_doc(
                    doc["k"], doc["profile"])
            except (KeyError, TypeError):
                return              # malformed entry: treat as absent
            self.partial.pop(doc["k"], None)
            self.claims.pop(doc["k"], None)
        elif ev == "claim":
            if isinstance(doc.get("k"), str):
                self.claims[doc["k"]] = doc
        elif ev == "release":
            claim = self.claims.get(doc.get("k"))
            if claim is not None and claim.get("owner") == doc.get("owner"):
                del self.claims[doc["k"]]

    def _scan_from(self, start: int) -> None:
        stats = scan_jsonl(self.path, self._ingest, start=start,
                           quarantine=self._quarantine)
        self._offset = stats.offset
        self.scan_corrupt += stats.corrupt
        self.scan_crc_checked += stats.crc_checked
        self.scan_crc_missing += stats.crc_missing

    def _reopen_if_rotated(self) -> None:
        """After a concurrent compaction atomically replaced the data
        file, our append handle points at the unlinked old inode:
        reopen and rebuild in-memory state from the fresh journal."""
        if self._fh is None:
            return
        st = os.stat(self.path)
        if os.fstat(self._fh.fileno()).st_ino == st.st_ino:
            return
        self._fh.close()
        self._fh = open(self.path, "a", encoding="utf-8")
        self.profiles.clear()
        self.partial.clear()
        self.claims.clear()
        self._header_seen = False
        self._offset = 0
        self._scan_from(0)

    def _catch_up_locked(self) -> None:
        """Ingest lines other writers appended since our last look.
        Caller must hold the lock (either mode)."""
        self._reopen_if_rotated()
        size = os.fstat(self._fh.fileno()).st_size
        if size > self._offset:
            self._scan_from(self._offset)

    def refresh(self) -> None:
        """Pick up other processes' commits (shared lock, tail scan)."""
        if self.degraded:
            return
        try:
            with self._lock.shared():
                self._catch_up_locked()
        except StoreLockTimeout as exc:
            self._degrade(f"lock acquisition failed: {exc}")
        except OSError as exc:
            self._degrade(f"store unreachable: {exc}")

    def _append(self, doc: Dict) -> None:
        """Durably append one event under a short exclusive lease.

        The lease first catches up on foreign appends (so our byte
        offset never skips over them) and re-targets the journal if a
        compaction rotated it.  Lock or I/O failure degrades to
        private mode — the in-memory effect of the event is applied by
        the caller either way.
        """
        if self.degraded:
            return
        try:
            with self._lock.exclusive():
                self._catch_up_locked()
                append_doc(self._fh, doc)
                self._offset = os.fstat(self._fh.fileno()).st_size
        except StoreLockTimeout as exc:
            self._degrade(f"lock acquisition failed: {exc}")
        except OSError as exc:
            self._degrade(f"store unreachable: {exc}")

    # -- reads ----------------------------------------------------------

    def get(self, key: str) -> Optional[SectionProfile]:
        return self.profiles.get(key)

    def partial_rows(self, key: str, n: int) -> Dict[int, Tuple]:
        """Journaled rows for ``key`` drawn under a plan of size ``n``."""
        return {i: row
                for (rn, i), row in self.partial.get(key, {}).items()
                if rn == n}

    # -- claims (multi-writer work dedup) --------------------------------

    def claim_of(self, key: str) -> Optional[Dict]:
        """The live foreign claim on ``key``, if any (stale claims and
        our own claims read as absent)."""
        claim = self.claims.get(key)
        if claim is None or claim.get("owner") == self._owner:
            return None
        if self.claim_is_stale(claim):
            return None
        return claim

    def claim_is_stale(self, claim: Dict) -> bool:
        """A claim is stale when its TTL expired without a heartbeat,
        or its owner is provably gone (dead pid on this host, or a
        previous incarnation of this very process)."""
        now = time.time()
        ts = claim.get("ts", 0)
        ttl = claim.get("ttl", self.claim_ttl)
        if not isinstance(ts, (int, float)) or \
                not isinstance(ttl, (int, float)) or now > ts + ttl:
            return True
        owner = claim.get("owner", "")
        try:
            host, pid_s, token = owner.rsplit(":", 2)
            pid = int(pid_s)
        except (ValueError, AttributeError):
            return True
        if host != self._host:
            return False            # cross-host: only the TTL can tell
        if pid == os.getpid():
            # same pid, different token: an earlier, dead incarnation
            return token != self._token
        try:
            os.kill(pid, 0)
        except ProcessLookupError:
            return True
        except (PermissionError, OSError):
            pass
        return False

    def try_claim(self, key: str, n: int) -> str:
        """Attempt to claim ``key`` for a plan of ``n`` samples.

        Returns ``"mine"`` (claimed: simulate it), ``"busy"`` (a live
        foreign claim with a plan at least as large is in flight: wait
        for its profile), or ``"served"`` (catching up revealed a
        committed profile that already satisfies the plan).
        """
        if self.degraded:
            return "mine"
        claimed = {"ev": "claim", "k": key, "n": n, "owner": self._owner,
                   "ts": time.time(), "ttl": self.claim_ttl}
        try:
            with self._lock.exclusive():
                self._catch_up_locked()
                cached = self.profiles.get(key)
                if cached is not None and cached.n >= n:
                    return "served"
                foreign = self.claim_of(key)
                if foreign is not None and foreign.get("n", 0) >= n:
                    return "busy"
                # no claim, a stale one, or a smaller foreign plan that
                # cannot serve us: announce ours (latest claim wins)
                append_doc(self._fh, claimed)
                self._offset = os.fstat(self._fh.fileno()).st_size
        except StoreLockTimeout as exc:
            self._degrade(f"lock acquisition failed: {exc}")
            return "mine"
        except OSError as exc:
            self._degrade(f"store unreachable: {exc}")
            return "mine"
        self.claims[key] = claimed
        self._my_claims[key] = claimed["ts"]
        return "mine"

    def _heartbeat(self, key: str) -> None:
        """Refresh our claim's TTL when half of it has elapsed."""
        last = self._my_claims.get(key)
        if last is None or self.degraded:
            return
        now = time.time()
        if now - last < self.claim_ttl / 2:
            return
        doc = {"ev": "claim", "k": key,
               "n": self.claims.get(key, {}).get("n", 0),
               "owner": self._owner, "ts": now, "ttl": self.claim_ttl}
        self._append(doc)
        if not self.degraded:
            self.claims[key] = doc
            self._my_claims[key] = now

    def release(self, key: str) -> None:
        """Drop our claim on ``key`` without committing a profile."""
        if key not in self._my_claims:
            return
        del self._my_claims[key]
        claim = self.claims.get(key)
        if claim is not None and claim.get("owner") == self._owner:
            del self.claims[key]
        self._append({"ev": "release", "k": key, "owner": self._owner})

    def release_all(self) -> None:
        """Drop every claim this handle still holds (abort path)."""
        for key in list(self._my_claims):
            self.release(key)

    # -- writes ----------------------------------------------------------

    def record_row(self, key: str, n: int, i: int, row: Tuple) -> None:
        """Durably checkpoint one classified injection."""
        self._append({"ev": "row", "k": key, "n": n, "i": i,
                      "row": list(row)})
        self.partial.setdefault(key, {})[(n, i)] = tuple(row)
        self._heartbeat(key)

    def commit_profile(self, profile: SectionProfile,
                       key_doc: Optional[Dict] = None) -> None:
        """Mark one section's sub-campaign complete.

        A byte-identical recommit (same key, same payload as the
        profile already on record) is skipped — warm runs must not
        bloat a shared journal — but still releases any claim we hold,
        since no profile event will do it for us.
        """
        existing = self.profiles.get(profile.key)
        if existing is not None and existing.to_doc() == profile.to_doc():
            self.noop_commits_skipped += 1
            self.profiles[profile.key] = profile
            self.partial.pop(profile.key, None)
            self.release(profile.key)
            return
        doc = {"ev": "profile", "k": profile.key,
               "profile": profile.to_doc()}
        if key_doc is not None:
            doc["kd"] = key_doc
        self._append(doc)
        self.profiles[profile.key] = profile
        self.partial.pop(profile.key, None)
        # the profile event itself clears the claim for every reader
        self._my_claims.pop(profile.key, None)
        self.claims.pop(profile.key, None)

    # -- stats / lifecycle ----------------------------------------------

    def stats(self) -> Dict[str, object]:
        """Operational counters for ``repro store stats`` and tests."""
        return {
            "path": self.path,
            "degraded": self.degraded,
            "degraded_reason": self.degraded_reason,
            "profiles": len(self.profiles),
            "partial_keys": len(self.partial),
            "partial_rows": sum(len(v) for v in self.partial.values()),
            "claims": len(self.claims),
            "noop_commits_skipped": self.noop_commits_skipped,
            "quarantined": self.scan_corrupt,
            "crc_checked": self.scan_crc_checked,
            "crc_missing": self.scan_crc_missing,
            "lock_acquisitions": self._lock.acquisitions,
            "lock_contended": self._lock.contended,
        }

    def close(self) -> None:
        self.release_all()
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    def __enter__(self) -> "SectionProfileStore":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


# ---------------------------------------------------------------------------
# store maintenance (repro store compact|verify|stats)
# ---------------------------------------------------------------------------

def _scan_state(path: str, *, quarantine: Optional[QuarantineLog] = None):
    """One read-only pass over a store file: returns (state, ScanStats).

    ``state`` mirrors the store's in-memory maps plus verification
    extras (header doc, per-key latest profile doc with its ``kd``,
    raw event counts).
    """
    state = {
        "header": None,
        "profiles": {},         # key -> profile event doc
        "partial": {},          # key -> {(n, i): row doc}
        "claims": {},           # key -> claim doc
        "events": {"header": 0, "row": 0, "profile": 0,
                   "claim": 0, "release": 0, "other": 0},
    }

    def ingest(doc: Dict) -> None:
        ev = doc.get("ev")
        if ev == "header":
            state["events"]["header"] += 1
            if state["header"] is None:
                state["header"] = doc
        elif ev == "row":
            state["events"]["row"] += 1
            row = doc.get("row")
            if isinstance(doc.get("i"), int) and \
                    isinstance(doc.get("n"), int) and isinstance(row, list):
                state["partial"].setdefault(
                    doc.get("k"), {})[(doc["n"], doc["i"])] = doc
        elif ev == "profile":
            state["events"]["profile"] += 1
            if isinstance(doc.get("k"), str):
                state["profiles"][doc["k"]] = doc
                state["partial"].pop(doc["k"], None)
                state["claims"].pop(doc["k"], None)
        elif ev == "claim":
            state["events"]["claim"] += 1
            if isinstance(doc.get("k"), str):
                state["claims"][doc["k"]] = doc
        elif ev == "release":
            state["events"]["release"] += 1
            claim = state["claims"].get(doc.get("k"))
            if claim is not None and \
                    claim.get("owner") == doc.get("owner"):
                del state["claims"][doc["k"]]
        else:
            state["events"]["other"] += 1

    stats = scan_jsonl(path, ingest, quarantine=quarantine)
    return state, stats


def _claim_live(claim: Dict) -> bool:
    ts = claim.get("ts", 0)
    ttl = claim.get("ttl", CLAIM_TTL)
    if not isinstance(ts, (int, float)) or not isinstance(ttl, (int, float)):
        return False
    return time.time() <= ts + ttl


def verify_store(path: str) -> Dict[str, object]:
    """Recompute every line's CRC and every profile's key hash.

    Returns a report dict; ``report["ok"]`` is True iff no corrupt
    lines, no checksum failures and no key-hash mismatches were found.
    (Lines without a checksum are legacy v1 writers — reported, not
    errors.)  Never raises on corruption: corruption is the condition
    being reported.
    """
    if not os.path.exists(path):
        raise CampaignError(f"store {path!r} does not exist")
    state, stats = _scan_state(path)
    key_mismatches = []
    keys_checked = 0
    for key, doc in state["profiles"].items():
        kd = doc.get("kd")
        if kd is None:
            continue            # pre-v2 commit: no preimage to check
        keys_checked += 1
        if key_from_doc(kd) != key:
            key_mismatches.append(key)
    header = state["header"]
    schema_ok = bool(header) and header.get("schema") == STORE_SCHEMA
    report = {
        "path": path,
        "bytes": os.path.getsize(path),
        "docs": stats.docs,
        "corrupt": stats.corrupt,
        "crc_checked": stats.crc_checked,
        "crc_missing": stats.crc_missing,
        "torn_tail": stats.torn_tail,
        "schema_ok": schema_ok,
        "profiles": len(state["profiles"]),
        "partial_keys": len(state["partial"]),
        "keys_checked": keys_checked,
        "key_mismatches": key_mismatches,
        "ok": (stats.corrupt == 0 and not key_mismatches and schema_ok),
    }
    return report


def store_stats(path: str) -> Dict[str, object]:
    """Event and liveness counters for one store file (read-only)."""
    if not os.path.exists(path):
        raise CampaignError(f"store {path!r} does not exist")
    state, stats = _scan_state(path)
    live = {k: c for k, c in state["claims"].items() if _claim_live(c)}
    return {
        "path": path,
        "bytes": os.path.getsize(path),
        "docs": stats.docs,
        "corrupt": stats.corrupt,
        "crc_missing": stats.crc_missing,
        "events": state["events"],
        "profiles": len(state["profiles"]),
        "partial_keys": len(state["partial"]),
        "partial_rows": sum(len(v) for v in state["partial"].values()),
        "claims_live": len(live),
        "claims_stale": len(state["claims"]) - len(live),
    }


def compact_store(path: str, *,
                  lock_timeout: Optional[float] = None) -> Dict[str, object]:
    """Rewrite a store to its live content, atomically, under the lock.

    Keeps: one fresh header, the latest profile per key, partial rows
    of keys without a committed profile, and live (unexpired) claims.
    Drops: superseded profiles, rows shadowed by commits, released and
    expired claims, corrupt lines (already quarantined by the scan).
    The new journal is written to a temp file, fsync'd and renamed over
    the old one while holding the exclusive lock, so concurrent stores
    never observe a partial rewrite — their next locked append detects
    the rotated inode and rescans.
    """
    if not os.path.exists(path):
        raise CampaignError(f"store {path!r} does not exist")
    lock = FileLock(path + ".lock", timeout=lock_timeout)
    with lock.exclusive():
        before = os.path.getsize(path)
        state, stats = _scan_state(path, quarantine=QuarantineLog(path))
        header = state["header"]
        if header is None or header.get("schema") != STORE_SCHEMA:
            raise CampaignError(
                f"store {path!r} has no valid header; refusing to compact")
        tmp = path + ".compact.tmp"
        live_claims = {k: c for k, c in state["claims"].items()
                       if _claim_live(c)}
        kept = 0
        with open(tmp, "w", encoding="utf-8") as fh:
            def put(doc: Dict) -> None:
                nonlocal kept
                fh.write(json.dumps(seal_doc(doc)) + "\n")
                kept += 1

            put({"ev": "header", "version": STORE_VERSION,
                 "schema": STORE_SCHEMA})
            for key in sorted(state["profiles"]):
                put(state["profiles"][key])
            for key in sorted(state["partial"]):
                rows = state["partial"][key]
                for (_n, _i) in sorted(rows):
                    put(rows[(_n, _i)])
            for key in sorted(live_claims):
                put(live_claims[key])
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
        fsync_dir(os.path.dirname(os.path.abspath(path)) or ".")
        after = os.path.getsize(path)
    return {
        "path": path,
        "bytes_before": before,
        "bytes_after": after,
        "docs_before": stats.docs,
        "docs_after": kept,
        "dropped": stats.docs - kept,
        "corrupt_dropped": stats.corrupt,
        "profiles": len(state["profiles"]),
        "partial_keys": len(state["partial"]),
        "claims_kept": len(live_claims),
    }


# ---------------------------------------------------------------------------
# composed results
# ---------------------------------------------------------------------------

@dataclass
class SectionOutcome:
    """One section's contribution to a composed campaign."""

    section: object                 # sections.Section
    profile: SectionProfile
    #: served entirely from a committed store profile
    cached: bool
    #: injections actually executed by *this* run
    simulated: int
    #: journaled rows replayed from a prior interrupted run
    replayed: int


@dataclass
class ComposedResult:
    """Whole-program estimate composed from section profiles."""

    layer: str
    fault_model: str
    dispatch: str
    sections: List[SectionOutcome]
    golden_output: str
    golden_dyn_total: int
    golden_dyn_injectable: int

    @property
    def n_total(self) -> int:
        return sum(s.profile.n for s in self.sections)

    @property
    def simulated(self) -> int:
        return sum(s.simulated for s in self.sections)

    @property
    def replayed(self) -> int:
        return sum(s.replayed for s in self.sections)

    @property
    def cache_hits(self) -> int:
        return sum(1 for s in self.sections if s.cached)

    @property
    def counts(self) -> Dict[Outcome, int]:
        total = {o: 0 for o in Outcome}
        for s in self.sections:
            for o, c in s.profile.counts.items():
                total[o] += c
        return total

    def _weights(self) -> List[float]:
        total = sum(s.profile.site_count for s in self.sections)
        if total == 0:
            return [0.0] * len(self.sections)
        return [s.profile.site_count / total for s in self.sections]

    def summary(self, z: float = DEFAULT_Z) -> Dict[str, object]:
        """Composed rates with confidence intervals.

        Rates are site-weighted compositions ``sum(w_s * k_s / n_s)``
        — the estimate a whole-program uniform campaign converges to —
        with intervals from the per-section binomial variances
        (:func:`repro.fi.stats.composed_interval`).  Sections with
        zero dynamic sites carry zero weight and drop out.  Statically
        pruned draws are benign by construction, so the benign rate
        folds :data:`~repro.fi.outcomes.Outcome.PRUNE_BENIGN` in —
        pruned composed estimates stay bit-identical to unpruned ones.
        """
        weights = self._weights()
        contributing = [
            (w, s) for w, s in zip(weights, self.sections) if w > 0
        ]
        out: Dict[str, object] = {}
        for outcome in (Outcome.SDC, Outcome.DUE, Outcome.DETECTED,
                        Outcome.BENIGN):
            def k_of(s) -> int:
                k = s.profile.counts.get(outcome, 0)
                if outcome is Outcome.BENIGN:
                    k += s.profile.counts.get(Outcome.PRUNE_BENIGN, 0)
                return k

            p, lo, hi = composed_interval(
                [w for w, _ in contributing],
                [k_of(s) for _, s in contributing],
                [s.profile.n for _, s in contributing],
                z=z,
            )
            out[outcome.value] = p
            out[f"{outcome.value}_ci"] = (lo, hi)
        out["pruned"] = self.counts.get(Outcome.PRUNE_BENIGN, 0)
        return out


# ---------------------------------------------------------------------------
# site-map memoization (the warm-path enabler)
# ---------------------------------------------------------------------------

_SITE_MAPS: "weakref.WeakKeyDictionary[object, Dict]" = \
    weakref.WeakKeyDictionary()


def _module_fingerprint(module) -> Tuple[int, int]:
    n = 0
    h = 0
    for fn in module.functions.values():
        for block in fn.blocks:
            for inst in block.instructions:
                n += 1
                h ^= id(inst) ^ (inst.iid * 0x9E3779B1)
    return n, h


def cached_site_map(built, layer: str, fault_model: str) -> SiteMap:
    """Per-process memo of :func:`repro.fi.sections.map_sites`.

    Keyed by the module object plus the same cheap structural
    fingerprint the decode caches use, so in-place pass mutation
    re-enumerates while repeated plan evaluation over one build (the
    warm path) pays the traced golden run exactly once.
    """
    module = built.module
    fp = _module_fingerprint(module)
    per_module = _SITE_MAPS.get(module)
    if per_module is None:
        per_module = {}
        _SITE_MAPS[module] = per_module
    cached = per_module.get((layer, fault_model))
    if cached is not None and cached[0] == fp:
        return cached[1]
    sm = map_sites(built, layer, fault_model)
    per_module[(layer, fault_model)] = (fp, sm)
    return sm


# ---------------------------------------------------------------------------
# the incremental campaign
# ---------------------------------------------------------------------------

def _allocate(n: int, site_counts: Sequence[int]) -> List[int]:
    """Largest-remainder proportional allocation of ``n`` injections.

    Sections without dynamic sites get zero.  When the budget allows,
    every live section gets at least one injection (stealing from the
    largest allocation) so no composed term degenerates to the
    maximum-variance prior.
    """
    total = sum(site_counts)
    if total == 0:
        raise CampaignError(
            "program has no injectable dynamic sites in any section")
    quotas = [n * c / total for c in site_counts]
    alloc = [int(q) for q in quotas]
    remainders = sorted(
        range(len(quotas)),
        key=lambda i: (alloc[i] - quotas[i], i),
    )
    short = n - sum(alloc)
    for i in remainders[:short]:
        alloc[i] += 1
    live = [i for i, c in enumerate(site_counts) if c > 0]
    if n >= len(live):
        for i in live:
            if alloc[i] == 0:
                donor = max(
                    (j for j in live if alloc[j] > 1),
                    key=lambda j: alloc[j],
                    default=None,
                )
                if donor is None:
                    break
                alloc[donor] -= 1
                alloc[i] += 1
    return alloc


def run_incremental_campaign(
    built,
    layer: str,
    config: CampaignConfig = CampaignConfig(),
    store: Optional[SectionProfileStore] = None,
    *,
    fault_model: Optional[str] = None,
    dispatch: Optional[str] = None,
    observer=None,
    exhaustive_bits: Optional[Sequence[int]] = None,
    site_map: Optional[SiteMap] = None,
    spec=None,
    workers: int = 0,
    policy=None,
) -> ComposedResult:
    """Section-level campaign with store-served cache hits.

    ``config.n_campaigns`` injections are allocated across sections
    proportionally to their dynamic injectable-site counts, each
    section drawing from its own seed-derived RNG stream (so edits
    elsewhere never change this section's samples).  With
    ``exhaustive_bits`` the sampling plan is instead *every* (site,
    bit) pair per section — the statistical-oracle mode the
    equivalence tests compose against whole-program exhaustive
    campaigns.

    ``store=None`` runs storeless (every section simulates).  The
    pending injections go through the campaign executor
    (:func:`repro.fi.campaign._execute`) with the store as its sink:
    with ``spec`` (a :class:`~repro.fi.resilience.WorkSpec`) and
    ``workers > 1`` under the chunked crash-tolerant supervisor,
    otherwise in-process (the checkpoint-replay engine, or the naive
    oracle under ``REPRO_ENGINE=0``).

    Against a *shared* store, sections another live campaign already
    claimed are not re-simulated: after executing and committing its
    own claims, this campaign polls (``coordinate`` phase) for the
    foreign profiles, taking a section over if its claim goes stale or
    the ``REPRO_STORE_WAIT`` budget expires.
    """
    adapter = _Layer.of(built, layer, fault_model)
    fm = adapter.fault_model
    tier = engine_dispatch(dispatch)
    if config.stratify:
        raise CampaignError(
            "stratified sampling replaces the section allocator; use "
            "run_ir_campaign/run_asm_campaign with config.stratify")
    with _phase(observer, "sections", layer=layer):
        sm = site_map or cached_site_map(built, layer, fm)
    protection = _protection_doc(built)
    prune_plan = _prune_plan(adapter, observer) if config.prune else None
    max_steps = config.max_steps(sm.golden_dyn_total)
    bits_plan = (tuple(int(b) for b in exhaustive_bits)
                 if exhaustive_bits is not None else None)

    site_counts = sm.site_counts
    if bits_plan is None:
        alloc = _allocate(config.n_campaigns, site_counts)
    else:
        alloc = [c * len(bits_plan) for c in site_counts]

    if store is not None:
        store.refresh()
        if store.degraded and observer is not None:
            observer.degrade("store-private",
                             detail=store.degraded_reason, path=store.path)

    # -- plan: per-section sample lists, cache lookups, claims, resume --
    keys: List[str] = []
    key_docs: List[Dict] = []
    plans: List[List[Tuple[int, int]]] = []      # (dyn index, bit) per section
    outcomes: List[Optional[SectionOutcome]] = [None] * len(sm.sections)
    # pending execution: flat (tag, idx, bit) with tag -> (section, i)
    flat_samples: List[Tuple[Tuple[int, int], int, int]] = []
    replayed_rows: Dict[int, Dict[int, Tuple]] = {}
    live_rows: Dict[int, Dict[int, Tuple]] = {}
    waiting: List[int] = []          # positions parked behind foreign claims
    total_counts: Dict[Outcome, int] = {o: 0 for o in Outcome}

    def serve_cached(pos: int, sec, cached: SectionProfile) -> None:
        outcomes[pos] = SectionOutcome(
            section=sec, profile=cached, cached=True,
            simulated=0, replayed=0,
        )
        for o, c in cached.counts.items():
            total_counts[o] += c

    def stage_for_execution(pos: int) -> None:
        """Queue the section's samples the store has not journaled."""
        key = keys[pos]
        samples = plans[pos]
        done = (store.partial_rows(key, len(samples))
                if store is not None else {})
        replayed_rows[pos] = {i: r for i, r in done.items()
                              if i < len(samples)}
        live_rows.setdefault(pos, {})
        flat_samples.extend(
            ((pos, i), idx, bit) for i, (idx, bit) in enumerate(samples)
            if i not in replayed_rows[pos])

    for sec in sm.sections:
        pos = sec.index
        key_doc = profile_key_doc(
            sec, sm, dispatch=tier, protection=protection,
            seed=config.seed, exhaustive_bits=bits_plan,
            prune=config.prune,
        )
        key = key_from_doc(key_doc)
        keys.append(key)
        key_docs.append(key_doc)
        if bits_plan is None:
            samples = (
                _draw(np.random.default_rng(
                    _section_seed(config.seed, sec, fm)),
                    alloc[pos], sm.dyn_indices[pos], fm)
                if site_counts[pos] > 0 else []
            )
        else:
            samples = [(dyn, b)
                       for dyn in sm.dyn_indices[pos] for b in bits_plan]
        plans.append(samples)
        cached = store.get(key) if store is not None else None
        # a cached profile with at least as many samples as this plan
        # wants is at least as precise — serve it (sample counts float
        # with the whole program's site totals, so demanding an exact
        # match would evict every unchanged section on any edit)
        if cached is not None and cached.n >= len(samples):
            serve_cached(pos, sec, cached)
            continue
        if store is not None and samples:
            status = store.try_claim(key, len(samples))
            if status == "served":
                cached = store.get(key)
                if cached is not None and cached.n >= len(samples):
                    serve_cached(pos, sec, cached)
                    continue
                # a racing commit of a smaller plan: simulate after all
            elif status == "busy":
                waiting.append(pos)
                continue
        stage_for_execution(pos)

    # -- execute whatever the store could not serve ---------------------

    def commit(tag: Tuple[int, int], row: Tuple) -> None:
        """The store sink: every row is journaled under its section's
        profile key before the profile commits, so a killed run
        resumes from it."""
        pos, i = tag
        if store is not None:
            store.record_row(keys[pos], len(plans[pos]), i, row)
        live_rows[pos][i] = tuple(row)

    def execute_flat(flat: List[Tuple[Tuple[int, int], int, int]],
                     *, pooled: bool) -> None:
        if not flat:
            return
        with _phase(observer, "inject", layer=layer, n=len(flat)):
            _execute(adapter, flat, max_steps, commit, plan=prune_plan,
                     golden_output=sm.golden_output, dispatch=tier,
                     workers=workers if pooled and spec is not None else 1,
                     spec=spec, policy=policy, observer=observer)

    def finalize_section(sec) -> None:
        """Aggregate one executed section's rows and commit its profile."""
        pos = sec.index
        counts: Dict[Outcome, int] = {o: 0 for o in Outcome}
        replay = replayed_rows.get(pos, {})
        fresh = live_rows.get(pos, {})
        n_planned = len(plans[pos])
        missing = [i for i in range(n_planned)
                   if i not in replay and i not in fresh]
        if missing:
            raise CampaignError(
                f"section {sec.name!r} lost {len(missing)} samples "
                f"(e.g. #{missing[0]}); store and execution disagree")
        statically_resolved = 0
        for i in range(n_planned):
            row = replay.get(i) or fresh[i]
            outcome, _rec = record_from_row(row, sm.golden_output)
            counts[outcome] += 1
            if i in fresh and outcome is Outcome.PRUNE_BENIGN:
                statically_resolved += 1
        profile = SectionProfile(
            key=keys[pos],
            name=sec.name,
            content_hash=sec.content_hash,
            n=n_planned,
            counts=counts,
            site_count=site_counts[pos],
        )
        if store is not None:
            store.commit_profile(profile, key_doc=key_docs[pos])
        outcomes[pos] = SectionOutcome(
            section=sec, profile=profile, cached=False,
            simulated=len(fresh) - statically_resolved,
            replayed=len(replay),
        )
        for o, c in counts.items():
            total_counts[o] += c

    try:
        execute_flat(flat_samples, pooled=True)

        # -- aggregate + commit our own sections ------------------------
        for sec in sm.sections:
            if outcomes[sec.index] is None and sec.index not in waiting:
                finalize_section(sec)

        # -- coordinate: wait for foreign claims, take over stale ones --
        if waiting:
            deadline = time.monotonic() + _env_float(
                _WAIT_BUDGET_ENV, DEFAULT_WAIT_BUDGET)
            poll = 0.02
            with _phase(observer, "coordinate", layer=layer,
                        waiting=len(waiting)):
                while waiting:
                    store.refresh()
                    takeover: List[int] = []
                    for pos in list(waiting):
                        sec = sm.sections[pos]
                        cached = store.get(keys[pos])
                        if cached is not None and \
                                cached.n >= len(plans[pos]):
                            waiting.remove(pos)
                            serve_cached(pos, sec, cached)
                            continue
                        expired = time.monotonic() >= deadline
                        if store.degraded or expired or \
                                store.claim_of(keys[pos]) is None:
                            # owner gone (stale claim), store gone, or
                            # we are done being polite: take it over
                            status = (store.try_claim(
                                keys[pos], len(plans[pos]))
                                if not store.degraded else "mine")
                            if status == "served":
                                cached = store.get(keys[pos])
                                if cached is not None and \
                                        cached.n >= len(plans[pos]):
                                    waiting.remove(pos)
                                    serve_cached(pos, sec, cached)
                                    continue
                            if status != "busy" or expired:
                                waiting.remove(pos)
                                takeover.append(pos)
                    if takeover:
                        before = len(flat_samples)
                        for pos in takeover:
                            stage_for_execution(pos)
                        execute_flat(flat_samples[before:], pooled=False)
                        for pos in takeover:
                            finalize_section(sm.sections[pos])
                    if waiting:
                        time.sleep(poll)
                        poll = min(poll * 2, 0.25)
    finally:
        if store is not None:
            store.release_all()

    _record_outcomes(observer, layer, total_counts)
    return ComposedResult(
        layer=layer,
        fault_model=fm,
        dispatch=tier,
        sections=[s for s in outcomes if s is not None],
        golden_output=sm.golden_output,
        golden_dyn_total=sm.golden_dyn_total,
        golden_dyn_injectable=sm.golden_dyn_injectable,
    )
