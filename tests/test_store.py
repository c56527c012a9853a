"""Shared multi-tenant section-profile store (DESIGN §16).

Covers the satellite regressions (handle leak, no-op commit skip,
``REPRO_STORE`` defaults), the corruption quarantine, claim-based
work dedup (busy wait, stale takeover, force-simulate deadline),
degradation to private-store mode, and the ``repro store
compact|verify|stats`` maintenance surface.
"""

from __future__ import annotations

import json
import os
import socket
import subprocess
import sys
import time

import pytest

from repro.cli import main
from repro.errors import CampaignError
from repro.fi.campaign import CampaignConfig
from repro.fi.compose import (
    SectionProfileStore,
    compact_store,
    run_incremental_campaign,
    store_stats,
    verify_store,
)
from repro.fi.journal import FileLock, append_doc
from repro.pipeline import build_from_source
from repro.trace import CampaignObserver

SRC = """
const int N = 5;

int scale(int x) {
    int acc = x;
    for (int i = 0; i < 3; i++) {
        acc = acc * 2 + i;
    }
    return acc;
}

int main() {
    int total = 0;
    for (int i = 0; i < N; i++) {
        total = total + scale(i);
    }
    print(total);
    return 0;
}
"""

CFG = CampaignConfig(n_campaigns=30, seed=7)


def _build():
    return build_from_source(SRC, name="store-test")


def _append_raw(path, doc):
    with open(path, "a", encoding="utf-8") as fh:
        append_doc(fh, doc)


def _open_fds():
    return len(os.listdir("/proc/self/fd"))


def _dead_pid():
    proc = subprocess.Popen([sys.executable, "-c", "pass"])
    proc.wait()
    return proc.pid


# -- satellite: the constructor must not leak file handles ---------------


class TestHandleLeak:
    def test_failed_open_leaks_no_fd(self, tmp_path):
        path = str(tmp_path / "store.jsonl")
        with open(path, "w") as fh:
            fh.write('{"ev": "header", "version": 0, '
                     '"schema": "section-profile/0"}\n')
        with pytest.raises(CampaignError):
            SectionProfileStore(path)
        before = _open_fds()
        for _ in range(8):
            with pytest.raises(CampaignError):
                SectionProfileStore(path)
        assert _open_fds() <= before

    def test_close_releases_everything(self, tmp_path):
        path = str(tmp_path / "store.jsonl")
        before = _open_fds()
        for _ in range(8):
            SectionProfileStore(path).close()
        assert _open_fds() <= before


# -- satellite: no-op profile commits are skipped ------------------------


class TestNoopCommitSkip:
    def test_identical_recommit_skipped(self, tmp_path):
        path = str(tmp_path / "store.jsonl")
        built = _build()
        with SectionProfileStore(path) as store:
            run_incremental_campaign(built, "ir", CFG, store)
            profile = next(iter(store.profiles.values()))
            size = os.path.getsize(path)
            store.commit_profile(profile)
            assert store.noop_commits_skipped == 1
            assert os.path.getsize(path) == size
            assert store.stats()["noop_commits_skipped"] == 1

    def test_superseding_commit_still_written(self, tmp_path):
        path = str(tmp_path / "store.jsonl")
        built = _build()
        with SectionProfileStore(path) as store:
            run_incremental_campaign(built, "ir", CFG, store)
            profile = next(iter(store.profiles.values()))
            size = os.path.getsize(path)
            bigger = type(profile)(
                key=profile.key, name=profile.name,
                content_hash=profile.content_hash, n=profile.n + 5,
                counts=profile.counts, site_count=profile.site_count)
            store.commit_profile(bigger)
            assert store.noop_commits_skipped == 0
            assert os.path.getsize(path) > size


# -- corruption quarantine ----------------------------------------------


class TestQuarantine:
    def test_corrupt_row_skipped_and_resimulated(self, tmp_path):
        built = _build()
        path = str(tmp_path / "store.jsonl")
        with SectionProfileStore(path) as store:
            full = run_incremental_campaign(built, "ir", CFG, store)

        lines = open(path).read().splitlines(keepends=True)
        # corrupt one complete row line (valid JSON, wrong checksum)
        # and drop the profile commits so the rows actually matter
        idx = next(i for i, ln in enumerate(lines)
                   if ln.startswith('{"ev": "row"'))
        lines[idx] = lines[idx].replace('"ev": "row"', '"ev": "rXw"', 1)
        kept = [ln for ln in lines if '"ev": "profile"' not in ln]
        with open(path, "w") as fh:
            fh.writelines(kept)

        with SectionProfileStore(path) as store:
            assert store.scan_corrupt == 1
            assert os.path.exists(path + ".quarantine")
            resumed = run_incremental_campaign(built, "ir", CFG, store)
        # the corrupted sample re-simulated; the rest replayed
        assert resumed.counts == full.counts
        entry = json.loads(open(path + ".quarantine").readline())
        assert "checksum mismatch" in entry["reason"]

    def test_verify_reports_corruption(self, tmp_path):
        built = _build()
        path = str(tmp_path / "store.jsonl")
        with SectionProfileStore(path) as store:
            run_incremental_campaign(built, "ir", CFG, store)
        assert verify_store(path)["ok"]
        with open(path, "a") as fh:
            fh.write('{"ev": "row", "k": "x", "c": 12345}\n')
        report = verify_store(path)
        assert not report["ok"]
        assert report["corrupt"] == 1


# -- claims: concurrent-campaign work dedup ------------------------------


class TestClaims:
    def _store_with_foreign_claim(self, tmp_path, owner, ts=None, ttl=3600,
                                  n=10**6):
        """A store file whose every profile key is claimed by ``owner``."""
        built = _build()
        path = str(tmp_path / "store.jsonl")
        with SectionProfileStore(path) as store:
            run_incremental_campaign(built, "ir", CFG, store)
        keys = []
        with SectionProfileStore(path) as store:
            keys = list(store.profiles)
        # strip the profile commits, then claim every key
        lines = [ln for ln in open(path).read().splitlines(keepends=True)
                 if '"ev": "profile"' not in ln
                 and '"ev": "claim"' not in ln
                 and '"ev": "release"' not in ln]
        with open(path, "w") as fh:
            fh.writelines(lines)
        for k in keys:
            _append_raw(path, {
                "ev": "claim", "k": k, "n": n, "owner": owner,
                "ts": ts if ts is not None else time.time(), "ttl": ttl,
            })
        return built, path

    def test_stale_claim_dead_pid_taken_over(self, tmp_path):
        owner = f"{socket.gethostname()}:{_dead_pid()}:deadbeef"
        built, path = self._store_with_foreign_claim(tmp_path, owner)
        obs = CampaignObserver()
        with SectionProfileStore(path) as store:
            res = run_incremental_campaign(built, "ir", CFG, store,
                                           observer=obs)
        # the dead owner's claims read as stale: no waiting phase
        assert "coordinate" not in {e["name"] for e in obs.events
                                    if e["ev"] == "phase"}
        assert res.simulated + res.replayed > 0

    def test_expired_claim_taken_over(self, tmp_path):
        built, path = self._store_with_foreign_claim(
            tmp_path, "otherhost:1234:cafe", ts=time.time() - 100, ttl=1)
        with SectionProfileStore(path) as store:
            res = run_incremental_campaign(built, "ir", CFG, store)
        assert res.simulated + res.replayed > 0

    def test_live_foreign_claim_waits_then_force_simulates(
            self, tmp_path, monkeypatch):
        """A live cross-host claim parks the section in the coordinate
        phase; when REPRO_STORE_WAIT expires the campaign takes it
        over rather than stalling forever — and the result is
        bit-identical to a storeless run."""
        monkeypatch.setenv("REPRO_STORE_WAIT", "0.3")
        built, path = self._store_with_foreign_claim(
            tmp_path, "otherhost:1234:cafe")
        reference = run_incremental_campaign(built, "ir", CFG, None)
        obs = CampaignObserver()
        t0 = time.monotonic()
        with SectionProfileStore(path) as store:
            res = run_incremental_campaign(built, "ir", CFG, store,
                                           observer=obs)
        assert time.monotonic() - t0 >= 0.3
        phases = {e["name"] for e in obs.events if e["ev"] == "phase"}
        assert "coordinate" in phases
        assert res.counts == reference.counts

    def test_own_claims_released_on_close(self, tmp_path):
        path = str(tmp_path / "store.jsonl")
        store = SectionProfileStore(path)
        assert store.try_claim("k1", 5) == "mine"
        assert "k1" in store.claims
        store.close()
        with SectionProfileStore(path) as fresh:
            assert "k1" not in fresh.claims

    def test_busy_when_foreign_plan_is_at_least_as_large(self, tmp_path):
        path = str(tmp_path / "store.jsonl")
        SectionProfileStore(path).close()
        _append_raw(path, {"ev": "claim", "k": "k1", "n": 10,
                           "owner": "otherhost:1:aa",
                           "ts": time.time(), "ttl": 3600})
        with SectionProfileStore(path) as store:
            assert store.try_claim("k1", 10) == "busy"
            assert store.try_claim("k1", 5) == "busy"
            # a larger plan cannot be served by their result: claim it
            assert store.try_claim("k1", 11) == "mine"

    def test_claim_catchup_sees_fresh_profile(self, tmp_path):
        built = _build()
        path = str(tmp_path / "store.jsonl")
        with SectionProfileStore(path) as producer:
            store = SectionProfileStore(path)
            run_incremental_campaign(built, "ir", CFG, producer)
            # `store` has not looked at the file since the producer
            # committed; try_claim's locked catch-up must find the
            # profiles instead of claiming
            key = next(iter(producer.profiles))
            n = producer.profiles[key].n
            assert store.try_claim(key, n) == "served"
            store.close()


# -- degradation to private-store mode -----------------------------------


class TestDegradation:
    def test_unreachable_store_degrades_and_campaign_completes(
            self, tmp_path):
        built = _build()
        with pytest.warns(RuntimeWarning, match="private"):
            store = SectionProfileStore(str(tmp_path))   # a directory
        assert store.degraded
        res = run_incremental_campaign(built, "ir", CFG, store)
        assert res.simulated > 0
        # the private store still serves this process's own cache
        warm = run_incremental_campaign(built, "ir", CFG, store)
        assert warm.simulated == 0
        store.close()

    def test_lock_exhaustion_degrades(self, tmp_path):
        path = str(tmp_path / "store.jsonl")
        holder = FileLock(path + ".lock")
        holder.acquire()
        try:
            with pytest.warns(RuntimeWarning, match="private"):
                store = SectionProfileStore(path, lock_timeout=0.05)
            assert store.degraded
            assert "lock" in store.degraded_reason
            store.close()
        finally:
            holder.release()

    def test_degraded_observer_event(self, tmp_path):
        built = _build()
        with pytest.warns(RuntimeWarning):
            store = SectionProfileStore(str(tmp_path))
        obs = CampaignObserver()
        run_incremental_campaign(built, "ir", CFG, store, observer=obs)
        degrades = [e for e in obs.events if e["ev"] == "degrade"]
        assert degrades and degrades[0]["reason"] == "store-private"
        store.close()

    def test_schema_mismatch_still_loud(self, tmp_path):
        path = str(tmp_path / "store.jsonl")
        with open(path, "w") as fh:
            fh.write('{"ev": "header", "version": 0, '
                     '"schema": "nope/9"}\n')
        with pytest.raises(CampaignError, match="schema"):
            SectionProfileStore(path)


# -- maintenance: compact / verify / stats -------------------------------


class TestMaintenance:
    def test_compact_preserves_warm_path(self, tmp_path):
        built = _build()
        path = str(tmp_path / "store.jsonl")
        with SectionProfileStore(path) as store:
            run_incremental_campaign(built, "ir", CFG, store)
            # bloat the journal with superseded commits
            for profile in list(store.profiles.values()):
                bigger = type(profile)(
                    key=profile.key, name=profile.name,
                    content_hash=profile.content_hash, n=profile.n + 1,
                    counts=profile.counts, site_count=profile.site_count)
                store.commit_profile(bigger)
        report = compact_store(path)
        assert report["bytes_after"] < report["bytes_before"]
        assert report["docs_after"] < report["docs_before"]
        assert verify_store(path)["ok"]
        with SectionProfileStore(path) as store:
            warm = run_incremental_campaign(built, "ir", CFG, store)
        assert warm.simulated == 0
        assert warm.cache_hits == len(warm.sections)

    def test_compact_keeps_partial_rows(self, tmp_path):
        built = _build()
        path = str(tmp_path / "store.jsonl")
        with SectionProfileStore(path) as store:
            full = run_incremental_campaign(built, "ir", CFG, store)
        lines = [ln for ln in open(path).read().splitlines(keepends=True)
                 if '"ev": "profile"' not in ln]
        with open(path, "w") as fh:
            fh.writelines(lines)
        compact_store(path)
        with SectionProfileStore(path) as store:
            assert store.partial
            resumed = run_incremental_campaign(built, "ir", CFG, store)
        assert resumed.replayed > 0
        assert resumed.counts == full.counts

    def test_open_handle_survives_concurrent_compaction(self, tmp_path):
        """Another process compacting mid-campaign rotates the inode
        under our append handle; the next locked append must detect it
        and keep writing to the *new* file."""
        built = _build()
        path = str(tmp_path / "store.jsonl")
        with SectionProfileStore(path) as store:
            run_incremental_campaign(built, "ir", CFG, store)
            old_ino = os.stat(path).st_ino
            compact_store(path)           # rotates while store is open
            assert os.stat(path).st_ino != old_ino
            store.try_claim("post-compact", 1)
            assert not store.degraded
        # the claim landed in the compacted file, not the dead inode
        with SectionProfileStore(path) as fresh:
            assert not fresh.degraded

    def test_verify_checks_key_preimages(self, tmp_path):
        built = _build()
        path = str(tmp_path / "store.jsonl")
        with SectionProfileStore(path) as store:
            run_incremental_campaign(built, "ir", CFG, store)
        report = verify_store(path)
        assert report["ok"]
        assert report["keys_checked"] > 0
        assert report["key_mismatches"] == []

    def test_stats_counts_events(self, tmp_path):
        built = _build()
        path = str(tmp_path / "store.jsonl")
        with SectionProfileStore(path) as store:
            run_incremental_campaign(built, "ir", CFG, store)
        s = store_stats(path)
        assert s["profiles"] > 0
        assert s["events"]["row"] > 0
        assert s["claims_live"] == 0
        assert s["corrupt"] == 0

    def test_readers_agree_on_legacy_rows(self, tmp_path):
        """One current row and one written before the ``pruned`` column
        existed: the live store, ``store_stats`` and ``compact_store``
        read both, the old one padded as a journal row is."""
        path = str(tmp_path / "store.jsonl")
        SectionProfileStore(path).close()
        row = [4, 3, "ok", "42\n", 7, None, None, None, None, "seu", 0]
        _append_raw(path, {"ev": "row", "k": "k1", "n": 2, "i": 0,
                           "row": row})
        _append_raw(path, {"ev": "row", "k": "k1", "n": 2, "i": 1,
                           "row": row[:-1]})
        with SectionProfileStore(path) as store:
            live = store.partial_rows("k1", 2)
        assert live == {0: tuple(row), 1: tuple(row)}
        assert store_stats(path)["partial_rows"] == 2
        assert compact_store(path)["docs_after"] == 3   # header + 2 rows
        with SectionProfileStore(path) as store:
            assert store.partial_rows("k1", 2) == live

    def test_unknown_event_kinds_count_as_other(self, tmp_path):
        path = str(tmp_path / "store.jsonl")
        SectionProfileStore(path).close()
        _append_raw(path, {"ev": ["row"], "k": "k1"})
        _append_raw(path, {"ev": "note"})
        with SectionProfileStore(path) as store:
            assert not store.partial
        assert store_stats(path)["events"]["other"] == 2

    def test_missing_store_is_loud(self, tmp_path):
        for fn in (verify_store, store_stats, compact_store):
            with pytest.raises(CampaignError, match="does not exist"):
                fn(str(tmp_path / "absent.jsonl"))


# -- REPRO_STORE defaults ------------------------------------------------


class TestEnvDefaults:
    def test_experiment_config_picks_up_env(self, monkeypatch):
        from repro.experiments.config import ExperimentConfig

        monkeypatch.setenv("REPRO_STORE", "/tmp/fleet.jsonl")
        assert ExperimentConfig.from_env().store_path == "/tmp/fleet.jsonl"
        monkeypatch.setenv("REPRO_STORE", "")
        assert ExperimentConfig.from_env().store_path is None

    def test_campaign_cli_defaults_to_env_store(self, tmp_path,
                                                monkeypatch, capsys):
        path = str(tmp_path / "fleet.jsonl")
        monkeypatch.setenv("REPRO_STORE", path)
        assert main(["campaign", "crc32", "--scale", "tiny",
                     "--incremental", "-n", "10"]) == 0
        assert os.path.exists(path)
        out = capsys.readouterr().out
        assert "cache-hits" in out

    def test_store_cli_defaults_to_env(self, tmp_path, monkeypatch,
                                       capsys):
        path = str(tmp_path / "fleet.jsonl")
        SectionProfileStore(path).close()
        monkeypatch.setenv("REPRO_STORE", path)
        assert main(["store", "stats"]) == 0
        assert "profiles" in capsys.readouterr().out

    def test_store_cli_without_path_or_env_errors(self, monkeypatch,
                                                  capsys):
        monkeypatch.delenv("REPRO_STORE", raising=False)
        assert main(["store", "stats"]) == 2
        assert "REPRO_STORE" in capsys.readouterr().err


class TestStoreCli:
    def test_verify_and_compact_roundtrip(self, tmp_path, capsys):
        built = _build()
        path = str(tmp_path / "store.jsonl")
        with SectionProfileStore(path) as store:
            run_incremental_campaign(built, "ir", CFG, store)
        assert main(["store", "verify", path]) == 0
        assert main(["store", "compact", path]) == 0
        capsys.readouterr()
        assert main(["store", "stats", path, "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["profiles"] > 0

    def test_verify_fails_on_corruption(self, tmp_path, capsys):
        path = str(tmp_path / "store.jsonl")
        SectionProfileStore(path).close()
        with open(path, "a") as fh:
            fh.write('{"ev": "row", "k": "x", "c": 1}\n')
        assert main(["store", "verify", path]) == 1
