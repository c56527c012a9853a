"""Multi-process shared-store stress (DESIGN §16, the concurrency
oracle): N concurrent campaign processes against one store — with and
without SIGKILLs and corrupted rows — must produce composed counters
bit-identical to a serial storeless run, dedupe work through claims,
and leave a store that passes verification (after compaction drops
quarantined lines)."""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import time
from collections import Counter

import pytest

from repro.fi.campaign import CampaignConfig
from repro.fi.compose import (
    SectionProfileStore,
    compact_store,
    run_incremental_campaign,
    verify_store,
)
from repro.pipeline import build_from_source

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

N = 40
SEED = 9

WORKER = f'''
import json, os, signal, sys

from repro.fi.campaign import CampaignConfig
from repro.fi.compose import SectionProfileStore, run_incremental_campaign
from repro.pipeline import build_from_source

SRC = {SRC!r}

store_path = sys.argv[1]
kill_after = int(sys.argv[2]) if len(sys.argv) > 2 else 0

built = build_from_source(SRC, name="stress")
cfg = CampaignConfig(n_campaigns={N}, seed={SEED})
store = SectionProfileStore(store_path)
if kill_after:
    orig = store.record_row
    state = {{"rows": 0}}
    def record_row(key, n, i, row):
        orig(key, n, i, row)
        state["rows"] += 1
        if state["rows"] >= kill_after:
            os.kill(os.getpid(), signal.SIGKILL)
    store.record_row = record_row
res = run_incremental_campaign(built, "ir", cfg, store)
store.close()
print(json.dumps({{
    "counts": {{o.value: c for o, c in res.counts.items() if c}},
    "simulated": res.simulated,
    "replayed": res.replayed,
    "n_total": res.n_total,
}}))
'''


def _spawn(worker_path, store_path, kill_after=0):
    env = dict(os.environ)
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env["PYTHONPATH"] = (os.path.join(root, "src") + os.pathsep +
                         env.get("PYTHONPATH", ""))
    return subprocess.Popen(
        [sys.executable, worker_path, store_path, str(kill_after)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env,
    )


def _reference():
    built = build_from_source(SRC, name="stress")
    res = run_incremental_campaign(
        built, "ir", CampaignConfig(n_campaigns=N, seed=SEED), None)
    return res


def _row_events(path):
    rows = []
    for line in open(path):
        if line.startswith('{"ev": "row"') and line.endswith("\n"):
            doc = json.loads(line)
            rows.append(((doc["k"], doc["n"], doc["i"]), tuple(doc["row"])))
    return rows


def _wait_for_row(path, proc, timeout=120.0):
    """Poll until the store at ``path`` holds a complete row event, or
    ``proc`` has exited (its exit status then tells what happened)."""
    deadline = time.monotonic() + timeout
    while not (os.path.exists(path) and _row_events(path)):
        if proc.poll() is not None:
            return
        assert time.monotonic() < deadline, "no row journaled in time"
        time.sleep(0.01)


@pytest.fixture(scope="module")
def worker_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("stress") / "worker.py"
    path.write_text(WORKER)
    return str(path)


@pytest.mark.slow
class TestConcurrentCampaigns:
    def test_three_processes_dedupe_and_bit_match_serial(
            self, worker_path, tmp_path):
        store_path = str(tmp_path / "shared.jsonl")
        procs = [_spawn(worker_path, store_path) for _ in range(3)]
        outs = []
        for p in procs:
            out, err = p.communicate(timeout=300)
            assert p.returncode == 0, err
            outs.append(json.loads(out))

        ref = _reference()
        ref_counts = {o.value: c for o, c in ref.counts.items() if c}
        for doc in outs:
            assert doc["counts"] == ref_counts
            assert doc["n_total"] == ref.n_total

        # claims deduped the work: every sample simulated exactly once
        # across the fleet, nothing lost, nothing duplicated
        assert sum(d["simulated"] for d in outs) == ref.n_total
        events = _row_events(store_path)
        by_id = Counter(k for k, _ in events)
        assert all(c == 1 for c in by_id.values()), by_id.most_common(3)
        assert len(by_id) == ref.n_total

        assert verify_store(store_path)["ok"]

        # a fourth, serial run is a pure warm hit
        built = build_from_source(SRC, name="stress")
        with SectionProfileStore(store_path) as store:
            warm = run_incremental_campaign(
                built, "ir", CampaignConfig(n_campaigns=N, seed=SEED),
                store)
        assert warm.simulated == 0
        assert {o.value: c for o, c in warm.counts.items() if c} == \
            ref_counts

    def test_sigkill_and_corruption_survived(self, worker_path, tmp_path):
        """One campaign SIGKILLed mid-run (rows journaled, claims left
        behind) plus an artificially corrupted row: concurrent
        survivors take over the dead claims, the corrupt line is
        quarantined, and the composed counters still bit-match the
        serial reference."""
        store_path = str(tmp_path / "shared.jsonl")

        victim = _spawn(worker_path, store_path, kill_after=5)
        # the survivors start once the victim journals its first row:
        # by then its planning loop has claimed every section it will
        # run, so they cannot claim them all first and leave it too
        # little work to reach its 5th row (a fixed head start is
        # shorter than a process start-up on a loaded host)
        _wait_for_row(store_path, victim)
        survivors = [_spawn(worker_path, store_path) for _ in range(2)]
        victim.communicate(timeout=300)
        assert victim.returncode == -signal.SIGKILL

        outs = []
        for p in survivors:
            out, err = p.communicate(timeout=300)
            assert p.returncode == 0, err
            outs.append(json.loads(out))

        ref = _reference()
        ref_counts = {o.value: c for o, c in ref.counts.items() if c}
        for doc in outs:
            assert doc["counts"] == ref_counts

        # corrupt one complete row line in place, then resume on top
        lines = open(store_path).read().splitlines(keepends=True)
        idx = next(i for i, ln in enumerate(lines)
                   if ln.startswith('{"ev": "row"'))
        lines[idx] = lines[idx].replace('"row"', '"rXw"', 1)
        with open(store_path, "w") as fh:
            fh.writelines(lines)

        built = build_from_source(SRC, name="stress")
        with SectionProfileStore(store_path) as store:
            assert store.scan_corrupt == 1       # quarantined, not fatal
            res = run_incremental_campaign(
                built, "ir", CampaignConfig(n_campaigns=N, seed=SEED),
                store)
        assert {o.value: c for o, c in res.counts.items() if c} == \
            ref_counts

        # compaction drops the quarantined line; the store then
        # verifies clean and still serves a pure warm hit
        compact_store(store_path)
        assert verify_store(store_path)["ok"]
        with SectionProfileStore(store_path) as store:
            warm = run_incremental_campaign(
                built, "ir", CampaignConfig(n_campaigns=N, seed=SEED),
                store)
        assert warm.simulated == 0
        assert {o.value: c for o, c in warm.counts.items() if c} == \
            ref_counts
