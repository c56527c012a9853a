#!/usr/bin/env python3
"""Crash-and-resume acceptance check for campaign resilience.

Launches a journaled fault-injection campaign in a subprocess, SIGKILLs
it mid-flight, resumes it from the journal via ``repro resume``, and
asserts the final :class:`CampaignResult` is bit-identical to an
uninterrupted run of the same ``(WorkSpec, CampaignConfig)``.

It does this twice: once in-process (``--workers 1``) and once on the
supervised pool (``--workers 2``, resumed with ``--workers 2``).  The
pooled leg records the victim's child processes before the kill and
requires each to exit within :data:`ORPHAN_DEADLINE` seconds after it:
a worker idle on its pipe must see EOF, a busy one must stop at its
next failed send.

Run from the repository root (CI does)::

    PYTHONPATH=src python scripts/ci_resume_check.py
"""

from __future__ import annotations

import json
import os
import pathlib
import signal
import subprocess
import sys
import tempfile
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from repro.benchsuite.registry import load_source  # noqa: E402
from repro.fi.campaign import CampaignConfig  # noqa: E402
from repro.fi.parallel import WorkSpec, run_parallel_campaign  # noqa: E402

BENCHMARK = "crc32"
SCALE = "small"
LAYER = "asm"
N = 2000
SEED = 2023
MIN_ROWS_BEFORE_KILL = 30
KILL_DEADLINE = 300.0
ORPHAN_DEADLINE = 30.0
LEGS = (1, 2)       # --workers of the killed and of the resumed campaign


def _cli_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src") + os.pathsep + \
        env.get("PYTHONPATH", "")
    return env


def _journal_rows(path: str) -> int:
    if not os.path.exists(path):
        return 0
    rows = 0
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            if line.startswith('{"ev": "row"') and line.endswith("\n"):
                rows += 1
    return rows


def _records(result):
    return [(r.dyn_index, r.bit, r.outcome, r.iid, r.asm_index,
             r.asm_role, r.asm_opcode, r.trap_kind)
            for r in result.records]


def _children(pid: int) -> set:
    """Pids of ``pid``'s live children, read from ``/proc``."""
    pids = set()
    for task in pathlib.Path(f"/proc/{pid}/task").glob("*"):
        try:
            pids.update(int(c) for c in
                        (task / "children").read_text().split())
        except OSError:
            pass
    return pids


def _exited(pid: int) -> bool:
    """True once ``pid`` is gone or a zombie awaiting its reaper."""
    try:
        stat = pathlib.Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return True
    return stat.rsplit(")", 1)[1].split()[0] == "Z"


def _leg(workers: int, clean) -> bool:
    """Kill a ``--workers N`` campaign mid-flight, resume it with the
    same worker count, and compare it with ``clean``."""
    label = f"--workers {workers}"
    journal = os.path.join(tempfile.mkdtemp(prefix="repro-resume-"),
                           "campaign.jsonl")
    child = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "stats", BENCHMARK,
         "--scale", SCALE, "--layer", LAYER, "-n", str(N),
         "--seed", str(SEED), "--workers", str(workers),
         "--journal", journal],
        env=_cli_env(), cwd=ROOT,
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )
    deadline = time.time() + KILL_DEADLINE
    while time.time() < deadline:
        if _journal_rows(journal) >= MIN_ROWS_BEFORE_KILL:
            break
        if child.poll() is not None:
            break
        time.sleep(0.01)
    orphans: set = set()
    if child.poll() is None:
        orphans = _children(child.pid)
        child.send_signal(signal.SIGKILL)
        child.wait()
        print(f"{label}: killed campaign with SIGKILL after "
              f"{_journal_rows(journal)} journaled rows "
              f"({len(orphans)} child processes)")
        if workers > 1 and len(orphans) < workers:
            print(f"FAIL {label}: found {len(orphans)} child processes "
                  f"of the pooled campaign, expected at least {workers}",
                  file=sys.stderr)
            return False
    else:
        print(f"warning {label}: campaign finished before the kill "
              "landed; resume check degenerates to a pure-replay check",
              file=sys.stderr)

    killed_at = time.time()
    while any(not _exited(p) for p in orphans) and \
            time.time() < killed_at + ORPHAN_DEADLINE:
        time.sleep(0.05)
    alive = sorted(p for p in orphans if not _exited(p))
    if orphans and not alive:
        print(f"{label}: all {len(orphans)} child processes exited "
              f"{time.time() - killed_at:.2f} s after the kill")
    if alive:
        print(f"FAIL {label}: child processes {alive} outlived the "
              f"killed campaign by {ORPHAN_DEADLINE:g} s", file=sys.stderr)
        for pid in alive:
            try:
                os.kill(pid, signal.SIGKILL)
            except OSError:
                pass
        return False

    interrupted = _journal_rows(journal)
    if interrupted < 1:
        print(f"FAIL {label}: no rows were journaled before the kill",
              file=sys.stderr)
        return False
    if interrupted >= N:
        print(f"note {label}: journal already complete", file=sys.stderr)

    resume = subprocess.run(
        [sys.executable, "-m", "repro.cli", "resume", journal,
         "--workers", str(workers)],
        env=_cli_env(), cwd=ROOT, capture_output=True, text=True,
        timeout=600,
    )
    if resume.returncode != 0:
        print(f"FAIL {label}: repro resume exited {resume.returncode}\n"
              f"{resume.stderr}", file=sys.stderr)
        return False
    print(resume.stdout.strip().splitlines()[-1])

    final = _journal_rows(journal)
    if final != N:
        print(f"FAIL {label}: journal holds {final} rows, expected {N}",
              file=sys.stderr)
        return False

    # opening the completed journal replays every row without
    # re-executing a single injection
    resumed = run_parallel_campaign(_spec(), _config(), workers=1,
                                    journal_path=journal)
    if _records(resumed) != _records(clean) or \
            resumed.counts != clean.counts or \
            resumed.golden_output != clean.golden_output:
        print(f"FAIL {label}: resumed campaign differs from "
              "uninterrupted run", file=sys.stderr)
        return False
    print(f"OK {label}: killed at {interrupted}/{N} rows, resumed to a "
          f"bit-identical result ({json.dumps({o.value: c for o, c in clean.counts.items() if c})})")
    return True


def _spec() -> WorkSpec:
    return WorkSpec(source=load_source(BENCHMARK, SCALE),
                    name=BENCHMARK, layer=LAYER)


def _config() -> CampaignConfig:
    return CampaignConfig(n_campaigns=N, seed=SEED)


def main() -> int:
    clean = run_parallel_campaign(_spec(), _config(), workers=1)
    ok = True
    for workers in LEGS:
        ok = _leg(workers, clean) and ok
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
