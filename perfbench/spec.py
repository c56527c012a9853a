"""What the benchmark measures: workloads, their sizes, and metrics.

Importable without :mod:`repro` — the parent process reads it to
validate arguments and label output before any child starts.  The
workloads and metrics come from ``BENCHMARK.json`` at the repository
root; the sizes and thresholds live here.
"""

from __future__ import annotations

import functools
import json
import os
from typing import Dict

BENCHMARK_JSON = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "BENCHMARK.json")
#: the correctness gate's pinned results
EXPECTED_JSON = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                             "expected.json")


@functools.lru_cache(maxsize=None)
def _benchmark() -> dict:
    with open(BENCHMARK_JSON) as fh:
        return json.load(fh)


def workloads() -> Dict[str, str]:
    """Workload name -> why it is in the benchmark (one line each)."""
    return {w["name"]: w["why"] for w in _benchmark()["workloads"]}


def metrics(kind: str) -> Dict[str, str]:
    """Metric name -> unit for ``kind`` ``end_to_end`` (measured with
    tracing off) or ``per_layer`` (measured by the traced run).  A layer
    a workload never enters reads 0 for its times and counts and 1.0
    for its ratios against itself."""
    return {m["name"]: m["unit"] for m in _benchmark()[kind]}


#: full-size parameters (what ``BENCHMARK.json``'s command measures) and
#: ``--smoke`` ones (what the self-test runs in seconds)
SIZES: Dict[str, Dict[str, dict]] = {
    "fig2-tiny": {
        "full": {"benchmarks": "all", "levels": [30, 50, 70, 100],
                 "campaigns": 40, "profile_campaigns": 120,
                 "naive_checks": 2},
        "smoke": {"benchmarks": ["crc32", "pathfinder"], "levels": [50, 100],
                  "campaigns": 8, "profile_campaigns": 16,
                  "naive_checks": 2},
    },
    "campaign-long": {
        "full": {"benchmark": "pathfinder", "scale": "medium", "n": 600,
                 "naive_checks": 8},
        "smoke": {"benchmark": "pathfinder", "scale": "tiny", "n": 30,
                  "naive_checks": 4},
    },
    "smart-dup100": {
        "full": {"benchmarks": ["stringsearch", "crc32"], "scale": "small",
                 "level": 100, "n": 1500, "naive_checks": 8},
        "smoke": {"benchmarks": ["crc32"], "scale": "tiny", "level": 100,
                  "n": 60, "naive_checks": 4},
    },
    "incremental-2w": {
        "full": {"benchmark": "cg", "scale": "small", "n": 1500,
                 "workers": 2},
        "smoke": {"benchmark": "cg", "scale": "tiny", "n": 40,
                  "workers": 2},
    },
}

DEFAULT_SEED = 2023


def expected_key(workload: str, size: str, seed: int) -> str:
    """The ``expected.json`` entry pinning one workload, size and seed."""
    return f"{workload}/{size}@{seed}"


#: per-layer metrics that are exact counts: identical on every run of
#: the same code and seed, so a later change may cite them as counts
COUNT_METRICS = (
    "engine.golden_steps", "engine.suffix_steps", "engine.replays",
    "engine.steps_per_injection", "prune.pruned_frac", "prune.steps_ratio",
    "stratify.steps_ratio", "compose.edit_simulated",
    "compose.warm_simulated", "store.rows", "pool.chunks",
)

#: the attribution check: top-level spans must cover this share of the
#: body's wall time in the traced run
MAX_UNATTRIBUTED = 0.10
