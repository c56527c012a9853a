"""Self-test of the benchmark, at ``--smoke`` size (well under a minute).

Run from the repository root with ``python -m pytest perfbench -q``;
it lies outside the tier-1 ``testpaths``.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

from perfbench import spec
from perfbench.hostclock import at_reference

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def perfbench(*args, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, "-m", "perfbench", *args], cwd=cwd,
        capture_output=True, text=True, timeout=170)
    lines = proc.stdout.strip().splitlines()
    return proc, (json.loads(lines[-1]) if lines else None)


def document(proc) -> dict:
    line = next(l for l in proc.stdout.splitlines()
                if l.startswith("document: "))
    with open(os.path.join(ROOT, line[len("document: "):])) as fh:
        return json.load(fh)


@pytest.fixture(scope="module")
def traced_twice():
    return [perfbench("trace", "--smoke") for _ in range(2)]


def test_run_reports_every_end_to_end_metric():
    proc, result = perfbench("run", "--smoke")
    assert proc.returncode == 0, proc.stderr
    assert result["correct"] and result["failed"] == 0
    for workload in spec.workloads():
        for name, unit in spec.metrics("end_to_end").items():
            metric = result["metrics"][f"{workload}/{name}"]
            assert metric["unit"] == unit
            assert metric["value"] > 0, (workload, name)
    # the reported times are the measured ones at the reference host speed
    for workload, res in document(proc)["workloads"].items():
        (rep,) = res["reps"]
        assert res["values"]["wall_s"] == at_reference(rep["wall_s"],
                                                       rep["host_s"])
        assert res["raw"]["wall_s"] == rep["wall_s"]


def test_trace_reports_every_per_layer_metric(traced_twice):
    for proc, result in traced_twice:
        assert proc.returncode == 0, proc.stderr
        assert result["correct"]
        for workload in spec.workloads():
            for name, unit in spec.metrics("per_layer").items():
                assert result["metrics"][f"{workload}/{name}"]["unit"] == unit


def test_count_metrics_repeat_exactly(traced_twice):
    (_, first), (_, second) = traced_twice
    for workload in spec.workloads():
        for name in spec.COUNT_METRICS:
            key = f"{workload}/{name}"
            assert first["metrics"][key] == second["metrics"][key], key


def test_traced_and_untraced_results_are_identical(traced_twice):
    for proc, _ in traced_twice:
        for workload, res in document(proc)["workloads"].items():
            sig = res["signatures"]
            assert sig["traced"] == sig["untraced"], workload


def copy_benchmark(into) -> None:
    """``BENCHMARK.json`` and ``perfbench/``, without the sources."""
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), into)
    shutil.copytree(os.path.join(ROOT, "perfbench"), into / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))


def test_tampered_reference_fails(tmp_path):
    copy_benchmark(tmp_path)
    (tmp_path / "src").symlink_to(os.path.join(ROOT, "src"))
    path = tmp_path / "perfbench" / "expected.json"
    expected = json.loads(path.read_text())
    key = f"campaign-long/smoke@{spec.DEFAULT_SEED}"
    expected["entries"][key]["rates"]["sdc"] += 0.01
    path.write_text(json.dumps(expected))
    proc, result = perfbench("run", "--smoke", "--workload", "campaign-long",
                             cwd=tmp_path)
    assert proc.returncode == 1
    assert not result["correct"]
    assert result["failed"] == result["attempted"]


def test_a_campaign_that_raises_counts_its_samples_as_failed(
        monkeypatch, tmp_path):
    monkeypatch.syspath_prepend(os.path.join(ROOT, "src"))
    from perfbench import workloads

    def raises(*args, **kwargs):
        raise RuntimeError("injected failure")

    monkeypatch.setattr(workloads.campaign, "run_asm_campaign", raises)
    wl = workloads.WORKLOADS["campaign-long"]
    size = spec.SIZES["campaign-long"]["smoke"]
    env = workloads.RunEnv(str(tmp_path))
    body = wl.outcome(wl.body(size, 1, env), size, 1)
    assert (body.attempted, body.delivered, body.missing) == \
        (2 * size["n"], size["n"], size["n"])
    assert env.errors == ["RuntimeError: injected failure"]


def test_refuses_a_tree_without_sources(tmp_path):
    copy_benchmark(tmp_path)
    proc, _ = perfbench("run", "--workload", "campaign-long", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
