"""Smoke tests for the command-line interface."""

import json
import os
import subprocess
import sys

import pytest

from repro.cli import main


class TestCli:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "crc32" in out and "MiBench" in out

    def test_run(self, capsys):
        assert main(["run", "crc32", "--scale", "tiny"]) == 0
        out = capsys.readouterr().out
        assert "cross-layer outputs match: True" in out

    def test_ir_listing(self, capsys):
        assert main(["ir", "crc32", "--scale", "tiny"]) == 0
        out = capsys.readouterr().out
        assert "define i64 @main" in out

    def test_asm_listing(self, capsys):
        assert main(["asm", "crc32", "--scale", "tiny"]) == 0
        out = capsys.readouterr().out
        assert "main:" in out and "push" in out

    def test_protect_report(self, capsys):
        assert main(["protect", "crc32", "--scale", "tiny",
                     "--level", "100", "--flowery"]) == 0
        out = capsys.readouterr().out
        assert "checkers inserted" in out

    def test_inject_unprotected(self, capsys):
        assert main(["inject", "crc32", "--scale", "tiny", "-n", "30"]) == 0
        out = capsys.readouterr().out
        assert "sdc" in out

    def test_inject_protected_reports_coverage(self, capsys):
        assert main(["inject", "crc32", "--scale", "tiny",
                     "--level", "100", "-n", "40"]) == 0
        out = capsys.readouterr().out
        assert "coverage ASM" in out

    def test_bad_benchmark_rejected(self):
        with pytest.raises(SystemExit):
            main(["run", "not-a-benchmark"])

    def test_experiment_compile_time(self, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_BENCHMARKS", "crc32")
        monkeypatch.setenv("REPRO_SCALE", "tiny")
        assert main(["experiment", "compile-time"]) == 0
        assert "compile-time" in capsys.readouterr().out


class TestTraceCommand:
    def test_golden_corun_agrees(self, capsys):
        assert main(["trace", "crc32", "--scale", "tiny"]) == 0
        out = capsys.readouterr().out
        assert "no divergence" in out

    def test_injected_fault_reports_divergence(self, capsys):
        assert main(["trace", "crc32", "--scale", "tiny", "--level", "100",
                     "--inject", "40", "--bit", "2", "--layer", "ir"]) == 0
        out = capsys.readouterr().out
        assert "injection: ir dynamic site #40" in out
        assert "DIVERGENCE" in out or "no divergence" in out

    def test_step_tail_and_jsonl(self, capsys, tmp_path):
        path = tmp_path / "traces.jsonl"
        assert main(["trace", "crc32", "--scale", "tiny",
                     "--mode", "ring", "--tail", "3",
                     "--jsonl", str(path)]) == 0
        out = capsys.readouterr().out
        assert "step records" in out
        lines = path.read_text().strip().split("\n")
        headers = [json.loads(ln) for ln in lines
                   if json.loads(ln)["ev"] == "trace"]
        assert {h["layer"] for h in headers} == {"ir", "asm"}


class TestStatsCommand:
    def test_serial_stats(self, capsys):
        assert main(["stats", "crc32", "--scale", "tiny", "-n", "20"]) == 0
        out = capsys.readouterr().out
        assert "phase timings" in out
        assert "golden" in out and "inject" in out
        assert "outcomes" in out and "sdc=" in out

    def test_stats_jsonl(self, capsys, tmp_path):
        path = tmp_path / "events.jsonl"
        assert main(["stats", "crc32", "--scale", "tiny", "-n", "10",
                     "--layer", "ir", "--jsonl", str(path)]) == 0
        rows = [json.loads(ln) for ln in
                path.read_text().strip().split("\n")]
        kinds = {r["ev"] for r in rows}
        assert {"phase", "outcome"} <= kinds
        outcome = [r for r in rows if r["ev"] == "outcome"][0]
        assert outcome["total"] == 10

    def test_stats_journal_then_resume(self, capsys, tmp_path):
        journal = tmp_path / "campaign.jsonl"
        assert main(["stats", "crc32", "--scale", "tiny", "-n", "10",
                     "--workers", "1", "--journal", str(journal)]) == 0
        first = capsys.readouterr().out
        assert "sdc=" in first
        assert len(journal.read_text().splitlines()) == 11  # header+rows
        assert main(["resume", str(journal), "--workers", "1"]) == 0
        out = capsys.readouterr().out
        assert "resuming" in out and "10/10 samples journaled" in out
        assert "resumed from journal: 10 samples skipped" in out
        # both runs report the same outcome line
        assert first.splitlines()[-1] == out.splitlines()[-1]

    def test_resume_missing_journal_raises(self, tmp_path):
        from repro.errors import CampaignError

        with pytest.raises(CampaignError):
            main(["resume", str(tmp_path / "absent.jsonl")])


def _run_cli(*argv):
    env = dict(os.environ)
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run(
        [sys.executable, "-m", "repro.cli", *argv],
        capture_output=True, text=True, env=env, cwd=root, timeout=300,
    )


@pytest.mark.slow
class TestCliEntryPoint:
    """The installed surface: ``python -m repro.cli`` in a subprocess."""

    def test_list(self):
        proc = _run_cli("list")
        assert proc.returncode == 0
        assert "crc32" in proc.stdout

    def test_run(self):
        proc = _run_cli("run", "crc32", "--scale", "tiny")
        assert proc.returncode == 0
        assert "cross-layer outputs match: True" in proc.stdout

    def test_trace(self):
        proc = _run_cli("trace", "crc32", "--scale", "tiny")
        assert proc.returncode == 0
        assert "no divergence" in proc.stdout

    def test_stats(self):
        proc = _run_cli("stats", "crc32", "--scale", "tiny", "-n", "10")
        assert proc.returncode == 0
        assert "phase timings" in proc.stdout

    def test_stratified_journal_fails_loudly(self, tmp_path):
        journal = tmp_path / "campaign.jsonl"
        proc = _run_cli("stats", "crc32", "--scale", "tiny", "-n", "30",
                        "--stratify", "--journal", str(journal))
        assert proc.returncode != 0
        assert "cannot be journaled" in proc.stderr
        assert not journal.exists()

    def test_usage_error_is_nonzero(self):
        proc = _run_cli("trace")
        assert proc.returncode != 0
        assert "usage" in proc.stderr.lower()
