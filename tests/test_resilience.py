"""Tests for resilient campaign execution: injection journal,
checkpoint/resume, and the crash-tolerant chunked supervisor."""

import json
import multiprocessing
import os
import signal

import pytest

from repro.errors import CampaignError
from repro.experiments import ExperimentConfig, ExperimentContext
from repro.fi.campaign import CampaignConfig, _Layer
from repro.fi.compose import run_incremental_campaign
from repro.fi.parallel import WorkSpec, run_parallel_campaign
from repro.pipeline import build_from_source
from repro.fi.resilience import (
    InjectionJournal,
    ResiliencePolicy,
    campaign_key,
    run_supervised,
)
from repro.trace import CampaignObserver

SRC = """
int data[6] = {4, 2, 7, 1, 9, 3};
int main() {
    int best = data[0];
    for (int i = 1; i < 6; i++) {
        if (data[i] > best) { best = data[i]; }
    }
    print(best);
    return 0;
}
"""

BAD_GOLDEN_SRC = "int main() { int z = 0; print(1 / z); return 0; }"


def _records(res):
    return [(r.dyn_index, r.bit, r.outcome, r.iid, r.asm_index,
             r.asm_role, r.asm_opcode, r.trap_kind) for r in res.records]


def _assert_identical(a, b):
    assert a.layer == b.layer and a.n == b.n
    assert a.counts == b.counts
    assert a.golden_output == b.golden_output
    assert a.golden_dyn_total == b.golden_dyn_total
    assert a.golden_dyn_injectable == b.golden_dyn_injectable
    assert _records(a) == _records(b)


class TestCampaignKey:
    def test_stable(self):
        spec = WorkSpec(source=SRC, layer="asm")
        cfg = CampaignConfig(n_campaigns=10, seed=1)
        assert campaign_key(spec, cfg) == campaign_key(spec, cfg)

    def test_config_changes_key(self):
        spec = WorkSpec(source=SRC, layer="asm")
        a = campaign_key(spec, CampaignConfig(n_campaigns=10, seed=1))
        b = campaign_key(spec, CampaignConfig(n_campaigns=10, seed=2))
        c = campaign_key(spec, CampaignConfig(n_campaigns=11, seed=1))
        assert len({a, b, c}) == 3

    def test_spec_changes_key(self):
        cfg = CampaignConfig(n_campaigns=10, seed=1)
        a = campaign_key(WorkSpec(source=SRC, layer="asm"), cfg)
        b = campaign_key(WorkSpec(source=SRC, layer="ir"), cfg)
        c = campaign_key(WorkSpec(source=SRC, layer="asm", level=100), cfg)
        assert len({a, b, c}) == 3

    def test_selected_set_order_irrelevant(self):
        cfg = CampaignConfig(n_campaigns=5)
        a = WorkSpec(source=SRC, selected=frozenset({3, 1, 2}))
        b = WorkSpec(source=SRC, selected=frozenset({2, 3, 1}))
        assert campaign_key(a, cfg) == campaign_key(b, cfg)


class TestInjectionJournal:
    def test_journaled_run_writes_header_and_rows(self, tmp_path):
        spec = WorkSpec(source=SRC, layer="asm")
        cfg = CampaignConfig(n_campaigns=12, seed=3)
        path = tmp_path / "c.jsonl"
        run_parallel_campaign(spec, cfg, workers=1,
                              journal_path=str(path))
        lines = path.read_text().splitlines()
        head = json.loads(lines[0])
        assert head["ev"] == "header"
        assert head["key"] == campaign_key(spec, cfg)
        rows = [json.loads(ln) for ln in lines[1:]]
        assert len(rows) == 12
        assert sorted(r["i"] for r in rows) == list(range(12))

    def test_journaled_result_matches_plain_serial(self, tmp_path):
        spec = WorkSpec(source=SRC, layer="asm")
        cfg = CampaignConfig(n_campaigns=25, seed=3)
        plain = run_parallel_campaign(spec, cfg, workers=1)
        journaled = run_parallel_campaign(
            spec, cfg, workers=1, journal_path=str(tmp_path / "c.jsonl"))
        _assert_identical(plain, journaled)

    def test_full_journal_replays_without_reexecution(self, tmp_path):
        spec = WorkSpec(source=SRC, layer="ir")
        cfg = CampaignConfig(n_campaigns=10, seed=5)
        path = str(tmp_path / "c.jsonl")
        first = run_parallel_campaign(spec, cfg, workers=1,
                                      journal_path=path)
        obs = CampaignObserver()
        second = run_parallel_campaign(spec, cfg, workers=1,
                                       journal_path=path, observer=obs)
        _assert_identical(first, second)
        resumes = [e for e in obs.resilience_events()
                   if e["ev"] == "resume"]
        assert resumes and resumes[0]["skipped"] == 10

    def test_key_mismatch_rejected(self, tmp_path):
        spec = WorkSpec(source=SRC, layer="asm")
        path = str(tmp_path / "c.jsonl")
        run_parallel_campaign(spec, CampaignConfig(n_campaigns=5, seed=1),
                              workers=1, journal_path=path)
        with pytest.raises(CampaignError, match="different campaign"):
            run_parallel_campaign(
                spec, CampaignConfig(n_campaigns=5, seed=2),
                workers=1, journal_path=path)

    def test_headerless_journal_rejected(self, tmp_path):
        path = tmp_path / "junk.jsonl"
        path.write_text("not json at all\n")
        with pytest.raises(CampaignError, match="header"):
            run_parallel_campaign(
                WorkSpec(source=SRC), CampaignConfig(n_campaigns=5),
                workers=1, journal_path=str(path))

    def test_peek_round_trips_spec_and_config(self, tmp_path):
        spec = WorkSpec(source=SRC, name="bench", level=100,
                        flowery=True, layer="ir",
                        selected=frozenset({1, 2}))
        cfg = CampaignConfig(n_campaigns=7, seed=9)
        path = str(tmp_path / "c.jsonl")
        journal = InjectionJournal.open(path, spec, cfg)
        journal.close()
        got_spec, got_cfg, completed = InjectionJournal.peek(path)
        assert got_spec == spec
        assert got_cfg == cfg
        assert completed == {}

    def test_peek_missing_file(self, tmp_path):
        with pytest.raises(CampaignError, match="no journal"):
            InjectionJournal.peek(str(tmp_path / "absent.jsonl"))


class TestKillAndResume:
    """A journal truncated at an arbitrary point — the on-disk state
    after SIGKILL — must resume to a bit-identical result."""

    @pytest.mark.parametrize("layer", ["ir", "asm"])
    def test_resumed_equals_uninterrupted(self, tmp_path, layer):
        spec = WorkSpec(source=SRC, layer=layer)
        cfg = CampaignConfig(n_campaigns=20, seed=7)
        clean = run_parallel_campaign(spec, cfg, workers=1)
        full = tmp_path / "full.jsonl"
        run_parallel_campaign(spec, cfg, workers=1,
                              journal_path=str(full))
        lines = full.read_text().splitlines(keepends=True)
        # interrupt after 8 classified samples, mid-write of the 9th
        torn = "".join(lines[:9]) + lines[9][:len(lines[9]) // 2]
        interrupted = tmp_path / "interrupted.jsonl"
        interrupted.write_text(torn)
        obs = CampaignObserver()
        resumed = run_parallel_campaign(
            spec, cfg, workers=1, journal_path=str(interrupted),
            observer=obs)
        _assert_identical(clean, resumed)
        resumes = [e for e in obs.resilience_events()
                   if e["ev"] == "resume"]
        assert resumes and resumes[0]["skipped"] == 8

    def test_resume_at_every_truncation_point(self, tmp_path):
        spec = WorkSpec(source=SRC, layer="asm")
        cfg = CampaignConfig(n_campaigns=8, seed=2)
        clean = run_parallel_campaign(spec, cfg, workers=1)
        full = tmp_path / "full.jsonl"
        run_parallel_campaign(spec, cfg, workers=1,
                              journal_path=str(full))
        lines = full.read_text().splitlines(keepends=True)
        for cut in range(1, len(lines)):
            part = tmp_path / f"cut{cut}.jsonl"
            part.write_text("".join(lines[:cut]))
            resumed = run_parallel_campaign(spec, cfg, workers=1,
                                            journal_path=str(part))
            _assert_identical(clean, resumed)


class TestGoldenFailure:
    @pytest.mark.parametrize("layer", ["ir", "asm"])
    def test_error_names_layer_and_trap_kind(self, layer):
        spec = WorkSpec(source=BAD_GOLDEN_SRC, layer=layer)
        with pytest.raises(CampaignError) as exc:
            run_parallel_campaign(spec, CampaignConfig(n_campaigns=5),
                                  workers=1)
        msg = str(exc.value)
        assert f"golden {layer} run failed" in msg
        assert "div-by-zero" in msg


class TestResiliencePolicy:
    def test_bad_values_rejected(self):
        with pytest.raises(CampaignError):
            ResiliencePolicy(max_retries=-1)
        with pytest.raises(CampaignError):
            ResiliencePolicy(chunk_timeout=0)
        with pytest.raises(CampaignError):
            ResiliencePolicy(max_chunk=0)


class TestDegradation:
    def test_broken_spawn_context_falls_back_to_serial(self, monkeypatch):
        import repro.fi.resilience as resilience

        def broken(kind):
            raise ValueError("spawn start method unavailable")

        monkeypatch.setattr(resilience, "get_context", broken)
        spec = WorkSpec(source=SRC, layer="ir")
        cfg = CampaignConfig(n_campaigns=15, seed=4)
        obs = CampaignObserver()
        degraded = run_parallel_campaign(spec, cfg, workers=4,
                                         observer=obs)
        serial = run_parallel_campaign(spec, cfg, workers=1)
        _assert_identical(degraded, serial)
        assert any(e["ev"] == "degrade"
                   for e in obs.resilience_events())

    def test_degraded_run_still_journals(self, tmp_path, monkeypatch):
        import repro.fi.resilience as resilience

        def broken(kind):
            raise ValueError("no spawn")

        monkeypatch.setattr(resilience, "get_context", broken)
        spec = WorkSpec(source=SRC, layer="asm")
        cfg = CampaignConfig(n_campaigns=10, seed=4)
        path = tmp_path / "c.jsonl"
        run_parallel_campaign(spec, cfg, workers=4,
                              journal_path=str(path))
        rows = [json.loads(ln) for ln in
                path.read_text().splitlines()[1:]]
        assert len(rows) == 10


class TestPooledTier:
    """Pooled and degraded runs execute on the tier the caller resolved,
    never on what ``REPRO_DISPATCH`` says in their own environment."""

    @staticmethod
    def _incremental(**kw):
        built = build_from_source(SRC, name="tier")
        spec = WorkSpec(source=SRC, name="tier", layer="ir")
        res = run_incremental_campaign(
            built, "ir", CampaignConfig(n_campaigns=12, seed=3), None,
            dispatch="decoded", spec=spec, **kw)
        return res.dispatch, res.counts, res.simulated

    @pytest.mark.slow
    def test_workers_keep_the_callers_tier(self, monkeypatch):
        monkeypatch.setenv("REPRO_DISPATCH", "codgen")
        serial = self._incremental()
        assert self._incremental(workers=2) == serial

    def test_serial_degradation_keeps_the_callers_tier(self, monkeypatch):
        import repro.fi.resilience as resilience

        def broken(kind):
            raise ValueError("no spawn")

        monkeypatch.setenv("REPRO_DISPATCH", "codgen")
        serial = self._incremental()
        monkeypatch.setattr(resilience, "get_context", broken)
        assert self._incremental(workers=2) == serial


class _CountingContext:
    """The spawn context, recording every process it creates; with
    ``limit`` set, creating one more raises."""

    def __init__(self, ctx):
        self._ctx = ctx
        self.procs = []
        self.limit = None

    def __getattr__(self, name):
        return getattr(self._ctx, name)

    def Process(self, *args, **kwargs):
        if self.limit is not None and len(self.procs) >= self.limit:
            raise OSError("process limit reached")
        proc = self._ctx.Process(*args, **kwargs)
        self.procs.append(proc)
        return proc


def _count_processes(monkeypatch) -> _CountingContext:
    import repro.fi.resilience as resilience

    counting = _CountingContext(resilience.get_context("spawn"))
    monkeypatch.setattr(resilience, "get_context", lambda kind: counting)
    return counting


class _KillAtFirstChunk(CampaignObserver):
    """Observer that SIGKILLs one live pool worker when the first chunk
    finishes."""

    def __init__(self, counting: _CountingContext):
        super().__init__()
        self._counting = counting
        self.killed = None

    def worker(self, *args, **kwargs):
        if self.killed is None:
            victims = [p for p in multiprocessing.active_children()
                       if p in self._counting.procs]
            self.killed = victims[0].pid
            os.kill(self.killed, signal.SIGKILL)
        super().worker(*args, **kwargs)


@pytest.mark.slow
class TestSupervisor:
    """Spawn-process paths: worker crash, hang, and tiny campaigns."""

    #: 40 samples in 4-sample chunks: 10 chunks over 2 workers
    SPEC = WorkSpec(source=SRC, layer="asm")
    CFG = CampaignConfig(n_campaigns=40, seed=6)
    POLICY = ResiliencePolicy(max_chunk=4)

    def test_workers_serve_many_chunks(self, monkeypatch):
        ser = run_parallel_campaign(self.SPEC, self.CFG, workers=1)
        counting = _count_processes(monkeypatch)
        obs = CampaignObserver()
        par = run_parallel_campaign(self.SPEC, self.CFG, workers=2,
                                    observer=obs, policy=self.POLICY)
        _assert_identical(par, ser)
        assert len(counting.procs) == 2
        events = obs.worker_events()
        assert len(events) == 10
        assert {e["worker"] for e in events} <= {0, 1}
        assert sorted(e["chunk"] for e in events) == list(range(10))
        assert all(p.exitcode is not None for p in counting.procs)

    def test_worker_killed_mid_campaign_is_replaced(self, monkeypatch):
        ser = run_parallel_campaign(self.SPEC, self.CFG, workers=1)
        counting = _count_processes(monkeypatch)
        obs = _KillAtFirstChunk(counting)
        par = run_parallel_campaign(self.SPEC, self.CFG, workers=2,
                                    observer=obs, policy=self.POLICY)
        _assert_identical(par, ser)
        assert obs.killed is not None
        retries = [e for e in obs.resilience_events()
                   if e["ev"] == "retry"]
        assert retries and "died" in retries[0]["reason"]
        assert len(counting.procs) == 3
        assert {e["worker"] for e in obs.worker_events()} <= {0, 1}
        assert all(p.exitcode is not None for p in counting.procs)

    def test_worker_crash_recovered_bit_identical(self, tmp_path,
                                                  monkeypatch):
        monkeypatch.setenv("REPRO_TEST_CRASH_SENTINEL",
                           str(tmp_path / "crash"))
        spec = WorkSpec(source=SRC, layer="asm")
        cfg = CampaignConfig(n_campaigns=16, seed=6)
        obs = CampaignObserver()
        par = run_parallel_campaign(spec, cfg, workers=2, observer=obs)
        monkeypatch.delenv("REPRO_TEST_CRASH_SENTINEL")
        ser = run_parallel_campaign(spec, cfg, workers=1)
        _assert_identical(par, ser)
        retries = [e for e in obs.resilience_events()
                   if e["ev"] == "retry"]
        assert retries and "died" in retries[0]["reason"]

    def test_spawn_failure_with_a_live_worker_degrades(self, monkeypatch):
        # the second spawn fails: the first worker finishes its chunk,
        # is stopped, and the rest runs in-process
        ser = run_parallel_campaign(self.SPEC, self.CFG, workers=1)
        counting = _count_processes(monkeypatch)
        counting.limit = 1
        obs = CampaignObserver()
        par = run_parallel_campaign(self.SPEC, self.CFG, workers=2,
                                    observer=obs, policy=self.POLICY)
        _assert_identical(par, ser)
        assert [e["ev"] for e in obs.resilience_events()] == ["degrade"]
        assert [e.get("mode") for e in obs.worker_events()] == \
            [None, "serial"]
        assert len(counting.procs) == 1
        assert counting.procs[0].exitcode == 0

    def test_watchdog_recovers_hung_worker(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_TEST_HANG_SENTINEL",
                           str(tmp_path / "hang"))
        spec = WorkSpec(source=SRC, layer="ir")
        cfg = CampaignConfig(n_campaigns=10, seed=6)
        obs = CampaignObserver()
        par = run_parallel_campaign(
            spec, cfg, workers=2, observer=obs,
            policy=ResiliencePolicy(chunk_timeout=3.0))
        monkeypatch.delenv("REPRO_TEST_HANG_SENTINEL")
        ser = run_parallel_campaign(spec, cfg, workers=1)
        _assert_identical(par, ser)
        assert any(e["ev"] == "timeout"
                   for e in obs.resilience_events())

    def test_crash_exhausts_retries(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_TEST_CRASH_SENTINEL",
                           str(tmp_path / "crash"))
        spec = WorkSpec(source=SRC, layer="ir")
        cfg = CampaignConfig(n_campaigns=8, seed=6)
        with pytest.raises(CampaignError, match="permanently failed"):
            run_parallel_campaign(spec, cfg, workers=2,
                                  policy=ResiliencePolicy(max_retries=0))
        # the surviving worker was stopped and joined, not abandoned
        assert multiprocessing.active_children() == []

    def test_commit_error_reaches_the_caller(self):
        # a failing sink (say, a full disk under the journal) is the
        # caller's error, not a lost worker pipe
        def commit(position, row):
            raise OSError("disk full")

        built = build_from_source(SRC)
        with pytest.raises(OSError, match="disk full"):
            run_supervised(self.SPEC, [(0, 5, 1), (1, 6, 2)], 20_000,
                           workers=2, commit=commit,
                           adapter=_Layer.of(built, "asm"), tier="decoded")
        assert multiprocessing.active_children() == []

    def test_fewer_campaigns_than_workers(self):
        # regression: the old stride-chunk stitching mapped results to
        # the wrong samples when n_campaigns < workers
        spec = WorkSpec(source=SRC, layer="asm")
        cfg = CampaignConfig(n_campaigns=3, seed=6)
        par = run_parallel_campaign(spec, cfg, workers=8)
        ser = run_parallel_campaign(spec, cfg, workers=1)
        _assert_identical(par, ser)

    def test_crash_mid_campaign_journal_then_resume(self, tmp_path,
                                                    monkeypatch):
        # a worker crash and a process kill in the same campaign: the
        # journal keeps rows from the crashed attempt, and a resumed
        # run completes to the uninterrupted result
        spec = WorkSpec(source=SRC, layer="asm")
        cfg = CampaignConfig(n_campaigns=12, seed=8)
        clean = run_parallel_campaign(spec, cfg, workers=1)
        path = str(tmp_path / "c.jsonl")
        monkeypatch.setenv("REPRO_TEST_CRASH_SENTINEL",
                           str(tmp_path / "crash"))
        par = run_parallel_campaign(spec, cfg, workers=2,
                                    journal_path=path)
        monkeypatch.delenv("REPRO_TEST_CRASH_SENTINEL")
        _assert_identical(clean, par)
        resumed = run_parallel_campaign(spec, cfg, workers=1,
                                        journal_path=path)
        _assert_identical(clean, resumed)


class TestExperimentContextJournaling:
    def test_context_resumes_from_journal_dir(self, tmp_path):
        cfg = ExperimentConfig(scale="tiny", campaigns=10,
                               benchmarks=("crc32",),
                               journal_dir=str(tmp_path))
        first = ExperimentContext(cfg).raw_campaigns("crc32")
        journals = sorted(p.name for p in tmp_path.glob("*.jsonl"))
        assert len(journals) == 2      # ir + asm
        second = ExperimentContext(cfg).raw_campaigns("crc32")
        for a, b in zip(first, second):
            _assert_identical(a, b)

    def test_journal_dir_off_by_default(self, tmp_path, monkeypatch):
        monkeypatch.delenv("REPRO_JOURNAL_DIR", raising=False)
        ctx = ExperimentContext(ExperimentConfig(scale="tiny",
                                                 campaigns=5,
                                                 benchmarks=("crc32",)))
        assert ctx.journal_dir is None

    def test_env_configures_journal_dir(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_JOURNAL_DIR", str(tmp_path))
        assert ExperimentConfig.from_env().journal_dir == str(tmp_path)
        monkeypatch.setenv("REPRO_JOURNAL_DIR", "")
        assert ExperimentConfig.from_env().journal_dir is None
