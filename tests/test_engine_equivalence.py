"""Equivalence proofs for the perf work: pre-decoded dispatch, the
exec-compiled codegen tier, and the checkpoint-replay campaign engine
must all be bit-identical to the naive paths they replace — same
statuses, outputs, counters, traps, records, and profile counts, for
golden runs and injections alike, serial or parallel, interrupted or
not."""

import pytest

from repro.faultmodel import FAULT_MODELS
from repro.fi.bench import campaign_signature, run_campaign_bench
from repro.fi.campaign import (
    CampaignConfig,
    _Layer,
    run_asm_campaign,
    run_ir_campaign,
)
from repro.fi.parallel import WorkSpec, run_parallel_campaign
from repro.interp.interpreter import IRInterpreter
from repro.machine import machine as asm
from repro.machine.machine import AsmMachine, CompiledProgram
from repro.memorymodel import Memory
from repro.pipeline import build, build_from_source
from repro.protection.duplication import duplicate_module
from repro.trace.tap import IRCountTap, MachineCountTap

SRC = """
int data[8] = {4, 2, 7, 1, 9, 3, 8, 6};
int acc[1] = {0};
int main() {
    for (int i = 0; i < 8; i++) {
        if (data[i] > 4) { acc[0] = acc[0] + data[i]; }
        else { acc[0] = acc[0] - data[i]; }
    }
    print(acc[0]);
    return 0;
}
"""


def _res_sig(res):
    extra = {k: v for k, v in res.extra.items() if k != "trace"}
    return (res.status.value, res.output, res.dyn_total,
            res.dyn_injectable, res.trap_kind, res.injected,
            res.injected_iid, extra)


def _ir(built, dispatch, trace=None, **kw):
    return IRInterpreter(built.module, layout=built.layout,
                         dispatch=dispatch, trace=trace).run(**kw)


def _asm(built, dispatch, trace=None, **kw):
    return AsmMachine(built.compiled, built.layout,
                      dispatch=dispatch, trace=trace).run(**kw)


@pytest.fixture(scope="module")
def built():
    return build_from_source(SRC, name="equiv")


@pytest.fixture(scope="module")
def built_protected():
    return build_from_source(SRC, name="equiv_prot", level=100)


class TestDispatchEquivalence:
    """Decoded dispatch is a pure compilation of the naive ladders."""

    @pytest.mark.parametrize("runner,counter",
                             [(_ir, IRCountTap), (_asm, MachineCountTap)],
                             ids=["ir", "asm"])
    def test_golden_run_identical(self, built, runner, counter):
        naive_counts, decoded_counts = counter(), counter()
        naive = runner(built, "naive", trace=naive_counts)
        decoded = runner(built, "decoded", trace=decoded_counts)
        assert _res_sig(naive) == _res_sig(decoded)
        assert naive_counts.counts == decoded_counts.counts
        assert naive_counts.counts  # profiling actually ran

    @pytest.mark.parametrize("runner", [_ir, _asm], ids=["ir", "asm"])
    def test_injections_identical(self, built, runner):
        golden = runner(built, "naive")
        n_inj = golden.dyn_injectable
        # sweep a spread of sites x bits, including high bits that tend
        # to produce traps (segfault/bad-jump) rather than silent SDCs
        sites = sorted({0, 1, n_inj // 3, n_inj // 2, n_inj - 1})
        for idx in sites:
            for bit in (0, 17, 62, 63):
                naive = runner(built, "naive",
                               inject_index=idx, inject_bit=bit)
                decoded = runner(built, "decoded",
                                 inject_index=idx, inject_bit=bit)
                assert _res_sig(naive) == _res_sig(decoded), \
                    f"mismatch at idx={idx} bit={bit}"

    @pytest.mark.parametrize("runner", [_ir, _asm], ids=["ir", "asm"])
    def test_protected_program_identical(self, built_protected, runner):
        naive = runner(built_protected, "naive")
        decoded = runner(built_protected, "decoded")
        assert _res_sig(naive) == _res_sig(decoded)

    def test_decode_cache_invalidated_by_module_mutation(self):
        # the decode pass memoizes per-module; passes mutate modules in
        # place, so the cache must notice and recompile
        built = build_from_source(SRC, name="equiv_mut")
        before = _ir(built, "decoded")
        duplicate_module(built.module)
        after_decoded = _ir(built, "decoded")
        after_naive = _ir(built, "naive")
        assert after_decoded.dyn_total > before.dyn_total
        assert _res_sig(after_decoded) == _res_sig(after_naive)


class TestCheckpointReplay:
    """Resuming from a checkpoint snapshot replays the exact suffix."""

    @pytest.mark.parametrize("runner", [_ir, _asm], ids=["ir", "asm"])
    def test_resume_matches_full_run(self, built, runner):
        golden = runner(built, "decoded")
        n_inj = golden.dyn_injectable
        targets = sorted({1, n_inj // 2, n_inj - 1})
        snaps = {}

        def grab(idx, snap):
            snaps[idx] = snap

        res = runner(built, "decoded", checkpoints=targets,
                     checkpoint_cb=grab)
        assert sorted(snaps) == targets
        assert res.extra.get("early_stop") is True
        for idx in targets:
            for bit in (0, 40, 63):
                full = runner(built, "decoded",
                              inject_index=idx, inject_bit=bit)
                replay = runner(built, "decoded", inject_index=idx,
                                inject_bit=bit, resume_from=snaps[idx])
                assert _res_sig(full) == _res_sig(replay), \
                    f"replay mismatch at idx={idx} bit={bit}"

    @pytest.mark.parametrize("runner", [_ir, _asm], ids=["ir", "asm"])
    def test_one_simulator_serves_many_replays(self, built, runner):
        # the engine reuses one simulator across all replays; state from
        # a previous (possibly trapped) replay must never leak
        golden = runner(built, "decoded")
        idx = golden.dyn_injectable // 2
        snaps = {}
        runner(built, "decoded", checkpoints=[idx],
               checkpoint_cb=lambda i, s: snaps.update({i: s}))
        expected = [
            _res_sig(runner(built, "decoded",
                            inject_index=idx, inject_bit=bit))
            for bit in (63, 0, 63, 17)
        ]
        if runner is _ir:
            sim = IRInterpreter(built.module, layout=built.layout)
        else:
            sim = AsmMachine(built.compiled, built.layout)
        got = [
            _res_sig(sim.run(inject_index=idx, inject_bit=bit,
                             resume_from=snaps[idx]))
            for bit in (63, 0, 63, 17)
        ]
        assert got == expected

    def test_naive_dispatch_rejects_checkpointing(self, built):
        with pytest.raises(Exception, match="decoded"):
            _asm(built, "naive", checkpoints=[1], checkpoint_cb=print)


class TestCodegenEquivalence:
    """The codegen tier executes exec-compiled specialized source; every
    observable must stay bit-identical to the naive ladders."""

    @pytest.mark.parametrize("runner", [_ir, _asm], ids=["ir", "asm"])
    def test_golden_run_identical(self, built, runner):
        naive = runner(built, "naive")
        codegen = runner(built, "codegen")
        assert _res_sig(naive) == _res_sig(codegen)

    @pytest.mark.parametrize("runner", [_ir, _asm], ids=["ir", "asm"])
    def test_injections_identical_vs_naive(self, built, runner):
        golden = runner(built, "naive")
        n_inj = golden.dyn_injectable
        sites = sorted({0, 1, n_inj // 3, n_inj // 2, n_inj - 1})
        for idx in sites:
            for bit in (0, 17, 62, 63):
                naive = runner(built, "naive",
                               inject_index=idx, inject_bit=bit)
                codegen = runner(built, "codegen",
                                 inject_index=idx, inject_bit=bit)
                assert _res_sig(naive) == _res_sig(codegen), \
                    f"mismatch at idx={idx} bit={bit}"

    @pytest.mark.parametrize("runner", [_ir, _asm], ids=["ir", "asm"])
    def test_protected_program_identical(self, built_protected, runner):
        naive = runner(built_protected, "naive")
        codegen = runner(built_protected, "codegen")
        assert _res_sig(naive) == _res_sig(codegen)

    def test_codegen_cache_invalidated_by_module_mutation(self):
        # generated source is cached per module by content fingerprint;
        # passes mutate modules in place, so the cache must regenerate
        built = build_from_source(SRC, name="equiv_cgmut")
        before = _ir(built, "codegen")
        duplicate_module(built.module)
        after_codegen = _ir(built, "codegen")
        after_naive = _ir(built, "naive")
        assert after_codegen.dyn_total > before.dyn_total
        assert _res_sig(after_codegen) == _res_sig(after_naive)

    @pytest.mark.parametrize("runner", [_ir, _asm], ids=["ir", "asm"])
    def test_codegen_replay_matches_full_run(self, built, runner):
        # snapshots stream from the decoded core; suffixes replay on the
        # codegen tier and must match full codegen (and naive) runs
        golden = runner(built, "decoded")
        n_inj = golden.dyn_injectable
        targets = sorted({1, n_inj // 2, n_inj - 1})
        snaps = {}
        res = runner(built, "codegen", checkpoints=targets,
                     checkpoint_cb=lambda i, s: snaps.update({i: s}))
        assert sorted(snaps) == targets
        assert res.extra.get("early_stop") is True
        for idx in targets:
            for bit in (0, 40, 63):
                full = runner(built, "naive",
                              inject_index=idx, inject_bit=bit)
                replay = runner(built, "codegen", inject_index=idx,
                                inject_bit=bit, resume_from=snaps[idx])
                assert _res_sig(full) == _res_sig(replay), \
                    f"replay mismatch at idx={idx} bit={bit}"

    @pytest.mark.parametrize("seed", [0, 2023])
    def test_ir_campaign_codegen_dispatch(self, built, seed):
        cfg = CampaignConfig(n_campaigns=40, seed=seed)
        naive = run_ir_campaign(built.module, cfg, built.layout,
                                engine=False)
        codegen = run_ir_campaign(built.module, cfg, built.layout,
                                  engine=True, dispatch="codegen")
        assert campaign_signature(naive) == campaign_signature(codegen)

    @pytest.mark.parametrize("seed", [0, 2023])
    def test_asm_campaign_codegen_dispatch(self, built, seed):
        cfg = CampaignConfig(n_campaigns=40, seed=seed)
        naive = run_asm_campaign(built.compiled, built.layout, cfg,
                                 engine=False)
        codegen = run_asm_campaign(built.compiled, built.layout, cfg,
                                   engine=True, dispatch="codegen")
        assert campaign_signature(naive) == campaign_signature(codegen)

    def test_benchmark_campaign_codegen_dispatch(self):
        built = build("crc32", scale="tiny")
        cfg = CampaignConfig(n_campaigns=30, seed=5)
        for layer, run, args in (
            ("ir", run_ir_campaign, (built.module, cfg, built.layout)),
            ("asm", run_asm_campaign,
             (built.compiled, built.layout, cfg)),
        ):
            decoded = run(*args, engine=True, dispatch="decoded")
            codegen = run(*args, engine=True, dispatch="codegen")
            assert campaign_signature(decoded) == \
                campaign_signature(codegen), layer

    @pytest.mark.parametrize("layer", ["ir", "asm"])
    def test_parallel_codegen_matches_naive_serial(self, layer,
                                                   monkeypatch):
        spec = WorkSpec(source=SRC, layer=layer)
        cfg = CampaignConfig(n_campaigns=16, seed=3)
        monkeypatch.setenv("REPRO_DISPATCH", "codegen")
        parallel = run_parallel_campaign(spec, cfg, workers=2)
        monkeypatch.delenv("REPRO_DISPATCH")
        monkeypatch.setenv("REPRO_ENGINE", "0")
        serial = run_parallel_campaign(spec, cfg, workers=1)
        assert campaign_signature(parallel) == campaign_signature(serial)

    def test_kill_and_resume_codegen_matches_naive(self, tmp_path,
                                                   monkeypatch):
        spec = WorkSpec(source=SRC, layer="asm")
        cfg = CampaignConfig(n_campaigns=16, seed=9)
        monkeypatch.setenv("REPRO_DISPATCH", "codegen")
        full = tmp_path / "full.jsonl"
        run_parallel_campaign(spec, cfg, workers=1,
                              journal_path=str(full))
        lines = full.read_text().splitlines(keepends=True)
        torn = tmp_path / "torn.jsonl"
        torn.write_text("".join(lines[:7]) + lines[7][:10])
        resumed = run_parallel_campaign(spec, cfg, workers=1,
                                        journal_path=str(torn))
        monkeypatch.delenv("REPRO_DISPATCH")
        monkeypatch.setenv("REPRO_ENGINE", "0")
        clean = run_parallel_campaign(spec, cfg, workers=1)
        assert campaign_signature(resumed) == campaign_signature(clean)


class TestCampaignEquivalence:
    """Engine campaigns are bit-identical to naive re-execution."""

    @pytest.mark.parametrize("seed", [0, 7, 2023])
    def test_ir_campaign(self, built, seed):
        cfg = CampaignConfig(n_campaigns=40, seed=seed)
        naive = run_ir_campaign(built.module, cfg, built.layout,
                                engine=False)
        fast = run_ir_campaign(built.module, cfg, built.layout,
                               engine=True)
        assert campaign_signature(naive) == campaign_signature(fast)

    @pytest.mark.parametrize("seed", [0, 7, 2023])
    def test_asm_campaign(self, built, seed):
        cfg = CampaignConfig(n_campaigns=40, seed=seed)
        naive = run_asm_campaign(built.compiled, built.layout, cfg,
                                 engine=False)
        fast = run_asm_campaign(built.compiled, built.layout, cfg,
                                engine=True)
        assert campaign_signature(naive) == campaign_signature(fast)

    def test_protected_campaign(self, built_protected):
        cfg = CampaignConfig(n_campaigns=40, seed=11)
        naive = run_asm_campaign(built_protected.compiled,
                                 built_protected.layout, cfg,
                                 engine=False)
        fast = run_asm_campaign(built_protected.compiled,
                                built_protected.layout, cfg, engine=True)
        assert campaign_signature(naive) == campaign_signature(fast)

    def test_benchmark_campaign(self):
        built = build("crc32", scale="tiny")
        cfg = CampaignConfig(n_campaigns=30, seed=5)
        for layer, run, args in (
            ("ir", run_ir_campaign, (built.module, cfg, built.layout)),
            ("asm", run_asm_campaign,
             (built.compiled, built.layout, cfg)),
        ):
            naive = run(*args, engine=False)
            fast = run(*args, engine=True)
            assert campaign_signature(naive) == \
                campaign_signature(fast), layer


class TestStratifiedEquivalence:
    """Stratified campaigns list records in draw order on every path:
    (stratum, draw position), pilot batch then Neyman batch."""

    @pytest.mark.parametrize("layer,fault_model",
                             [("ir", "set"), ("asm", "seu")])
    def test_engine_and_naive_records_in_order(self, layer, fault_model):
        built = build("crc32", scale="tiny", level=100)
        cfg = CampaignConfig(n_campaigns=120, seed=5, prune=True,
                             stratify=True)
        if layer == "ir":
            run, args = run_ir_campaign, (built.module, cfg, built.layout)
        else:
            run, args = run_asm_campaign, (built.compiled, built.layout,
                                           cfg)
        naive = run(*args, engine=False, fault_model=fault_model)
        fast = run(*args, engine=True, fault_model=fault_model)
        assert naive.pruned > 0
        assert campaign_signature(naive) == campaign_signature(fast)


class TestRunnersAndResume:
    """The engine composes with the supervisor and the journal."""

    @pytest.mark.parametrize("layer", ["ir", "asm"])
    def test_parallel_matches_naive_serial(self, layer, monkeypatch):
        spec = WorkSpec(source=SRC, layer=layer)
        cfg = CampaignConfig(n_campaigns=16, seed=3)
        parallel = run_parallel_campaign(spec, cfg, workers=2)
        monkeypatch.setenv("REPRO_ENGINE", "0")
        serial = run_parallel_campaign(spec, cfg, workers=1)
        assert campaign_signature(parallel) == campaign_signature(serial)

    def test_kill_and_resume_matches_naive(self, tmp_path, monkeypatch):
        spec = WorkSpec(source=SRC, layer="asm")
        cfg = CampaignConfig(n_campaigns=16, seed=9)
        full = tmp_path / "full.jsonl"
        run_parallel_campaign(spec, cfg, workers=1,
                              journal_path=str(full))
        lines = full.read_text().splitlines(keepends=True)
        # truncate mid-row: the on-disk state after SIGKILL
        torn = tmp_path / "torn.jsonl"
        torn.write_text("".join(lines[:7]) + lines[7][:10])
        resumed = run_parallel_campaign(spec, cfg, workers=1,
                                        journal_path=str(torn))
        monkeypatch.setenv("REPRO_ENGINE", "0")
        clean = run_parallel_campaign(spec, cfg, workers=1)
        assert campaign_signature(resumed) == campaign_signature(clean)


#: calls + loops + memory: rich enough that single flips reach every
#: interesting trap (bad pointers, corrupted branch targets, runaway
#: loops) — the (idx, bit) pairs below were found by exhaustive scan
#: and are pinned; the tests re-assert the expected trap kind, so a
#: codegen change that moves them fails loudly instead of silently
#: testing nothing
TRAP_SRC = """
int vals[4] = {3, 1, 4, 1};
int agg(int a, int b) { return a * 2 + b; }
int main() {
    int s = 0;
    for (int i = 0; i < 4; i++) { s = agg(s, vals[i]); }
    print(s);
    return 0;
}
"""

#: (layer, expected trap kind, inject_index, inject_bit)
TRAP_CASES = [
    ("ir", "segfault", 3, 18),          # bad pointer
    ("ir", "step-budget", 11, 63),      # runaway loop hits the budget
    ("asm", "segfault", 0, 0),          # bad pointer
    ("asm", "bad-jump", 0, 4),          # corrupted branch/return target
    ("asm", "stack-overflow", 0, 19),   # corrupted stack pointer
    ("asm", "step-budget", 0, 12),      # runaway loop hits the budget
]


@pytest.fixture(scope="module")
def trap_built():
    return build_from_source(TRAP_SRC, name="equiv_trap")


class TestTrapEquivalence:
    """Trapping injections are bit-identical across dispatch modes and
    the checkpoint-replay engine: same outcome, same trap kind, same
    dynamic counters."""

    @staticmethod
    def _sim(built, layer, dispatch, max_steps):
        if layer == "ir":
            return IRInterpreter(built.module, layout=built.layout,
                                 max_steps=max_steps, dispatch=dispatch)
        return AsmMachine(built.compiled, built.layout,
                          max_steps=max_steps, dispatch=dispatch)

    @classmethod
    def _max_steps(cls, built, layer):
        golden = cls._sim(built, layer, "decoded", 1_000_000).run()
        return max(1000, golden.dyn_total * 4)

    @pytest.mark.parametrize("layer,kind,idx,bit", TRAP_CASES)
    def test_trap_identical_across_dispatch(self, trap_built, layer,
                                            kind, idx, bit):
        from repro.execresult import RunStatus

        ms = self._max_steps(trap_built, layer)
        naive = self._sim(trap_built, layer, "naive", ms).run(
            inject_index=idx, inject_bit=bit)
        decoded = self._sim(trap_built, layer, "decoded", ms).run(
            inject_index=idx, inject_bit=bit)
        codegen = self._sim(trap_built, layer, "codegen", ms).run(
            inject_index=idx, inject_bit=bit)
        assert naive.status is RunStatus.TRAP
        assert naive.trap_kind == kind
        assert _res_sig(naive) == _res_sig(decoded)
        assert _res_sig(naive) == _res_sig(codegen)

    @pytest.mark.parametrize("layer,kind,idx,bit", TRAP_CASES)
    def test_trap_identical_through_engine(self, trap_built, layer,
                                           kind, idx, bit):
        from repro.fi.engine import run_injection_suite

        ms = self._max_steps(trap_built, layer)
        full = self._sim(trap_built, layer, "decoded", ms).run(
            inject_index=idx, inject_bit=bit)
        assert full.trap_kind == kind
        got = {}
        run_injection_suite(
            layer, [(0, idx, bit)], ms,
            module=trap_built.module, layout=trap_built.layout,
            program=trap_built.compiled,
            emit=lambda tag, res: got.__setitem__(tag, res),
        )
        assert _res_sig(got[0]) == _res_sig(full)


class TestBenchHarness:
    def test_bench_document_shape(self):
        doc = run_campaign_bench("crc32", scale="tiny", n=6, seed=1)
        assert doc["schema"] == "bench_campaign/6"
        assert set(doc["layers"]) == {"ir", "asm"}
        for d in doc["layers"].values():
            assert d["results_identical"] is True
            assert d["naive_seconds"] > 0 and d["engine_seconds"] > 0
            c = d["containment"]
            assert c["results_identical"] is True
            assert c["off_seconds"] > 0 and c["on_seconds"] > 0
            g = d["codegen"]
            assert g["results_identical"] is True
            assert g["decoded_seconds"] > 0 and g["codegen_seconds"] > 0
            inc = d["incremental"]
            assert inc["sections"] >= 1
            assert inc["cold_seconds"] > 0 and inc["warm_seconds"] > 0
            assert inc["warm_simulated"] == 0
            assert inc["warm_pure_hits"] is True
        pr = doc["pruning"]
        assert pr["sound"] is True
        assert pr["prune"]["estimates_identical"] is True
        assert pr["prune"]["pruned"] > 0
        assert pr["stratified"]["ci_overlap"] is True
        assert pr["stratified"]["steps_ratio"] >= 2.0
        assert doc["overall"]["results_identical"] is True
        assert doc["overall"]["containment"]["results_identical"] is True
        assert doc["overall"]["codegen"]["results_identical"] is True
        tg = doc["testgen"]
        assert tg["oracle_ok"] is True
        assert tg["within_budget"] is True
        assert tg["oracle_matrix_runs"] == 48 * tg["oracle_programs"]
        # under pytest other suites may have imported repro.testgen
        # already, so only the flag's presence is asserted here; the CI
        # artifact is produced by a fresh process where it must be False
        assert "campaign_imports_testgen" in tg

    def test_engine_env_toggle(self, built, monkeypatch):
        cfg = CampaignConfig(n_campaigns=10, seed=4)
        monkeypatch.setenv("REPRO_ENGINE", "0")
        off = run_ir_campaign(built.module, cfg, built.layout)
        monkeypatch.delenv("REPRO_ENGINE")
        on = run_ir_campaign(built.module, cfg, built.layout)
        assert campaign_signature(off) == campaign_signature(on)


# ---------------------------------------------------------------------------
# extent snapshots: a restore must undo everything a faulty replay wrote

EXTENT_BENCHMARKS = ("crc32", "bfs", "quicksort")
EXTENT_CHECKPOINTS = 12
EXTENT_BITS = (63, 62, 47, 40, 31, 3)


@pytest.fixture(scope="module")
def extent_builds():
    return {name: build(name, scale="tiny") for name in EXTENT_BENCHMARKS}


def _extent_mismatches(built, layer, tier, fault_model):
    """Checks and mismatches of the restore oracle on one configuration.

    At each of 12 checkpoints spread over the golden run, a reused
    simulator runs the faulty replay of every bit and then an
    uninjected resume from the same snapshot; its full memory image,
    output and status must equal a fresh simulator's uninjected
    resume.  Returns ``(checks, mismatches, snapshot sizes)``.
    """
    adapter = _Layer.of(built, layer, fault_model)
    golden = adapter.golden()
    max_steps = CampaignConfig().max_steps(golden.dyn_total)
    n = golden.dyn_injectable
    targets = sorted({k * n // EXTENT_CHECKPOINTS
                      for k in range(EXTENT_CHECKPOINTS)})
    reused = adapter.simulator(tier, max_steps)
    counts = {"checks": 0, "mismatches": 0}
    sizes = []

    def check(idx, snap):
        sizes.append(len(snap.mem.lo) + len(snap.mem.hi))
        fresh = adapter.simulator(tier, max_steps)
        ref = fresh.run(resume_from=snap)
        for bit in EXTENT_BITS:
            reused.run(inject_index=idx, inject_bit=bit, resume_from=snap)
            got = reused.run(resume_from=snap)
            counts["checks"] += 1
            if (got.status is not ref.status or got.output != ref.output
                    or reused.memory.data != fresh.memory.data):
                counts["mismatches"] += 1

    adapter.simulator("decoded", max_steps).run(checkpoints=targets,
                                                checkpoint_cb=check)
    return counts["checks"], counts["mismatches"], sizes


#: one store uop each, given the register map and a heap address that
#: ``rcx`` also holds (``rsp`` points into the middle of the stack)
_ASM_STORES = {
    "mov_mr": lambda g, heap: (asm.MOV_MR, g["rcx"], 0, g["rbx"], 8),
    "mov_mr_abs": lambda g, heap: (asm.MOV_MR, -1, heap, g["rbx"], 2),
    "mov_mi": lambda g, heap: (asm.MOV_MI, g["rcx"], 0, 0x55, 4),
    "mov_mi_abs": lambda g, heap: (asm.MOV_MI, -1, heap, 0x66, 8),
    "movsd_mx": lambda g, heap: (asm.MOVSD_MX, g["rcx"], 0, 0),
    "movsd_mx_abs": lambda g, heap: (asm.MOVSD_MX, -1, heap, 0),
    "push": lambda g, heap: (asm.PUSH, g["rbx"]),
    "call": lambda g, heap: (asm.CALL, 6),
}


def _leaky_widen(monkeypatch):
    """Mutant: the written extent ignores every write below 1 MiB, so a
    faulty replay's wild heap writes survive the next restore."""
    widen = Memory.widen

    def leaky(self, addr, size):
        if addr < 1 << 20:
            return self.lo_end, self.hi_start
        return widen(self, addr, size)

    monkeypatch.setattr(Memory, "widen", leaky)


class TestExtentSnapshots:
    """Snapshots hold only the written extents; restoring one over a
    simulator a faulty replay left dirty must reproduce the snapshot's
    memory exactly, on both layers and both snapshot-capable tiers."""

    @pytest.mark.parametrize("fault_model", FAULT_MODELS)
    @pytest.mark.parametrize("tier", ["decoded", "codegen"])
    @pytest.mark.parametrize("layer", ["ir", "asm"])
    @pytest.mark.parametrize("name", EXTENT_BENCHMARKS)
    def test_restore_after_faulty_replay(self, extent_builds, name, layer,
                                         tier, fault_model):
        checks, mismatches, _ = _extent_mismatches(
            extent_builds[name], layer, tier, fault_model)
        assert checks == EXTENT_CHECKPOINTS * len(EXTENT_BITS)
        assert mismatches == 0

    @pytest.mark.parametrize("layer", ["ir", "asm"])
    def test_snapshot_holds_only_the_written_extent(self, extent_builds,
                                                    layer):
        _, _, sizes = _extent_mismatches(extent_builds["crc32"], layer,
                                         "decoded", "seu")
        assert len(sizes) == EXTENT_CHECKPOINTS
        assert max(sizes) <= 4096

    @pytest.mark.parametrize("store", sorted(_ASM_STORES))
    @pytest.mark.parametrize("tier", ["decoded", "codegen"])
    def test_every_asm_store_widens(self, built, tier, store):
        # in a real program a later, deeper frame store covers most
        # pushes and calls, hiding one that forgot to widen; here each
        # store uop writes alone into an untouched span, then traps
        g = asm._GPR_INDEX
        mem = built.layout.make_memory()
        heap = mem.heap_base + 8192
        stack = mem.stack_limit + 4096
        uops = [
            (asm.MOV_RI, g["rbx"], 0x1234),
            (asm.MOVSD_XI, 0, 1.5),
            (asm.MOV_RI, g["rcx"], heap),
            (asm.MOV_RI, g["rsp"], stack),
            _ASM_STORES[store](g, heap),
            (asm.UD2,),
            (asm.UD2,),             # CALL target
        ]
        program = CompiledProgram(None, uops, [0] * len(uops), 0, [])
        machine = AsmMachine(program, built.layout, dispatch=tier)
        assert machine.run().trap_kind == "unreachable"
        m = machine.memory
        addr = stack if store in ("push", "call") else heap
        assert any(m.data[addr - 8:addr + 8])
        assert m.data[m.lo_end:m.hi_start] == bytes(m.hi_start - m.lo_end)

    def test_leaky_extent_is_caught(self, extent_builds, monkeypatch):
        _leaky_widen(monkeypatch)
        found = sum(
            _extent_mismatches(extent_builds[name], layer, "decoded",
                               "seu")[1]
            for name in EXTENT_BENCHMARKS for layer in ("ir", "asm"))
        assert found > 0
