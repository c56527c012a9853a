"""Fault-model taxonomy and control-flow checking tests.

Covers the three-way scenario matrix introduced for the cross-layer
study: loud validation of fault-model/dispatch names, the CFC pass
(golden-clean, detects control-flow faults, composes with duplication,
weakenings behave), cross-dispatch bit-identity under SET and CF
faults, journal schema compatibility (legacy rows, resume), lockstep
edge forensics, and the multi-model chaos sweep.
"""

import dataclasses
import json

import pytest

from repro.errors import CampaignError, IRError
from repro.execresult import RunStatus
from repro.faultmodel import (
    CF_BIT_RANGE,
    FAULT_MODELS,
    fault_bit_range,
    validate_fault_model,
)
from repro.fi.bench import campaign_signature
from repro.fi.campaign import (
    CampaignConfig,
    run_asm_campaign,
    run_ir_campaign,
)
from repro.fi.chaos import chaos_sweep
from repro.fi.engine import engine_dispatch, run_injection_suite
from repro.fi.outcomes import Outcome
from repro.fi.parallel import run_parallel_campaign
from repro.fi.resilience import (
    ROW_FIELDS,
    InjectionJournal,
    WorkSpec,
    campaign_key,
    record_from_row,
)
from repro.interp.interpreter import IRInterpreter
from repro.machine.machine import AsmMachine
from repro.pipeline import build_from_source
from repro.protection.cfc import CFC_WEAKNESSES, SIG_GLOBAL, apply_cfc
from repro.trace import lockstep_built

SRC = """
int data[8] = {4, 2, 7, 1, 9, 3, 8, 6};
int acc[1] = {0};
int step(int s, int v) {
    if (v > 4) { return s + v * 3; }
    return s - (v >> 1);
}
int main() {
    for (int i = 0; i < 8; i++) {
        acc[0] = step(acc[0], data[i]);
        if ((acc[0] & 3) == 0) { acc[0] = acc[0] + 1; }
    }
    print(acc[0]);
    return 0;
}
"""


@pytest.fixture(scope="module")
def built():
    return build_from_source(SRC, name="fm_plain")


@pytest.fixture(scope="module")
def built_cfc():
    return build_from_source(SRC, name="fm_cfc", cfc=True)


@pytest.fixture(scope="module")
def built_dup_cfc():
    return build_from_source(SRC, name="fm_dupcfc", level=100, cfc=True)


def _res_sig(res):
    extra = {k: v for k, v in res.extra.items() if k != "trace"}
    return (res.status.value, res.output, res.dyn_total,
            res.dyn_injectable, res.trap_kind, res.injected,
            res.injected_iid, extra)


def _sim(built, layer, dispatch, fault_model, max_steps=200_000):
    if layer == "ir":
        return IRInterpreter(built.module, layout=built.layout,
                             dispatch=dispatch, max_steps=max_steps,
                             fault_model=fault_model)
    return AsmMachine(built.compiled, built.layout, dispatch=dispatch,
                      max_steps=max_steps, fault_model=fault_model)


class TestValidation:
    """Satellite: typos raise loudly instead of silently defaulting."""

    def test_none_means_seu(self):
        assert validate_fault_model(None) == "seu"

    @pytest.mark.parametrize("fm", FAULT_MODELS)
    def test_members_pass_through(self, fm):
        assert validate_fault_model(fm) == fm

    @pytest.mark.parametrize("bad", ["set ", "CF", "bitflip", "seu2", ""])
    def test_typos_raise(self, bad):
        with pytest.raises(CampaignError, match="unknown fault model"):
            validate_fault_model(bad)

    def test_error_names_valid_models(self):
        with pytest.raises(CampaignError, match="'seu', 'set', 'cf'"):
            validate_fault_model("sue")

    def test_campaigns_validate(self, built):
        cfg = CampaignConfig(n_campaigns=4, seed=1)
        with pytest.raises(CampaignError, match="unknown fault model"):
            run_ir_campaign(built.module, cfg, built.layout,
                            fault_model="transient")
        with pytest.raises(CampaignError, match="unknown fault model"):
            run_asm_campaign(built.compiled, built.layout, cfg,
                             fault_model="cf ")

    def test_dispatch_typo_raises(self):
        with pytest.raises(CampaignError, match="codgen"):
            engine_dispatch("codgen")

    def test_dispatch_env_typo_raises(self, monkeypatch):
        monkeypatch.setenv("REPRO_DISPATCH", "decodedd")
        with pytest.raises(CampaignError, match="decodedd"):
            engine_dispatch()

    def test_injection_suite_rejects_bad_dispatch(self, built):
        with pytest.raises(CampaignError):
            run_injection_suite(
                "ir", [(0, 0, 0)], 10_000, module=built.module,
                layout=built.layout, emit=lambda t, r: None,
                dispatch="naiive",
            )

    def test_bit_ranges(self):
        assert fault_bit_range("seu") == 64
        assert fault_bit_range("set") == 64
        assert fault_bit_range("cf") == CF_BIT_RANGE


class TestCFCPass:
    """Signature-based control-flow checking: semantics preserved,
    control-flow faults detected, weakenings weaken."""

    def test_golden_runs_clean_both_layers(self, built, built_cfc):
        ref = IRInterpreter(built.module, layout=built.layout).run()
        ir = IRInterpreter(built_cfc.module, layout=built_cfc.layout).run()
        asm = AsmMachine(built_cfc.compiled, built_cfc.layout).run()
        assert ir.status is RunStatus.OK
        assert asm.status is RunStatus.OK
        assert ir.output == ref.output
        assert asm.output == ref.output

    def test_build_records_cfc_info(self, built_cfc):
        info = built_cfc.cfc_info
        assert info is not None
        assert info.checks > 0 and info.edge_stores > 0
        assert SIG_GLOBAL in built_cfc.module.globals
        doc = info.to_doc()
        assert doc["checks"] == info.checks

    def test_reapplication_rejected(self, built_cfc):
        with pytest.raises(IRError, match="already"):
            apply_cfc(built_cfc.module)

    def test_unknown_weakness_rejected(self, built):
        with pytest.raises(IRError, match="weakness"):
            build_from_source(SRC, name="fm_badweak", cfc=True,
                              cfc_weakness="no-such-weakness")

    def test_cfc_detects_cf_faults_unprotected_does_not(self, built,
                                                        built_cfc):
        cfg = CampaignConfig(n_campaigns=60, seed=13)
        plain = run_ir_campaign(built.module, cfg, built.layout,
                                fault_model="cf")
        cfc = run_ir_campaign(built_cfc.module, cfg, built_cfc.layout,
                              fault_model="cf")
        assert plain.counts.get(Outcome.DETECTED, 0) == 0
        assert cfc.counts.get(Outcome.DETECTED, 0) > 0

    def test_composes_with_duplication(self, built_dup_cfc):
        assert built_dup_cfc.protection is not None
        assert built_dup_cfc.cfc_info is not None
        cfg = CampaignConfig(n_campaigns=60, seed=13)
        for fm in FAULT_MODELS:
            res = run_asm_campaign(built_dup_cfc.compiled,
                                   built_dup_cfc.layout, cfg,
                                   fault_model=fm)
            assert res.counts.get(Outcome.DETECTED, 0) > 0, fm

    def test_dropped_update_false_detects_on_golden(self):
        weak = build_from_source(SRC, name="fm_drop", cfc=True,
                                 cfc_weakness="dropped-update")
        res = IRInterpreter(weak.module, layout=weak.layout).run()
        assert res.status is not RunStatus.OK

    def test_constant_signature_is_golden_clean_but_blind(self, built_cfc):
        weak = build_from_source(SRC, name="fm_const", cfc=True,
                                 cfc_weakness="constant-signature")
        assert IRInterpreter(weak.module,
                             layout=weak.layout).run().status is RunStatus.OK
        cfg = CampaignConfig(n_campaigns=60, seed=13)
        strong = run_ir_campaign(built_cfc.module, cfg, built_cfc.layout,
                                 fault_model="cf")
        blind = run_ir_campaign(weak.module, cfg, weak.layout,
                                fault_model="cf")
        assert blind.counts.get(Outcome.DETECTED, 0) < \
            strong.counts.get(Outcome.DETECTED, 0)

    def test_weakness_catalog_is_closed(self):
        assert set(CFC_WEAKNESSES) == {
            "dropped-update", "unchecked-backedge", "constant-signature"}


class TestTierEquivalence:
    """SET and CF faults must be bit-identical across all three
    dispatch tiers, with naive as the oracle — same guarantee the
    equivalence suite proves for SEU."""

    @pytest.mark.parametrize("fault_model", ["set", "cf"])
    @pytest.mark.parametrize("layer", ["ir", "asm"])
    def test_injections_identical_across_tiers(self, built_dup_cfc,
                                               layer, fault_model):
        golden = _sim(built_dup_cfc, layer, "naive", fault_model).run()
        n_inj = golden.dyn_injectable
        assert n_inj > 0
        if fault_model == "cf":
            sites = range(n_inj)
        else:
            sites = sorted({0, n_inj // 3, n_inj // 2, n_inj - 1})
        bits = (0, 17, 63) if fault_model == "set" else (1, 977, 123_456)
        for idx in sites:
            for bit in bits:
                runs = [
                    _sim(built_dup_cfc, layer, d, fault_model).run(
                        inject_index=idx, inject_bit=bit)
                    for d in ("naive", "decoded", "codegen")
                ]
                assert _res_sig(runs[0]) == _res_sig(runs[1]), \
                    f"{layer}/{fault_model} decoded idx={idx} bit={bit}"
                assert _res_sig(runs[0]) == _res_sig(runs[2]), \
                    f"{layer}/{fault_model} codegen idx={idx} bit={bit}"

    @pytest.mark.parametrize("layer", ["ir", "asm"])
    def test_cf_resume_at_every_site(self, built_dup_cfc, layer):
        """Both snapshot tiers resume a cf injection from the checkpoint
        right before each site, bit-identically to a full naive run."""
        n_inj = _sim(built_dup_cfc, layer, "naive", "cf").run() \
            .dyn_injectable
        snaps = {}
        _sim(built_dup_cfc, layer, "decoded", "cf").run(
            checkpoints=list(range(n_inj)), checkpoint_cb=snaps.__setitem__)
        assert sorted(snaps) == list(range(n_inj))
        replayers = {d: _sim(built_dup_cfc, layer, d, "cf")
                     for d in ("decoded", "codegen")}
        for idx in range(n_inj):
            bit = (1, 977, 123_456)[idx % 3]
            full = _sim(built_dup_cfc, layer, "naive", "cf").run(
                inject_index=idx, inject_bit=bit)
            for d, sim in replayers.items():
                res = sim.run(resume_from=snaps[idx], inject_index=idx,
                              inject_bit=bit)
                assert _res_sig(res) == _res_sig(full), \
                    f"{layer}/cf {d} resume idx={idx} bit={bit}"

    def test_cf_injectable_universe_is_smaller(self, built):
        seu = _sim(built, "ir", "naive", "seu").run()
        cf = _sim(built, "ir", "naive", "cf").run()
        assert 0 < cf.dyn_injectable < seu.dyn_injectable
        assert cf.dyn_total == seu.dyn_total


class TestJournalCompat:
    """Rows grow a fault_model column; legacy journals must still load
    and resume bit-identically."""

    def test_key_ignores_default_fault_model(self):
        a = WorkSpec(source=SRC, layer="ir")
        b = WorkSpec(source=SRC, layer="ir", fault_model="seu", cfc=False)
        cfg = CampaignConfig(n_campaigns=8, seed=2)
        assert campaign_key(a, cfg) == campaign_key(b, cfg)
        c = WorkSpec(source=SRC, layer="ir", fault_model="cf")
        d = WorkSpec(source=SRC, layer="ir", cfc=True)
        assert campaign_key(c, cfg) != campaign_key(a, cfg)
        assert campaign_key(d, cfg) != campaign_key(a, cfg)

    def test_rows_carry_fault_model(self, tmp_path):
        spec = WorkSpec(source=SRC, layer="ir", fault_model="cf", cfc=True)
        cfg = CampaignConfig(n_campaigns=8, seed=2)
        path = tmp_path / "cf.jsonl"
        run_parallel_campaign(spec, cfg, workers=1,
                              journal_path=str(path))
        rows = [json.loads(l) for l in path.read_text().splitlines()]
        body = [r for r in rows if r["ev"] == "row"]
        assert len(body) == 8
        for r in body:
            assert len(r["row"]) == len(ROW_FIELDS)
            assert r["row"][-2] == "cf"      # fault_model precedes pruned

    def test_legacy_nine_field_rows_resume_identically(self, tmp_path):
        spec = WorkSpec(source=SRC, layer="asm")
        cfg = CampaignConfig(n_campaigns=10, seed=6)
        path = tmp_path / "j.jsonl"
        clean = run_parallel_campaign(spec, cfg, workers=1,
                                      journal_path=str(path))
        # rewrite the journal as a v1 file: strip the fault_model and
        # pruned columns (v1 rows predate both)
        lines = []
        for line in path.read_text().splitlines():
            doc = json.loads(line)
            doc.pop("c", None)     # v1 journals predate per-row CRCs
            if doc["ev"] == "header":
                doc["version"] = 1
            else:
                assert doc["row"][-2:] == ["seu", 0]
                doc["row"] = doc["row"][:-2]
            lines.append(json.dumps(doc))
        legacy = tmp_path / "legacy.jsonl"
        legacy.write_text("\n".join(lines[:6]) + "\n")   # partial: resumes
        resumed = run_parallel_campaign(spec, cfg, workers=1,
                                        journal_path=str(legacy))
        assert campaign_signature(resumed) == campaign_signature(clean)

    def test_journal_reader_pads_legacy_rows(self, tmp_path):
        spec = WorkSpec(source=SRC, layer="ir")
        cfg = CampaignConfig(n_campaigns=6, seed=3)
        path = tmp_path / "j.jsonl"
        run_parallel_campaign(spec, cfg, workers=1, journal_path=str(path))
        _, completed = InjectionJournal._read(str(path))
        trimmed = {i: row[:-1] for i, row in completed.items()}
        legacy = tmp_path / "legacy.jsonl"
        with open(legacy, "w") as fh:
            fh.write(json.dumps({"ev": "header", "version": 1,
                                 "key": campaign_key(spec, cfg)}) + "\n")
            for i, row in trimmed.items():
                fh.write(json.dumps({"ev": "row", "i": i,
                                     "row": list(row)}) + "\n")
        _, reread = InjectionJournal._read(str(legacy))
        assert reread == completed     # padded back to "seu"

    def test_record_from_row_pads_legacy(self, tmp_path):
        spec = WorkSpec(source=SRC, layer="ir")
        cfg = CampaignConfig(n_campaigns=6, seed=3)
        path = tmp_path / "j.jsonl"
        res = run_parallel_campaign(spec, cfg, workers=1,
                                    journal_path=str(path))
        _, completed = InjectionJournal._read(str(path))
        for i, row in completed.items():
            _, new = record_from_row(row, res.golden_output)
            _, old = record_from_row(row[:-1], res.golden_output)
            assert dataclasses.astuple(new) == dataclasses.astuple(old)
            assert new.fault_model == "seu"

    def test_cf_resume_is_bit_identical(self, tmp_path):
        spec = WorkSpec(source=SRC, layer="ir", fault_model="cf")
        cfg = CampaignConfig(n_campaigns=10, seed=4)
        full = tmp_path / "full.jsonl"
        clean = run_parallel_campaign(spec, cfg, workers=1,
                                      journal_path=str(full))
        lines = full.read_text().splitlines(keepends=True)
        torn = tmp_path / "torn.jsonl"
        torn.write_text("".join(lines[:5]) + lines[5][:8])
        resumed = run_parallel_campaign(spec, cfg, workers=1,
                                        journal_path=str(torn))
        assert campaign_signature(resumed) == campaign_signature(clean)
        recs = [dataclasses.astuple(r) for r in resumed.records]
        assert recs == [dataclasses.astuple(r) for r in clean.records]
        assert all(r.fault_model == "cf" for r in resumed.records)


class TestJournalV3Compat:
    """Rows grow a ``pruned`` column (journal v3); v2 journals without
    it must still load and resume bit-identically — the exact mirror of
    the v1 -> v2 fault-model-column pattern above."""

    def test_key_ignores_default_prune_flags(self):
        spec = WorkSpec(source=SRC, layer="ir")
        plain = CampaignConfig(n_campaigns=8, seed=2)
        explicit = CampaignConfig(n_campaigns=8, seed=2,
                                  prune=False, stratify=False)
        assert campaign_key(spec, plain) == campaign_key(spec, explicit)
        pruned = CampaignConfig(n_campaigns=8, seed=2, prune=True)
        assert campaign_key(spec, pruned) != campaign_key(spec, plain)

    def test_rows_carry_pruned_flag(self, tmp_path):
        spec = WorkSpec(source=SRC, layer="asm", level=100)
        cfg = CampaignConfig(n_campaigns=24, seed=5, prune=True)
        path = tmp_path / "p.jsonl"
        res = run_parallel_campaign(spec, cfg, workers=1,
                                    journal_path=str(path))
        rows = [json.loads(l) for l in path.read_text().splitlines()]
        header = rows[0]
        assert header["ev"] == "header" and header["version"] == 3
        body = [r for r in rows if r["ev"] == "row"]
        assert len(body) == 24
        assert all(len(r["row"]) == len(ROW_FIELDS) for r in body)
        statically = [r for r in body if r["row"][-1] == 1]
        assert len(statically) == res.summary()["pruned"] > 0
        for r in statically:
            assert r["row"][2] == "ok"
            assert r["row"][3] == res.golden_output

    def test_v2_ten_field_rows_resume_identically(self, tmp_path):
        spec = WorkSpec(source=SRC, layer="asm")
        cfg = CampaignConfig(n_campaigns=10, seed=6)
        path = tmp_path / "j.jsonl"
        clean = run_parallel_campaign(spec, cfg, workers=1,
                                      journal_path=str(path))
        # rewrite the journal as a v2 file: strip the pruned column
        lines = []
        for line in path.read_text().splitlines():
            doc = json.loads(line)
            doc.pop("c", None)
            if doc["ev"] == "header":
                doc["version"] = 2
            else:
                assert doc["row"][-1] == 0
                doc["row"] = doc["row"][:-1]
            lines.append(json.dumps(doc))
        v2 = tmp_path / "v2.jsonl"
        v2.write_text("\n".join(lines[:6]) + "\n")       # partial: resumes
        resumed = run_parallel_campaign(spec, cfg, workers=1,
                                        journal_path=str(v2))
        assert campaign_signature(resumed) == campaign_signature(clean)

    def test_journal_reader_pads_v2_rows(self, tmp_path):
        spec = WorkSpec(source=SRC, layer="ir")
        cfg = CampaignConfig(n_campaigns=6, seed=3)
        path = tmp_path / "j.jsonl"
        run_parallel_campaign(spec, cfg, workers=1, journal_path=str(path))
        _, completed = InjectionJournal._read(str(path))
        trimmed = {i: row[:-1] for i, row in completed.items()}
        v2 = tmp_path / "v2.jsonl"
        with open(v2, "w") as fh:
            fh.write(json.dumps({"ev": "header", "version": 2,
                                 "key": campaign_key(spec, cfg)}) + "\n")
            for i, row in trimmed.items():
                fh.write(json.dumps({"ev": "row", "i": i,
                                     "row": list(row)}) + "\n")
        _, reread = InjectionJournal._read(str(v2))
        assert reread == completed     # padded back to pruned=0

    def test_record_from_row_pads_v2(self, tmp_path):
        spec = WorkSpec(source=SRC, layer="ir")
        cfg = CampaignConfig(n_campaigns=6, seed=3)
        path = tmp_path / "j.jsonl"
        res = run_parallel_campaign(spec, cfg, workers=1,
                                    journal_path=str(path))
        _, completed = InjectionJournal._read(str(path))
        for i, row in completed.items():
            outcome, new = record_from_row(row, res.golden_output)
            old_outcome, old = record_from_row(row[:-1], res.golden_output)
            assert outcome is old_outcome
            assert dataclasses.astuple(new) == dataclasses.astuple(old)
            assert outcome is not Outcome.PRUNE_BENIGN

    def test_pruned_rows_classify_as_prune_benign(self, tmp_path):
        spec = WorkSpec(source=SRC, layer="asm", level=100)
        cfg = CampaignConfig(n_campaigns=24, seed=5, prune=True)
        path = tmp_path / "p.jsonl"
        res = run_parallel_campaign(spec, cfg, workers=1,
                                    journal_path=str(path))
        _, completed = InjectionJournal._read(str(path))
        pruned = [row for row in completed.values() if row[-1] == 1]
        assert len(pruned) == res.counts[Outcome.PRUNE_BENIGN] > 0
        for row in pruned:
            outcome, rec = record_from_row(row, res.golden_output)
            assert outcome is Outcome.PRUNE_BENIGN
            assert rec.outcome is Outcome.PRUNE_BENIGN

    def test_pruned_resume_is_bit_identical(self, tmp_path):
        spec = WorkSpec(source=SRC, layer="asm", level=100)
        cfg = CampaignConfig(n_campaigns=24, seed=5, prune=True)
        full = tmp_path / "full.jsonl"
        clean = run_parallel_campaign(spec, cfg, workers=1,
                                      journal_path=str(full))
        lines = full.read_text().splitlines(keepends=True)
        torn = tmp_path / "torn.jsonl"
        torn.write_text("".join(lines[:8]) + lines[8][:8])
        resumed = run_parallel_campaign(spec, cfg, workers=1,
                                        journal_path=str(torn))
        assert campaign_signature(resumed) == campaign_signature(clean)
        recs = [dataclasses.astuple(r) for r in resumed.records]
        assert recs == [dataclasses.astuple(r) for r in clean.records]
        assert resumed.counts[Outcome.PRUNE_BENIGN] == \
            clean.counts[Outcome.PRUNE_BENIGN] > 0


class TestLockstepForensics:
    """The differ names the corrupted edge for control-flow faults."""

    def test_cf_edge_named(self, built):
        golden = _sim(built, "ir", "naive", "cf").run()
        found = None
        for idx in range(min(golden.dyn_injectable, 6)):
            report = lockstep_built(built, inject_layer="ir",
                                    inject_index=idx, inject_bit=977,
                                    fault_model="cf")
            assert "fault model cf" in report.narrate()
            if report.cf_edge is not None:
                found = report
                break
        assert found is not None
        assert found.cf_edge["layer"] == "ir"
        assert "corrupted edge" in found.narrate()
        assert "redirected to" in found.narrate()

    def test_asm_cf_edge_named(self, built):
        golden = _sim(built, "asm", "naive", "cf").run()
        found = None
        for idx in range(min(golden.dyn_injectable, 6)):
            report = lockstep_built(built, inject_layer="asm",
                                    inject_index=idx, inject_bit=31,
                                    fault_model="cf")
            if report.cf_edge is not None:
                found = report
                break
        assert found is not None
        assert found.cf_edge["layer"] == "asm"
        assert "intended pc" in found.narrate()


class TestChaosMultiModel:
    def test_sweep_covers_all_models_without_escapes(self):
        report = chaos_sweep(benchmarks=["crc32"], scale="tiny", n=4,
                             seed=3)
        assert report.fault_models == FAULT_MODELS
        assert report.escapes == [] and report.divergences == []
        assert report.ok
        # 1 benchmark x 2 layers x 3 models x 3 tiers x 4 injections
        assert report.injections == 72
        assert report.classified == 72

    def test_restricted_model_list(self):
        report = chaos_sweep(benchmarks=["crc32"], scale="tiny", n=3,
                             seed=3, fault_models=["cf"])
        assert report.fault_models == ("cf",)
        assert report.ok

    def test_bad_model_rejected(self):
        with pytest.raises(CampaignError, match="unknown fault model"):
            chaos_sweep(benchmarks=["crc32"], scale="tiny", n=2,
                        fault_models=["cff"])
