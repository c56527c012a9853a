"""Tests for fault-injection outcomes and campaign orchestration."""

import pytest

from repro.errors import CampaignError
from repro.execresult import ExecResult, RunStatus
from repro.fi.campaign import (
    CampaignConfig,
    run_asm_campaign,
    run_ir_campaign,
)
from repro.fi.outcomes import Outcome, classify_outcome
from repro.frontend.codegen import compile_source

from tests.helpers import compile_and_build

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


def _result(status, output="x"):
    return ExecResult(status=status, output=output, dyn_total=1,
                      dyn_injectable=1)


class TestOutcomeClassification:
    def test_benign(self):
        assert classify_outcome(_result(RunStatus.OK, "g"), "g") is Outcome.BENIGN

    def test_sdc(self):
        assert classify_outcome(_result(RunStatus.OK, "bad"), "g") is Outcome.SDC

    def test_due(self):
        assert classify_outcome(_result(RunStatus.TRAP), "g") is Outcome.DUE

    def test_detected(self):
        assert classify_outcome(_result(RunStatus.DETECTED), "g") is Outcome.DETECTED


class TestCampaignConfigValidation:
    def test_zero_campaigns_rejected(self):
        with pytest.raises(CampaignError, match="n_campaigns"):
            CampaignConfig(n_campaigns=0)

    def test_negative_campaigns_rejected(self):
        with pytest.raises(CampaignError, match="n_campaigns"):
            CampaignConfig(n_campaigns=-5)

    def test_negative_seed_rejected(self):
        with pytest.raises(CampaignError, match="seed"):
            CampaignConfig(seed=-1)

    def test_bad_max_steps_factor_rejected(self):
        with pytest.raises(CampaignError, match="max_steps_factor"):
            CampaignConfig(max_steps_factor=0)

    def test_bad_min_max_steps_rejected(self):
        with pytest.raises(CampaignError, match="min_max_steps"):
            CampaignConfig(min_max_steps=0)

    def test_valid_config_accepted(self):
        cfg = CampaignConfig(n_campaigns=1, seed=0, max_steps_factor=1,
                             min_max_steps=1)
        assert cfg.n_campaigns == 1


class TestIrCampaign:
    def test_counts_sum_to_n(self):
        module = compile_source(SRC)
        res = run_ir_campaign(module, CampaignConfig(n_campaigns=50, seed=3))
        assert sum(res.counts.values()) == 50
        assert len(res.records) == 50
        assert res.layer == "ir"

    def test_probabilities_sum_to_one(self):
        module = compile_source(SRC)
        res = run_ir_campaign(module, CampaignConfig(n_campaigns=40, seed=3))
        s = res.summary()
        rates = [s[k] for k in ("sdc", "due", "detected", "benign")]
        assert abs(sum(rates) - 1.0) < 1e-9
        for k in ("sdc", "due", "detected", "benign"):
            lo, hi = s[f"{k}_ci"]
            assert 0.0 <= lo <= s[k] <= hi <= 1.0

    def test_deterministic_given_seed(self):
        a = run_ir_campaign(compile_source(SRC),
                            CampaignConfig(n_campaigns=30, seed=11))
        b = run_ir_campaign(compile_source(SRC),
                            CampaignConfig(n_campaigns=30, seed=11))
        assert a.counts == b.counts
        assert [(r.dyn_index, r.bit, r.outcome) for r in a.records] == \
               [(r.dyn_index, r.bit, r.outcome) for r in b.records]

    def test_seed_changes_samples(self):
        a = run_ir_campaign(compile_source(SRC),
                            CampaignConfig(n_campaigns=30, seed=1))
        b = run_ir_campaign(compile_source(SRC),
                            CampaignConfig(n_campaigns=30, seed=2))
        assert [(r.dyn_index, r.bit) for r in a.records] != \
               [(r.dyn_index, r.bit) for r in b.records]

    def test_records_have_attribution(self):
        module = compile_source(SRC)
        res = run_ir_campaign(module, CampaignConfig(n_campaigns=25, seed=5))
        iids = {i.iid for i in module.instructions()}
        for rec in res.records:
            assert rec.iid in iids

    def test_sdc_records_helper(self):
        module = compile_source(SRC)
        res = run_ir_campaign(module, CampaignConfig(n_campaigns=60, seed=5))
        assert all(r.outcome is Outcome.SDC for r in res.sdc_records())
        assert len(res.sdc_records()) == res.counts[Outcome.SDC]

    def test_broken_golden_rejected(self):
        module = compile_source(
            "int main() { int z = 0; print(1 / z); return 0; }"
        )
        with pytest.raises(CampaignError):
            run_ir_campaign(module, CampaignConfig(n_campaigns=5))


class TestStratifiedJournal:
    def test_journal_rejected_before_any_work(self, tmp_path):
        # a stratified campaign cannot checkpoint; saying so beats
        # returning a result and leaving no journal to resume
        from repro.fi.parallel import WorkSpec, run_parallel_campaign

        path = tmp_path / "campaign.jsonl"
        with pytest.raises(CampaignError, match="cannot be journaled"):
            run_parallel_campaign(
                WorkSpec(source=SRC, layer="asm"),
                CampaignConfig(n_campaigns=60, seed=1, stratify=True),
                workers=1, journal_path=str(path))
        assert not path.exists()


class TestAsmCampaign:
    def test_counts_and_metadata(self):
        _, layout, _, compiled = compile_and_build(SRC)
        res = run_asm_campaign(compiled, layout,
                               CampaignConfig(n_campaigns=50, seed=3))
        assert sum(res.counts.values()) == 50
        assert res.layer == "asm"
        for rec in res.records:
            assert rec.asm_index is not None
            assert rec.asm_role
            assert rec.asm_opcode

    def test_deterministic(self):
        _, layout, _, compiled = compile_and_build(SRC)
        cfg = CampaignConfig(n_campaigns=30, seed=9)
        a = run_asm_campaign(compiled, layout, cfg)
        b = run_asm_campaign(compiled, layout, cfg)
        assert a.counts == b.counts

    def test_asm_campaign_finds_sdcs(self):
        _, layout, _, compiled = compile_and_build(SRC)
        res = run_asm_campaign(compiled, layout,
                               CampaignConfig(n_campaigns=120, seed=3))
        assert res.counts[Outcome.SDC] > 0

    def test_due_records_carry_trap_kind(self):
        _, layout, _, compiled = compile_and_build(SRC)
        res = run_asm_campaign(compiled, layout,
                               CampaignConfig(n_campaigns=120, seed=3))
        dues = [r for r in res.records if r.outcome is Outcome.DUE]
        assert all(r.trap_kind for r in dues)
