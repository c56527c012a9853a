"""Tests for fault forensics (injection replay + narration)."""

import pytest

from repro.analysis.forensics import (
    FaultStory,
    explain_injection,
    first_divergence,
)
from repro.analysis.rootcause import Penetration
from repro.fi.campaign import (
    CampaignConfig,
    run_asm_campaign,
    run_ir_campaign,
)
from repro.fi.outcomes import Outcome
from repro.pipeline import build


class TestFirstDivergence:
    def test_equal(self):
        assert first_divergence("a\nb\n", "a\nb\n") is None

    def test_first_line(self):
        assert first_divergence("a\nb", "x\nb") == 0

    def test_middle(self):
        assert first_divergence("a\nb\nc", "a\nx\nc") == 1

    def test_truncated(self):
        assert first_divergence("a\nb\nc", "a\nb") == 2


@pytest.fixture(scope="module")
def protected_campaign():
    built = build("pathfinder", scale="tiny", level=100)
    campaign = run_asm_campaign(
        built.compiled, built.layout, CampaignConfig(n_campaigns=250, seed=3)
    )
    return built, campaign


@pytest.fixture(scope="module")
def dup100_crc32():
    """crc32/tiny at dup-100, without and with control-flow checking."""
    return {cfc: build("crc32", scale="tiny", level=100, cfc=cfc)
            for cfc in (False, True)}


class TestExplainInjection:
    def test_sdc_story_complete(self, protected_campaign):
        built, campaign = protected_campaign
        sdcs = campaign.sdc_records()
        assert sdcs, "need at least one escape to explain"
        story = explain_injection(
            sdcs[0], built.module, built.layout,
            compiled=built.compiled, asm=built.asm,
            dup_info=built.protection.dup_info,
        )
        assert story.outcome is Outcome.SDC
        assert story.site != "<not injected>"
        assert story.penetration is not None
        assert story.diverged_at_line is not None
        text = story.narrate()
        assert "SDC" in text
        assert "root cause" in text
        assert "diverges" in text

    @pytest.mark.parametrize("layer", ["ir", "asm"])
    @pytest.mark.parametrize("fault_model", ["seu", "set", "cf"])
    def test_replay_matches_campaign_outcome(self, dup100_crc32,
                                             fault_model, layer):
        # every record replays under its own fault model: a SET or cf
        # record replayed as SEU (or a cf index read as a value site)
        # comes out differently
        built = dup100_crc32[fault_model == "cf"]
        config = CampaignConfig(n_campaigns=80, seed=3)
        if layer == "ir":
            campaign = run_ir_campaign(built.module, config, built.layout,
                                       fault_model=fault_model)
        else:
            campaign = run_asm_campaign(built.compiled, built.layout,
                                        config, fault_model=fault_model)
        for record in campaign.records:
            assert record.fault_model == fault_model
            story = explain_injection(
                record, built.module, built.layout,
                compiled=built.compiled, asm=built.asm,
                dup_info=built.protection.dup_info, layer=layer,
            )
            assert story.outcome is record.outcome

    def test_due_story(self, protected_campaign):
        built, campaign = protected_campaign
        dues = [r for r in campaign.records if r.outcome is Outcome.DUE]
        if not dues:
            pytest.skip("no DUE in this campaign")
        story = explain_injection(
            dues[0], built.module, built.layout, compiled=built.compiled,
        )
        assert story.outcome is Outcome.DUE
        assert story.trap_kind
        assert "trap" in story.narrate()

    def test_ir_layer_story(self):
        built = build("crc32", scale="tiny")
        campaign = run_ir_campaign(
            built.module, CampaignConfig(n_campaigns=80, seed=4),
            built.layout,
        )
        record = campaign.records[0]
        story = explain_injection(
            record, built.module, built.layout, layer="ir",
        )
        assert story.layer == "ir"
        assert story.site

    def test_asm_needs_compiled(self, protected_campaign):
        built, campaign = protected_campaign
        with pytest.raises(ValueError):
            explain_injection(
                campaign.records[0], built.module, built.layout
            )
