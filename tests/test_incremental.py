"""Compositional incremental campaigns (DESIGN §15).

Covers the section partitioner (exactly-once dynamic site coverage,
outside-edit hash insensitivity), the exhaustive composition oracle
(composed per-section outcome counts bit-match a naive whole-program
exhaustive campaign at every engine tier and fault model), the
journal-backed profile store (cache hits, torn-tail resume, schema
guard), the composition statistics, and the planner fast path.
"""

from __future__ import annotations

import os
from collections import Counter

import pytest
from hypothesis import HealthCheck, given, settings

from repro.errors import CampaignError
from repro.faultmodel import FAULT_MODELS
from repro.fi.campaign import CampaignConfig
from repro.fi.compose import (
    SectionProfileStore,
    _allocate,
    cached_site_map,
    profile_key,
    run_incremental_campaign,
)
from repro.fi.outcomes import Outcome, classify_outcome
from repro.fi.sections import map_sites, module_env_hash, partition_ir
from repro.fi.stats import composed_interval, wilson_interval
from repro.frontend.codegen import compile_source
from repro.interp.interpreter import IRInterpreter
from repro.machine.machine import AsmMachine
from repro.pipeline import build_from_source
from repro.protection.planner import profile_module
from repro.testgen.minic import GenConfig
from repro.testgen.strategies import minic_sources

_SETTINGS = settings(
    max_examples=8,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)

#: tiny generator config so property examples stay fast
_SMALL = GenConfig(
    n_global_scalars=(1, 2), n_global_arrays=(1, 1), array_pow2=(1, 2),
    n_functions=(1, 2), n_main_stmts=(2, 4), n_func_stmts=(1, 2),
    max_block_depth=1, max_trip=3, max_expr_depth=2,
)

#: two functions, short loops — small enough for exhaustive campaigns
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

#: same `scale` function, different main — the outside-edit pair
SRC_EDITED = SRC.replace("total = total + scale(i);",
                         "total = total + scale(i) + 1;")


def _build(src=SRC):
    return build_from_source(src, name="inc-test")


# -- partitioning: exactly-once coverage --------------------------------


class TestPartitioning:
    @pytest.mark.parametrize("layer", ["ir", "asm"])
    @pytest.mark.parametrize("fm", FAULT_MODELS)
    def test_every_site_exactly_once(self, layer, fm):
        built = _build()
        sm = map_sites(built, layer, fm)
        all_sites = [i for sec in sm.dyn_indices for i in sec]
        assert sorted(all_sites) == list(range(sm.golden_dyn_injectable))
        assert len(all_sites) == len(set(all_sites))

    @settings(_SETTINGS)
    @given(minic_sources(_SMALL))
    def test_every_site_exactly_once_generated(self, src):
        built = build_from_source(src, name="gen")
        for layer in ("ir", "asm"):
            for fm in FAULT_MODELS:
                sm = map_sites(built, layer, fm)
                flat = [i for sec in sm.dyn_indices for i in sec]
                assert sorted(flat) == \
                    list(range(sm.golden_dyn_injectable)), (layer, fm)

    def test_ir_hash_insensitive_to_outside_edit(self):
        a, b = _build(SRC), _build(SRC_EDITED)
        ha = {s.name: s.content_hash for s in partition_ir(a.module)}
        hb = {s.name: s.content_hash for s in partition_ir(b.module)}
        assert ha["scale"] == hb["scale"]
        assert ha["main"] != hb["main"]
        assert module_env_hash(a.module) == module_env_hash(b.module)

    def test_asm_hash_insensitive_to_outside_edit(self):
        from repro.fi.sections import partition_asm

        a, b = _build(SRC), _build(SRC_EDITED)
        ha = {s.name: s.content_hash
              for s in partition_asm(a.compiled)}
        hb = {s.name: s.content_hash
              for s in partition_asm(b.compiled)}
        scale_a = {n: h for n, h in ha.items() if n.startswith("scale#")}
        scale_b = {n: h for n, h in hb.items() if n.startswith("scale#")}
        assert scale_a and scale_a == scale_b
        assert ha != hb      # main's regions did change

    @settings(_SETTINGS)
    @given(minic_sources(_SMALL))
    def test_generated_hashes_are_stable(self, src):
        a = build_from_source(src, name="gen")
        b = build_from_source(src, name="gen")
        ha = [s.content_hash for s in partition_ir(a.module)]
        hb = [s.content_hash for s in partition_ir(b.module)]
        assert ha == hb


# -- the exhaustive composition oracle ----------------------------------


class TestExhaustiveOracle:
    BITS = (0, 1, 63)

    @pytest.mark.parametrize("fm", FAULT_MODELS)
    @pytest.mark.parametrize("layer", ["ir", "asm"])
    def test_composed_bit_matches_whole_program(self, layer, fm):
        """Per-section composed outcome counts == a naive whole-program
        exhaustive campaign over the same (site, bit) pairs, at both
        engine tiers (naive is the reference side — all three dispatch
        tiers participate)."""
        built = _build()
        sm = map_sites(built, layer, fm)
        max_steps = max(20_000, sm.golden_dyn_total * 4)

        reference = {}
        for sec in sm.sections:
            ref = Counter()
            for idx in sm.dyn_indices[sec.index]:
                for bit in self.BITS:
                    if layer == "ir":
                        res = IRInterpreter(
                            built.module, layout=built.layout,
                            max_steps=max_steps, dispatch="naive",
                            fault_model=fm,
                        ).run(inject_index=idx, inject_bit=bit)
                    else:
                        res = AsmMachine(
                            built.compiled, layout=built.layout,
                            max_steps=max_steps, dispatch="naive",
                            fault_model=fm,
                        ).run(inject_index=idx, inject_bit=bit)
                    ref[classify_outcome(res, sm.golden_output)] += 1
            reference[sec.name] = dict(ref)

        for tier in ("decoded", "codegen"):
            composed = run_incremental_campaign(
                built, layer, CampaignConfig(n_campaigns=1), None,
                fault_model=fm, dispatch=tier, exhaustive_bits=self.BITS,
            )
            for so in composed.sections:
                got = {o: c for o, c in so.profile.counts.items() if c}
                assert got == reference[so.section.name], \
                    (layer, fm, tier, so.section.name)


# -- the profile store --------------------------------------------------


class TestStore:
    def test_warm_run_simulates_nothing(self, tmp_path):
        built = _build()
        path = str(tmp_path / "store.jsonl")
        cfg = CampaignConfig(n_campaigns=40, seed=3)
        with SectionProfileStore(path) as store:
            cold = run_incremental_campaign(built, "ir", cfg, store)
        with SectionProfileStore(path) as store:
            warm = run_incremental_campaign(built, "ir", cfg, store)
        assert cold.simulated > 0
        assert warm.simulated == 0
        assert warm.cache_hits == len(warm.sections)
        assert cold.counts == warm.counts

    def test_edit_resimulates_only_changed_section(self, tmp_path):
        path = str(tmp_path / "store.jsonl")
        cfg = CampaignConfig(n_campaigns=40, seed=3)
        with SectionProfileStore(path) as store:
            run_incremental_campaign(_build(SRC), "ir", cfg, store)
        with SectionProfileStore(path) as store:
            after = run_incremental_campaign(
                _build(SRC_EDITED), "ir", cfg, store)
        by_name = {s.section.name: s for s in after.sections}
        assert by_name["scale"].cached
        assert by_name["scale"].simulated == 0
        assert not by_name["main"].cached
        assert by_name["main"].simulated > 0

    def test_torn_tail_and_uncommitted_rows_resume(self, tmp_path):
        """Rows fsync'd before a kill are replayed, not re-simulated;
        a torn trailing line is discarded; the resumed result matches
        an uninterrupted run bit-for-bit."""
        built = _build()
        path = str(tmp_path / "store.jsonl")
        cfg = CampaignConfig(n_campaigns=40, seed=3)
        with SectionProfileStore(path) as store:
            full = run_incremental_campaign(built, "ir", cfg, store)

        lines = open(path).read().splitlines(keepends=True)
        rows = [ln for ln in lines if '"ev": "row"' in ln]
        # drop every profile commit, keep half the rows, tear the tail
        kept = [ln for ln in lines if '"ev": "profile"' not in ln]
        kept = kept[: 1 + len(rows) // 2]
        kept.append('{"ev": "row", "k": "torn')      # no newline, cut off
        with open(path, "w") as fh:
            fh.writelines(kept)

        with SectionProfileStore(path) as store:
            assert not store.profiles
            assert store.partial
            resumed = run_incremental_campaign(built, "ir", cfg, store)
        assert resumed.replayed > 0
        assert resumed.simulated + resumed.replayed == full.n_total
        assert resumed.counts == full.counts
        for a, b in zip(full.sections, resumed.sections):
            assert a.profile.counts == b.profile.counts
            assert a.profile.key == b.profile.key

    def test_schema_mismatch_is_loud(self, tmp_path):
        path = str(tmp_path / "store.jsonl")
        with open(path, "w") as fh:
            fh.write('{"ev": "header", "version": 0, '
                     '"schema": "section-profile/0"}\n')
        with pytest.raises(CampaignError, match="schema"):
            SectionProfileStore(path)

    def test_key_varies_with_inputs(self):
        built = _build()
        sm_seu = map_sites(built, "ir", "seu")
        sm_cf = map_sites(built, "ir", "cf")
        sec = sm_seu.sections[0]
        base = dict(dispatch="decoded", protection={}, seed=0)
        k = profile_key(sec, sm_seu, **base)
        assert profile_key(sec, sm_seu, **base) == k
        assert profile_key(sec, sm_cf, **base) != k
        assert profile_key(
            sec, sm_seu, dispatch="codegen", protection={},
            seed=0) != k
        assert profile_key(
            sec, sm_seu, dispatch="decoded", protection={"level": 100},
            seed=0) != k
        assert profile_key(
            sec, sm_seu, dispatch="decoded", protection={},
            seed=1) != k
        assert profile_key(
            sec, sm_seu, dispatch="decoded", protection={},
            seed=0, exhaustive_bits=(0, 1)) != k


class TestTierFreeKeys:
    """Section keys name ``"decoded"`` whatever tier replays them.  What
    runs under ``REPRO_DISPATCH=codegen`` stored under the ``"codegen"``
    key is served through the alias (DESIGN §15.2)."""

    CFG = CampaignConfig(n_campaigns=40, seed=3)

    def _codegen_keyed_store(self, monkeypatch, path):
        """A store as a forced-codegen run wrote it before keys became
        tier-free: every key document says ``"codegen"``."""
        import repro.fi.compose as compose

        with monkeypatch.context() as m:
            m.setattr(compose, "KEY_DISPATCH", "codegen")
            with SectionProfileStore(path) as store:
                return run_incremental_campaign(
                    _build(), "ir", self.CFG, store, dispatch="codegen")

    def test_keys_do_not_depend_on_the_tier(self, tmp_path, monkeypatch):
        monkeypatch.delenv("REPRO_DISPATCH", raising=False)
        runs = []
        for dispatch in (None, "decoded", "codegen"):
            path = str(tmp_path / f"{dispatch}.jsonl")
            with SectionProfileStore(path) as store:
                runs.append(run_incremental_campaign(
                    _build(), "ir", self.CFG, store, dispatch=dispatch))
        keys = [[s.profile.key for s in r.sections] for r in runs]
        assert keys[0] == keys[1] == keys[2]
        assert runs[0].counts == runs[1].counts == runs[2].counts

    @pytest.mark.parametrize("dispatch", [None, "codegen"])
    def test_codegen_keyed_profiles_are_served(self, tmp_path, monkeypatch,
                                               dispatch):
        monkeypatch.delenv("REPRO_DISPATCH", raising=False)
        path = str(tmp_path / "store.jsonl")
        old = self._codegen_keyed_store(monkeypatch, path)
        with SectionProfileStore(path) as store:
            warm = run_incremental_campaign(_build(), "ir", self.CFG, store,
                                            dispatch=dispatch)
        assert warm.simulated == 0
        assert warm.cache_hits == len(warm.sections)
        assert warm.counts == old.counts
        assert warm.summary() == old.summary()

    def test_half_journaled_codegen_section_resumes(self, tmp_path,
                                                    monkeypatch):
        monkeypatch.delenv("REPRO_DISPATCH", raising=False)
        path = str(tmp_path / "store.jsonl")
        full = self._codegen_keyed_store(monkeypatch, path)
        lines = open(path).read().splitlines(keepends=True)
        rows = [ln for ln in lines if '"ev": "row"' in ln]
        kept = [ln for ln in lines if '"ev": "profile"' not in ln]
        kept = kept[: 1 + len(rows) // 2]
        with open(path, "w") as fh:
            fh.writelines(kept)

        with SectionProfileStore(path) as store:
            resumed = run_incremental_campaign(_build(), "ir", self.CFG,
                                               store)
        assert resumed.replayed == sum('"ev": "row"' in ln for ln in kept)
        assert resumed.replayed > 0
        assert resumed.simulated + resumed.replayed == full.n_total
        assert resumed.counts == full.counts
        assert [s.profile.counts for s in resumed.sections] == \
            [s.profile.counts for s in full.sections]


# -- composition statistics ---------------------------------------------


class TestStats:
    def test_wilson_basic(self):
        lo, hi = wilson_interval(5, 10)
        assert 0.0 < lo < 0.5 < hi < 1.0
        assert wilson_interval(0, 0) == (0.0, 1.0)
        assert wilson_interval(0, 50)[0] == 0.0
        assert wilson_interval(50, 50)[1] == 1.0
        with pytest.raises(ValueError):
            wilson_interval(5, 3)

    def test_wilson_narrows_with_n(self):
        lo1, hi1 = wilson_interval(5, 10)
        lo2, hi2 = wilson_interval(500, 1000)
        assert hi2 - lo2 < hi1 - lo1

    def test_composed_interval_single_section_is_binomial(self):
        p, lo, hi = composed_interval([1.0], [3], [10])
        assert p == pytest.approx(0.3)
        assert 0.0 <= lo < p < hi <= 1.0

    def test_composed_interval_empty_section_is_vacuous(self):
        p, lo, hi = composed_interval([1.0], [0], [0])
        assert p == pytest.approx(0.5)
        assert (lo, hi) == (0.0, 1.0)

    def test_allocate_proportional(self):
        alloc = _allocate(100, [750, 250])
        assert sum(alloc) == 100
        assert alloc == [75, 25]

    def test_allocate_min_one_per_live_section(self):
        alloc = _allocate(10, [1000, 1, 0])
        assert sum(alloc) == 10
        assert alloc[1] >= 1
        assert alloc[2] == 0

    def test_allocate_no_sites_is_loud(self):
        with pytest.raises(CampaignError):
            _allocate(10, [0, 0])

    def test_composed_summary_rates_sum_to_one(self, tmp_path):
        built = _build()
        res = run_incremental_campaign(
            built, "asm", CampaignConfig(n_campaigns=50, seed=1), None)
        s = res.summary()
        rates = [s[k] for k in ("sdc", "due", "detected", "benign")]
        assert sum(rates) == pytest.approx(1.0)
        for k in ("sdc", "due", "detected", "benign"):
            lo, hi = s[f"{k}_ci"]
            assert 0.0 <= lo <= s[k] <= hi <= 1.0


# -- determinism --------------------------------------------------------


class TestDeterminism:
    def test_same_seed_same_profiles(self):
        cfg = CampaignConfig(n_campaigns=30, seed=11)
        a = run_incremental_campaign(_build(), "ir", cfg, None)
        b = run_incremental_campaign(_build(), "ir", cfg, None)
        assert [s.profile.counts for s in a.sections] == \
            [s.profile.counts for s in b.sections]
        assert [s.profile.key for s in a.sections] == \
            [s.profile.key for s in b.sections]

    def test_seed_isolated_per_section(self, tmp_path):
        """An edit in one function must not change the samples (and so
        the cached profile key/result) of any other section."""
        cfg = CampaignConfig(n_campaigns=30, seed=11)
        a = run_incremental_campaign(_build(SRC), "ir", cfg, None)
        b = run_incremental_campaign(_build(SRC_EDITED), "ir", cfg, None)
        pa = {s.section.name: s.profile for s in a.sections}
        pb = {s.section.name: s.profile for s in b.sections}
        assert pa["scale"].key == pb["scale"].key
        assert pa["scale"].counts == pb["scale"].counts

    def test_cached_site_map_memoizes(self):
        built = _build()
        sm1 = cached_site_map(built, "ir", "seu")
        sm2 = cached_site_map(built, "ir", "seu")
        assert sm1 is sm2
        assert cached_site_map(built, "ir", "cf") is not sm1


# -- planner fast path --------------------------------------------------


class TestPlannerPath:
    def test_profile_module_reuses_golden_run(self):
        built = _build()
        from repro.protection.planner import _GOLDEN_CACHE

        p1 = profile_module(built.module, n_campaigns=10,
                            layout=built.layout)
        assert built.module in _GOLDEN_CACHE
        marker = _GOLDEN_CACHE[built.module]
        p2 = profile_module(built.module, n_campaigns=10,
                            layout=built.layout)
        assert _GOLDEN_CACHE[built.module] is marker
        assert p1.golden_output == p2.golden_output
        assert p1.sdc_counts == p2.sdc_counts

    def test_plan_evaluation_is_cached(self, tmp_path):
        built = _build()
        path = str(tmp_path / "store.jsonl")
        cfg = CampaignConfig(n_campaigns=30, seed=2)
        with SectionProfileStore(path) as store:
            cold = run_incremental_campaign(built, "ir", cfg, store)
            warm = run_incremental_campaign(built, "ir", cfg, store)
        assert cold.simulated > 0
        assert warm.simulated == 0
        assert cold.summary() == warm.summary()
