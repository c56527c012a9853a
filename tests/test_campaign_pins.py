"""Golden-hash pins for campaign identities, row layouts and results.

Every value below is a literal SHA-256: campaign keys, section-profile
keys, the journal row layout, every record of uniform, pruned and
stratified campaigns at both layers, and the composed counts of
storeless incremental campaigns, all on crc32/tiny at dup-100 and one
seed; plus the planner's SDC profiles of four unprotected tiny programs
at two seeds.  A change to how campaigns are driven must leave every pin as it
is; a deliberate change to a key or a row layout needs a version bump
(``JOURNAL_VERSION``/``STORE_VERSION``) and new pins.

Stratified records are compared sorted: the pins fix *what* a
stratified campaign records, not the order it lists the records in.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.benchsuite.registry import load_source
from repro.fi.campaign import CampaignConfig, run_asm_campaign, run_ir_campaign
from repro.fi.compose import profile_key, run_incremental_campaign
from repro.fi.parallel import run_parallel_campaign
from repro.fi.resilience import (
    ROW_FIELDS,
    InjectionJournal,
    WorkSpec,
    campaign_key,
)
from repro.fi.sections import map_sites
from repro.pipeline import build, build_from_source
from repro.protection.planner import profile_module

SEED = 5
N = 120
LEVEL = 100


def digest(doc) -> str:
    return hashlib.sha256(
        json.dumps(doc, sort_keys=True).encode()).hexdigest()


@pytest.fixture(scope="module")
def source():
    return load_source("crc32", "tiny")


@pytest.fixture(scope="module")
def built(source):
    return build_from_source(source, name="crc32", level=LEVEL)


# ---------------------------------------------------------------------------
# identities
# ---------------------------------------------------------------------------

#: variant -> (WorkSpec fields, CampaignConfig fields, campaign key)
CAMPAIGN_KEYS = {
    "default": ({}, {},
        "abeee6dc37fa72ca59c3c95de7f8830986176c1fac6ab02aa9d8e6db01d0fa8b"),
    "set": ({"fault_model": "set"}, {},
        "64080b059aee0bbc2fad2c4a459c811241218e8714bcc590f850c31aa1377a45"),
    "cf+cfc": ({"fault_model": "cf", "cfc": True}, {},
        "3313439f47717da3c05cf36c3753386a023fa4deb510f53352131aabbfe2c5f1"),
    "prune": ({}, {"prune": True},
        "0fc56643c51a40774ccb21b04f43a508bd5045dc6e7a6e4ef48e182f5a359316"),
    "stratify": ({}, {"stratify": True},
        "febbe04b3f92a96f3eec8db1f0204e078427f3851b8f77d95df02e6b6e08a125"),
}


@pytest.mark.parametrize("variant", sorted(CAMPAIGN_KEYS))
def test_campaign_key(source, variant):
    spec_fields, config_fields, pinned = CAMPAIGN_KEYS[variant]
    spec = WorkSpec(source=source, name="crc32", level=LEVEL, layer="asm",
                    **spec_fields)
    config = CampaignConfig(n_campaigns=N, seed=SEED, **config_fields)
    assert campaign_key(spec, config) == pinned


#: (layer, prune) -> profile key of the layer's first section
PROFILE_KEYS = {
    ("ir", False):
        "d2ac32702198195ef81ed2bb072b8c1657aa981d3894f492a36f20170df6c5ec",
    ("ir", True):
        "dafacf7d46259dc8e2296268a84911eabb53f86c030bfcf3a0b5730f8a92c600",
    ("asm", False):
        "8f8a15815f9da7dd0901fdf84e359a7c9af55a7f2440a42666a16a5b9f81b59e",
    ("asm", True):
        "9112860ac4d01532d3e84c5a90082bf3e195f170ad9a6e7c170d21fcf0365757",
}


@pytest.mark.parametrize("layer,prune", sorted(PROFILE_KEYS))
def test_profile_key(built, layer, prune):
    site_map = map_sites(built, layer, "seu")
    key = profile_key(site_map.sections[0], site_map, dispatch="decoded",
                      protection={"level": LEVEL}, seed=SEED, prune=prune)
    assert key == PROFILE_KEYS[(layer, prune)]


# ---------------------------------------------------------------------------
# row layout
# ---------------------------------------------------------------------------

def test_row_fields():
    assert digest(list(ROW_FIELDS)) == (
        "fe6bfb00cd29bc93287945d269a176d409fd1f5fe3f7d5aea8d2e54e41cb502b")


#: layer -> (first executed + first pruned journal row, every row)
JOURNAL_ROWS = {
    "ir": (
        "f0980b6c5199129543310b6c18eacbc960541a43273e227347e5da1af2f290b6",
        "bbc7bb5cd01f40a868fb82087eb67265d8ce500ec7c9a414e22252cf77b29e21"),
    "asm": (
        "f5f8aa2a6d38bad77e00112dd6146325a54de969c45271e3a75c6a0edfd79f7d",
        "7e3c14962a0e1e7055e7633dfc76edf217ab27d921b783590db9187fa9c3be7d"),
}


@pytest.mark.parametrize("layer", sorted(JOURNAL_ROWS))
def test_journal_rows(source, tmp_path, layer):
    spec = WorkSpec(source=source, name="crc32", level=LEVEL, layer=layer)
    config = CampaignConfig(n_campaigns=N, seed=SEED, prune=True)
    path = str(tmp_path / "campaign.jsonl")
    run_parallel_campaign(spec, config, workers=1, journal_path=path)
    _, _, completed = InjectionJournal.peek(path)
    assert sorted(completed) == list(range(N))
    pruned_flag = ROW_FIELDS.index("pruned")
    executed = min(i for i, row in completed.items() if not row[pruned_flag])
    pruned = min(i for i, row in completed.items() if row[pruned_flag])
    pair, every = JOURNAL_ROWS[layer]
    assert digest([list(completed[executed]), list(completed[pruned])]) \
        == pair
    assert digest([[i, list(completed[i])] for i in range(N)]) == every


# ---------------------------------------------------------------------------
# campaign results
# ---------------------------------------------------------------------------

def campaign_doc(result, *, sort_records: bool = False) -> dict:
    records = [[r.dyn_index, r.bit, r.outcome.value, r.iid, r.asm_index,
                r.asm_role, r.asm_opcode, r.trap_kind, r.fault_model]
               for r in result.records]
    if sort_records:
        records.sort(key=lambda r: (r[0], r[1]))
    doc = {
        "layer": result.layer,
        "n": result.n,
        "counts": {o.value: c for o, c in result.counts.items() if c},
        "records": records,
        "golden": [result.golden_output, result.golden_dyn_total,
                   result.golden_dyn_injectable],
        "simulated_steps": result.simulated_steps,
    }
    strata = getattr(result, "strata", None)
    if strata:
        doc["strata"] = [
            [s.name, s.sites, s.n,
             {o.value: c for o, c in s.counts.items() if c}]
            for s in strata]
    return doc


#: (layer, kind) -> (fault model, CampaignConfig fields, records digest)
CAMPAIGNS = {
    ("ir", "uniform"): (
        "seu", {},
        "0f87939b243bcfd2f470c65a05e4f9bcdb138a6c289c581a93b5016ede8b931e"),
    ("ir", "pruned"): (
        "seu", {"prune": True},
        "237a471075df3360653677182d459fe045e2630a7ae0e9d43557cdb98e74455a"),
    ("ir", "stratified"): (
        "set", {"prune": True, "stratify": True},
        "95a4e894104984184b92d62e25481b0c4fef583dcbd72e28165edd199d4be71f"),
    ("asm", "uniform"): (
        "seu", {},
        "dea1b645dbaf73b3ecd82e9469acd367bce50a984766ecfe4f967ae6ffb25a27"),
    ("asm", "pruned"): (
        "seu", {"prune": True},
        "603b5171a6008bcdb1678b792aa49a792e7210aa8f29281c9dc1d8132b85adab"),
    ("asm", "stratified"): (
        "seu", {"prune": True, "stratify": True},
        "926042b30a665f7ba93e76ac76158b18303d3fed05186350ecd2a44b4138a2a0"),
}


@pytest.mark.parametrize("layer,kind", sorted(CAMPAIGNS))
def test_campaign_records(built, layer, kind):
    fault_model, config_fields, pinned = CAMPAIGNS[(layer, kind)]
    config = CampaignConfig(n_campaigns=N, seed=SEED, **config_fields)
    if layer == "ir":
        result = run_ir_campaign(built.module, config, built.layout,
                                 fault_model=fault_model)
    else:
        result = run_asm_campaign(built.compiled, built.layout, config,
                                  fault_model=fault_model)
    doc = campaign_doc(result, sort_records=kind == "stratified")
    assert digest(doc) == pinned


#: (layer, prune) -> composed storeless incremental campaign digest
COMPOSED = {
    ("ir", False):
        "0c9211d2795f427dcb22413ef7867e789334a0c34f409c89db54e642f7ee41d7",
    ("ir", True):
        "ad5aa192600add8366b5c83f773966b1c26af5c243b98e3adfb57b483b80de1c",
    ("asm", False):
        "646a955830b794e8bfff248754274a15d421692568e831ae744049e339ab629b",
    ("asm", True):
        "b20091a4f834f4ba2e3ad96b33755be0e0c084eebc765475ed1318f31b93b037",
}


@pytest.mark.parametrize("layer,prune", sorted(COMPOSED))
def test_composed_counts(built, layer, prune):
    config = CampaignConfig(n_campaigns=N, seed=SEED, prune=prune)
    result = run_incremental_campaign(built, layer, config, None)
    doc = {
        "counts": {o.value: c for o, c in result.counts.items() if c},
        "sections": [
            [s.profile.key, s.profile.name, s.profile.n, s.profile.site_count,
             s.cached, s.simulated, s.replayed,
             {o.value: c for o, c in s.profile.counts.items() if c}]
            for s in result.sections],
        "golden": [result.golden_output, result.golden_dyn_total,
                   result.golden_dyn_injectable],
    }
    assert digest(doc) == COMPOSED[(layer, prune)]


# ---------------------------------------------------------------------------
# planner profiles
# ---------------------------------------------------------------------------

PROFILE_N = 120

#: (benchmark, seed) -> digest of its unprotected tiny-scale SdcProfile
PROFILES = {
    ("bfs", 0):
        "1dbecc9bcb5c9069b8118ccefd265b9bf3db35e7074421a4c58735b92402a11c",
    ("bfs", 2023):
        "c0aaeb9c011d737df85eac05b772d99d88993a3b160711a19e06582ceb05b204",
    ("crc32", 0):
        "9d4ca37e68043ad418affe2e04feeed73ea2c40a40605730598ab9c997b62336",
    ("crc32", 2023):
        "5b337ae783ea9aad36a5f2a61ad17c822d087dfb90c5624a9fe4cde3c99ee8a9",
    ("quicksort", 0):
        "daf6ca3711d5580fb4910c8eec95fd53244dc0fc82aa717211822b67b059b01d",
    ("quicksort", 2023):
        "3a2f97218cc9ac23093a3226117e97c26647251dbe9f2ec192d688a77cc02611",
    ("stringsearch", 0):
        "66f69bdbbfd3a76d41e6833014c607ddacb9b55fde63b6ca8c680173158254a7",
    ("stringsearch", 2023):
        "6cef7755594b63a00baed79bd3b125037240555d98ec0a4ecd6c0e0de8b47cc6",
}


@pytest.fixture(scope="module")
def raw_builds():
    return {}


@pytest.mark.parametrize("name,seed", sorted(PROFILES))
def test_profile(raw_builds, name, seed):
    if name not in raw_builds:
        raw_builds[name] = build(name, scale="tiny")
    built = raw_builds[name]
    profile = profile_module(built.module, n_campaigns=PROFILE_N, seed=seed,
                             layout=built.layout)
    doc = {
        "sdc_counts": sorted(profile.sdc_counts.items()),
        "sdc_total": profile.sdc_total,
        "dyn_counts": sorted(profile.dyn_counts.items()),
        "golden": [profile.golden_output, profile.golden_dyn_total,
                   profile.golden_dyn_injectable],
    }
    assert digest(doc) == PROFILES[(name, seed)]
