"""Correctness gate: a benchmark number only counts if the results are
right.

Three checks, all outside the timed body:

* at a seed pinned in ``expected.json`` the result signature (a hash of
  every returned record) and the pooled SDC/DUE/detected rates must
  match exactly.  The pins of the three whole-program workloads come
  from the naive oracle path (``REPRO_ENGINE=0``); the incremental
  workload's from a serial (``workers=1``) run;
* at any seed, a few seeded drawn injections per campaign are re-run by
  full execution on the naive dispatch tier, and their records must
  match (a statically pruned draw must come out benign);
* the incremental workload's store must pass ``verify_store``.
"""

from __future__ import annotations

import hashlib
import json
import random
from typing import Dict, List

from repro.fi.campaign import CampaignConfig
from repro.fi.compose import verify_store
from repro.fi.outcomes import Outcome, canonical_trap_kind, classify_outcome

from . import spec
from .probes import simulator

EXPECTED_SCHEMA = "perfbench-expected/1"


def signature_hash(doc) -> str:
    canon = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()


def load_expected() -> Dict[str, dict]:
    with open(spec.EXPECTED_JSON) as fh:
        doc = json.load(fh)
    if doc.get("schema") != EXPECTED_SCHEMA:
        raise ValueError(f"{spec.EXPECTED_JSON}: schema is not "
                         f"{EXPECTED_SCHEMA!r}")
    return doc["entries"]


def _naive_record(built, result, rec):
    """Re-run one drawn injection by full naive execution."""
    config = CampaignConfig()
    max_steps = max(config.min_max_steps,
                    result.golden_dyn_total * config.max_steps_factor)
    sim = simulator(built, result.layer, "naive", rec.fault_model,
                    max_steps=max_steps)
    return sim.run(inject_index=rec.dyn_index, inject_bit=rec.bit)


def naive_recheck(checked, per_campaign: int, seed: int) -> List[str]:
    """Problems found re-running ``per_campaign`` seeded records of each
    campaign on the naive tier."""
    rng = random.Random(seed)
    problems = []
    for built, result in checked:
        picks = rng.sample(range(len(result.records)),
                           min(per_campaign, len(result.records)))
        for i in picks:
            rec = result.records[i]
            res = _naive_record(built, result, rec)
            expect = (Outcome.BENIGN if rec.outcome is Outcome.PRUNE_BENIGN
                      else rec.outcome)
            got = (classify_outcome(res, result.golden_output),
                   res.injected_iid)
            want = (expect, rec.iid)
            if rec.outcome is not Outcome.PRUNE_BENIGN:
                got += (canonical_trap_kind(res.trap_kind),)
                want += (rec.trap_kind,)
            if result.layer == "asm":
                got += (res.extra.get("asm_index"),)
                want += (rec.asm_index,)
            if got != want:
                problems.append(
                    f"{result.layer} injection (index {rec.dyn_index}, bit "
                    f"{rec.bit}, {rec.fault_model}): engine recorded "
                    f"{want}, naive full run gives {got}")
    return problems


def check(body, *, workload: str, size: str, seed: int,
          naive_per_campaign: int) -> dict:
    """Run the gate over one body's result; ``ok`` is the verdict."""
    problems = list(body.problems)
    signature = signature_hash(body.signature)
    pinned = load_expected().get(spec.expected_key(workload, size, seed))
    if pinned is not None:
        if pinned["signature"] != signature:
            problems.append(
                f"result signature {signature[:16]} differs from the pinned "
                f"{pinned['signature'][:16]}")
        if pinned["rates"] != body.rates:
            problems.append(f"rates {body.rates} differ from the pinned "
                            f"{pinned['rates']}")
    if naive_per_campaign:
        problems += naive_recheck(body.checked, naive_per_campaign, seed)
    if body.store_path is not None:
        report = verify_store(body.store_path)
        if not report["ok"]:
            problems.append(f"verify_store failed: {report}")
    return {
        "ok": not problems,
        "problems": problems,
        "signature": signature,
        "pinned": pinned is not None,
        "naive_rechecked": (naive_per_campaign and sum(
            min(naive_per_campaign, len(result.records))
            for _, result in body.checked)),
    }
