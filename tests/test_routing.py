"""Replay-tier routing and bounded compile units (DESIGN §13.5).

Unless a tier is forced, each call of the campaign executor replays on
generated code when its planned suffix steps pay for the build, and on
the decoded closures otherwise; the records are bit-identical either
way.  Generated code a routed call built is released when the call
returns.  Both generators compile their code in units of bounded size.
"""

from __future__ import annotations

import pytest

from repro.benchsuite.registry import benchmark_names
from repro.fi.campaign import (
    ROUTE_STEPS_PER_INST,
    CampaignConfig,
    run_asm_campaign,
    run_ir_campaign,
)
from repro.interp import codegen as ir_codegen
from repro.machine import codegen as asm_codegen
from repro.machine.machine import AsmMachine
from repro.pipeline import build
from repro.trace import CampaignObserver

#: crc32/tiny unprotected: 2 draws plan far below either layer's
#: threshold, 400 far above it (about 230K and 460K planned steps
#: against 89K for IR and 236K for asm)
SHORT, LONG = 2, 400


@pytest.fixture(scope="module")
def crc32():
    return build("crc32", scale="tiny")


def _campaign(built, layer, n, **kw):
    observer = CampaignObserver()
    cfg = CampaignConfig(n_campaigns=n, seed=5)
    if layer == "ir":
        res = run_ir_campaign(built.module, cfg, built.layout,
                              observer=observer, **kw)
    else:
        res = run_asm_campaign(built.compiled, built.layout, cfg,
                               observer=observer, **kw)
    (route,) = observer.route_events()
    return res, route


def _records(res):
    return res.counts, res.records


#: (draws, environment, keyword arguments) -> (tier, forced)
ROUTES = [
    (SHORT, {}, {}, "decoded", False),
    (LONG, {}, {}, "codegen", False),
    (SHORT, {}, {"dispatch": "codegen"}, "codegen", True),
    (LONG, {}, {"dispatch": "decoded"}, "decoded", True),
    (SHORT, {"REPRO_DISPATCH": "codegen"}, {}, "codegen", True),
    (LONG, {"REPRO_DISPATCH": "decoded"}, {}, "decoded", True),
    (SHORT, {"REPRO_ENGINE": "0"}, {}, "naive", True),
    (LONG, {"REPRO_ENGINE": "0"}, {}, "naive", True),
]


@pytest.mark.parametrize("layer", ["ir", "asm"])
@pytest.mark.parametrize("n,env,kw,tier,forced", ROUTES)
def test_route_table(crc32, monkeypatch, layer, n, env, kw, tier, forced):
    for var in ("REPRO_DISPATCH", "REPRO_ENGINE"):
        monkeypatch.delenv(var, raising=False)
    for var, value in env.items():
        monkeypatch.setenv(var, value)
    res, route = _campaign(crc32, layer, n, **kw)
    assert (route["tier"], route["forced"]) == (tier, forced)
    assert route["layer"] == layer
    size = (crc32.module.static_instruction_count() if layer == "ir"
            else len(crc32.compiled.uops))
    assert route["static_size"] == size
    # the routing rule itself, on the numbers the event reports
    routed = route["planned_steps"] > ROUTE_STEPS_PER_INST[layer] * size
    assert routed == (n == LONG)
    # every tier yields the records of the forced decoded run
    monkeypatch.delenv("REPRO_DISPATCH", raising=False)
    monkeypatch.delenv("REPRO_ENGINE", raising=False)
    ref, _ = _campaign(crc32, layer, n, dispatch="decoded")
    assert _records(res) == _records(ref)


def _held(built, layer):
    if layer == "ir":
        return ir_codegen.cached_codegen(built.module)
    return asm_codegen.cached_codegen(built.compiled)


@pytest.mark.parametrize("layer", ["ir", "asm"])
def test_routed_campaign_releases_its_code(monkeypatch, layer):
    monkeypatch.delenv("REPRO_DISPATCH", raising=False)
    built = build("crc32", scale="tiny")
    assert _held(built, layer) == ()
    _res, route = _campaign(built, layer, LONG)
    assert route["tier"] == "codegen" and not route["forced"]
    assert _held(built, layer) == ()
    # code the caches held before a routed call stays there
    _campaign(built, layer, LONG, dispatch="codegen")
    kept = _held(built, layer)
    assert len(kept) == 1
    _campaign(built, layer, LONG)
    assert _held(built, layer) == kept


@pytest.mark.parametrize("layer", ["ir", "asm"])
def test_forced_codegen_keeps_its_code(monkeypatch, layer):
    monkeypatch.delenv("REPRO_DISPATCH", raising=False)
    built = build("crc32", scale="tiny")
    _campaign(built, layer, SHORT, dispatch="codegen")
    assert len(_held(built, layer)) == 1
    monkeypatch.setenv("REPRO_DISPATCH", "codegen")
    _campaign(built, layer, LONG)
    assert len(_held(built, layer)) == 1


def test_route_events_need_an_observer(crc32, monkeypatch):
    """No observer, no event and no size count: the forced path
    resolves the tier and nothing else."""
    monkeypatch.setenv("REPRO_DISPATCH", "decoded")

    def boom():
        raise AssertionError("static size counted without an observer")

    monkeypatch.setattr(crc32.module, "static_instruction_count", boom)
    run_ir_campaign(crc32.module, CampaignConfig(n_campaigns=SHORT),
                    crc32.layout)


@pytest.mark.slow
@pytest.mark.parametrize("fm", ["seu", "cf"])
def test_compile_units_stay_within_budget(fm):
    """No compile unit of either generator exceeds its budget, over the
    16 benchmarks at tiny scale, unprotected and dup-100."""
    widest = {"ir": 0, "asm": 0}
    multi = 0
    for name in benchmark_names():
        for level in (None, 100):
            built = build(name, scale="tiny", level=level)
            gm = ir_codegen.codegen_module(built.module, built.layout, fm)
            mem = AsmMachine(built.compiled, built.layout).memory
            cp = asm_codegen.codegen_program(built.compiled, mem, fm)
            assert sum(gm.unit_sizes) == \
                built.module.static_instruction_count()
            assert sum(cp.unit_sizes) <= len(built.compiled.uops)
            widest["ir"] = max(widest["ir"], *gm.unit_sizes)
            widest["asm"] = max(widest["asm"], *cp.unit_sizes)
            multi += len(cp.unit_sizes) > 1
    assert widest["ir"] <= ir_codegen.UNIT_INSTS
    assert widest["asm"] <= asm_codegen.UNIT_UOPS
    # the bound is exercised: units come close to it, and most asm
    # programs need more than one
    assert widest["ir"] > ir_codegen.UNIT_INSTS // 2
    assert widest["asm"] > asm_codegen.UNIT_UOPS // 2
    assert multi > 16
