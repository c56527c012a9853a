"""Tests for the testgen subsystem: generators, oracle, mutants, shrinker.

Validates the validators: the generators must be deterministic and
legal, the differential oracle must pass on the un-mutated pipeline,
and the mutation harness must kill a known-weakened checker while
never killing the identity rebuild (zero false kills).
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.errors import CampaignError
from repro.execresult import RunStatus
from repro.frontend.codegen import compile_source
from repro.fi.chaos import shrink_case
from repro.interp.interpreter import run_ir
from repro.interp.layout import GlobalLayout
from repro.backend.lower import lower_module
from repro.ir.instructions import Call, CondBr, Ret, Store
from repro.ir.printer import print_module
from repro.ir.verifier import verify_module
from repro.machine.machine import compile_program, run_asm
from repro.protection.duplication import (
    duplicable_instructions,
    duplicate_module,
    sync_kind,
)
from repro.protection.planner import (
    ProtectionPlan,
    plan_protection,
    profile_module,
    validate_plan,
)
from repro.testgen import (
    generate_ir,
    generate_minic,
    minimize_minic,
    partial_selection,
    run_differential_oracle,
    run_mutation_suite,
)
from repro.testgen.minic import GenConfig, render_minic
from repro.testgen.strategies import SEED_RANGE, minic_programs

_SETTINGS = settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


# -- generator determinism ----------------------------------------------


def test_minic_generation_is_deterministic():
    for seed in (0, 1, 7, 123, 99999):
        a, b = generate_minic(seed), generate_minic(seed)
        assert a == b
        assert a.source == b.source
    assert generate_minic(3).source != generate_minic(4).source


def test_irgen_is_deterministic():
    for seed in (0, 5, 4242):
        assert print_module(generate_ir(seed)) == print_module(
            generate_ir(seed))
    assert print_module(generate_ir(1)) != print_module(generate_ir(2))


def test_minic_config_changes_output():
    tiny = GenConfig(n_functions=(0, 0), n_main_stmts=(1, 2))
    assert generate_minic(8, tiny).source != generate_minic(8).source


# -- generator legality -------------------------------------------------


@pytest.mark.parametrize("seed", range(12))
def test_generated_minic_runs_clean_at_both_layers(seed):
    """Every generated program terminates OK within default containment
    budgets at both layers, with matching output."""
    module = compile_source(generate_minic(seed).source, f"gen{seed}")
    layout = GlobalLayout(module)
    compiled = compile_program(lower_module(module, layout).flatten())
    ir = run_ir(module, layout=layout)
    asm = run_asm(compiled, layout)
    assert ir.status is RunStatus.OK
    assert asm.status is RunStatus.OK
    assert asm.output == ir.output


@pytest.mark.parametrize("seed", range(8))
def test_generated_ir_verifies_and_runs_clean(seed):
    module = generate_ir(seed)
    verify_module(module)
    layout = GlobalLayout(module)
    compiled = compile_program(lower_module(module, layout).flatten())
    ir = run_ir(module, layout=layout)
    asm = run_asm(compiled, layout)
    assert ir.status is RunStatus.OK
    assert asm.status is RunStatus.OK
    assert asm.output == ir.output


@_SETTINGS
@given(minic_programs())
def test_strategies_wrap_the_deterministic_generator(prog):
    """A strategy draw is exactly the generator's output for its seed."""
    assert prog == generate_minic(prog.seed, prog.config)
    assert prog.source == render_minic(prog)


@pytest.mark.parametrize("seed", (0, 3, 9))
def test_generated_programs_match_on_codegen_tier(seed):
    """Generated programs run bit-identically on the codegen dispatch
    tier at both layers (full result signature, not just output)."""
    module = compile_source(generate_minic(seed).source, f"cg{seed}")
    layout = GlobalLayout(module)
    compiled = compile_program(lower_module(module, layout).flatten())

    def _sig(res):
        return (res.status, res.output, res.dyn_total, res.dyn_injectable)

    assert _sig(run_ir(module, layout=layout, dispatch="codegen")) == \
        _sig(run_ir(module, layout=layout, dispatch="decoded"))
    assert _sig(run_asm(compiled, layout, dispatch="codegen")) == \
        _sig(run_asm(compiled, layout, dispatch="decoded"))


# -- differential oracle ------------------------------------------------


@pytest.mark.parametrize("seed", (2, 13))
def test_oracle_matrix_passes_on_generated_minic(seed):
    prog = generate_minic(seed)
    report = run_differential_oracle(
        lambda: compile_source(prog.source, f"oracle{seed}"),
        name=f"minic-{seed}")
    assert report.ok, [f.describe() for f in report.failures]
    assert report.runs == 48  # 8 variants x 2 layers x 3 dispatches


def test_oracle_matrix_passes_on_generated_ir():
    report = run_differential_oracle(lambda: generate_ir(5), name="ir-5")
    assert report.ok, [f.describe() for f in report.failures]
    doc = report.to_doc()
    assert doc["ok"] and doc["runs"] == report.runs


def test_partial_selection_is_deterministic_subset():
    module = compile_source(generate_minic(4).source, "psel")
    all_iids = {i.iid for i in duplicable_instructions(module)}
    sel = partial_selection(module, 0.5, seed=0)
    assert sel == partial_selection(module, 0.5, seed=0)
    assert sel <= all_iids
    assert len(sel) == round(len(all_iids) * 0.5)
    assert sel != partial_selection(module, 0.5, seed=1)


# -- mutation harness ---------------------------------------------------


def test_mutation_regression_weakened_checker_is_killed():
    """The canonical regression: dropping store checkers must be caught
    by the coverage oracle, an inverted checker by the golden oracle,
    and the untouched pipeline must survive (zero false kills)."""
    report = run_mutation_suite(names=(
        "dup-drop-store-checkers",
        "dup-checker-inverted",
        "identity-dup",
    ))
    by_name = {r.name: r for r in report.results}
    assert by_name["dup-drop-store-checkers"].killed
    assert by_name["dup-drop-store-checkers"].killed_by == "coverage"
    assert by_name["dup-checker-inverted"].killed
    assert by_name["dup-checker-inverted"].killed_by == "golden"
    assert not by_name["identity-dup"].killed
    assert report.ok and not report.survivors and not report.false_kills
    doc = report.to_doc()
    assert doc["schema"] == "mutate/1"
    assert doc["summary"]["ok"]


def test_mutation_suite_rejects_unknown_names():
    with pytest.raises(ValueError, match="unknown mutants"):
        run_mutation_suite(names=("no-such-mutant",))


def test_mutation_cfc_weakenings_are_killed():
    """Every CFC weakening must die — dropped updates by the golden
    oracle (fault-free false detect), the coverage weakenings by a
    cf-fault detection drop — while the unmutated CFC pipeline
    survives a cf sweep bit-exactly."""
    report = run_mutation_suite(names=(
        "cfc-dropped-update",
        "cfc-unchecked-backedge",
        "cfc-constant-signature",
        "identity-cfc",
    ))
    by_name = {r.name: r for r in report.results}
    assert by_name["cfc-dropped-update"].killed
    assert by_name["cfc-dropped-update"].killed_by == "golden"
    assert by_name["cfc-unchecked-backedge"].killed
    assert by_name["cfc-unchecked-backedge"].killed_by == "coverage"
    assert by_name["cfc-unchecked-backedge"].fault_model == "cf"
    assert by_name["cfc-constant-signature"].killed
    assert by_name["cfc-constant-signature"].metrics["det_drop"] > 0.05
    assert not by_name["identity-cfc"].killed
    assert report.ok and not report.survivors and not report.false_kills


def test_mutation_codegen_exit_clauses_are_killed():
    """Each clause of the codegen chunk exit is load-bearing: dropping
    the injection clause loses the faults, dropping the budget clause
    lets a budgeted golden run finish; the unpatched tier survives."""
    report = run_mutation_suite(names=(
        "codegen-dropped-flip-hook",
        "codegen-unchecked-budget",
        "identity-codegen",
    ))
    by_name = {r.name: r for r in report.results}
    assert "injections diverged" in by_name[
        "codegen-dropped-flip-hook"].detail
    assert "step budget" in by_name["codegen-unchecked-budget"].detail
    assert not by_name["identity-codegen"].killed
    assert report.ok and not report.survivors and not report.false_kills


def test_validate_plan_accepts_real_plan_and_rejects_corruption():
    module = compile_source(generate_minic(6).source, "plan")
    profile = profile_module(module, n_campaigns=40, seed=0)
    plan = plan_protection(module, profile, 70)
    assert validate_plan(plan, module, profile) == []
    lying = ProtectionPlan(level=plan.level, selected=plan.selected,
                           budget=plan.budget, spent=plan.spent + 5,
                           total_cost=plan.total_cost)
    assert any("spent mismatch" in v
               for v in validate_plan(lying, module, profile))


def test_sync_kind_classifies_sync_points():
    module = compile_source(generate_minic(9).source, "sync")
    duplicate_module(module)
    kinds = {sync_kind(i) for f in module.functions.values()
             if not f.is_declaration
             for b in f.blocks for i in b.instructions}
    assert {"store", "branch", "ret"} <= kinds
    assert sync_kind(next(i for i in module.instructions()
                          if not isinstance(i, (Store, CondBr, Call, Ret)))
                     ) is None


# -- shrinking ----------------------------------------------------------


def test_shrink_case_finds_minimal_subset():
    checked = []

    def fails(xs):
        checked.append(list(xs))
        return 3 in xs and 11 in xs

    out = shrink_case(list(range(16)), fails)
    assert out == [3, 11]
    # 1-minimality: removing either remaining element breaks the failure
    assert not fails([3]) and not fails([11])


def test_shrink_case_rejects_non_failing_input():
    with pytest.raises(CampaignError, match="does not fail"):
        shrink_case([1, 2, 3], lambda xs: False)


def test_minimize_minic_shrinks_statements():
    prog = generate_minic(21)
    assert len(prog.main_stmts) >= 2
    # 'failure' = the last main statement is present in the rendering
    marker = prog.main_stmts[-1]
    small = minimize_minic(prog, lambda src: marker in src)
    assert marker in small.source
    assert len(small.main_stmts) == 1
    # a predicate the program doesn't satisfy leaves it untouched
    assert minimize_minic(prog, lambda src: False) == prog
