"""Tests for the Flowery mitigation passes (§6)."""

import pytest

from repro.backend.isa import Role
from repro.backend.lower import lower_module
from repro.execresult import RunStatus
from repro.frontend.codegen import compile_source
from repro.interp.interpreter import run_ir
from repro.interp.layout import GlobalLayout
from repro.ir.verifier import verify_module
from repro.machine.machine import compile_program, run_asm
from repro.protection.duplication import duplicate_module
from repro.protection.flowery import (
    EXPECT_GLOBAL,
    GUARD_GLOBAL,
    anti_comparison_duplication,
    apply_flowery,
    postponed_branch_check,
)
from repro.trace.tap import MachineCountTap

BRANCHY = """
int a = 1;
int b = 2;
int out = 0;
int main() {
    if (a < b) { out = 10; } else { out = 20; }
    for (int i = 0; i < 5; i++) { out += i; }
    print(out);
    return 0;
}
"""


def protected(src=BRANCHY, store_mode="lazy"):
    module = compile_source(src)
    info = duplicate_module(module, store_mode=store_mode)
    return module, info


class TestPostponedBranch:
    def test_instrumentation_count(self):
        module, info = protected()
        n = postponed_branch_check(module, info)
        assert n > 0
        verify_module(module)

    def test_expect_global_created(self):
        module, info = protected()
        postponed_branch_check(module, info)
        assert EXPECT_GLOBAL in module.globals

    def test_semantics_preserved(self):
        module, info = protected()
        golden = run_ir(compile_source(BRANCHY))
        postponed_branch_check(module, info)
        res = run_ir(module)
        assert res.status is RunStatus.OK
        assert res.output == golden.output

    def test_edge_blocks_inserted(self):
        module, info = protected()
        before = len(module.function("main").blocks)
        n = postponed_branch_check(module, info)
        after = len(module.function("main").blocks)
        assert after >= before + 2 * n  # two verify blocks per branch

    def test_idempotent(self):
        module, info = protected()
        n1 = postponed_branch_check(module, info)
        n2 = postponed_branch_check(module, info)
        assert n2 == 0

    def test_detects_wrong_direction_jumps(self):
        """A fault in the branch's test FLAGS must now be *detected*
        instead of silently corrupting output."""
        module, info = protected()
        postponed_branch_check(module, info)
        layout = GlobalLayout(module)
        asm = lower_module(module, layout)
        compiled = compile_program(asm.flatten())
        golden = run_asm(compiled, layout)
        # find dynamic indices of br-test instructions and flip ZF there
        res = run_asm(compiled, layout, trace=MachineCountTap())
        test_sites = [
            idx for idx in compiled.injectable_static
            if compiled.inst_at(idx).role == Role.BR_TEST
        ]
        assert test_sites, "protected branches must still lower via test"
        # sweep all injectable positions; every escape among br-test
        # faults must be caught
        sdc_from_brtest = 0
        detected = 0
        for i in range(golden.dyn_injectable):
            r = run_asm(compiled, layout, inject_index=i, inject_bit=0,
                        max_steps=golden.dyn_total * 4)
            if r.extra.get("asm_role") == Role.BR_TEST:
                if r.status is RunStatus.OK and r.output != golden.output:
                    sdc_from_brtest += 1
                if r.status is RunStatus.DETECTED:
                    detected += 1
        assert sdc_from_brtest == 0
        assert detected > 0


class TestAntiComparison:
    CMP_SRC = """
int a = 1;
int b = 2;
int main() { if (a < b) { print(1); } else { print(2); } return 0; }
"""

    def test_prevents_checker_folding(self):
        module, info = protected(self.CMP_SRC)
        n = anti_comparison_duplication(module, info)
        assert n > 0
        verify_module(module)
        asm = lower_module(module)
        assert not asm.folded_checkers

    def test_guard_global_volatile(self):
        module, info = protected(self.CMP_SRC)
        anti_comparison_duplication(module, info)
        guard = module.globals[GUARD_GLOBAL]
        assert guard.volatile

    def test_semantics_preserved(self):
        module, info = protected(self.CMP_SRC)
        golden = run_ir(compile_source(self.CMP_SRC))
        anti_comparison_duplication(module, info)
        res = run_ir(module)
        assert res.output == golden.output

    def test_cross_layer_outputs_match(self):
        module, info = protected(self.CMP_SRC)
        anti_comparison_duplication(module, info)
        layout = GlobalLayout(module)
        compiled = compile_program(lower_module(module, layout).flatten())
        assert run_asm(compiled, layout).output == run_ir(module, layout=layout).output

    def test_only_compare_checkers_transformed(self):
        src = "int g = 0; int main() { int x = 1 + 2; g = x; return 0; }"
        module, info = protected(src)
        n = anti_comparison_duplication(module, info)
        assert n == 0  # arithmetic checkers don't fold, nothing to harden

    def test_idempotent(self):
        module, info = protected(self.CMP_SRC)
        n1 = anti_comparison_duplication(module, info)
        n2 = anti_comparison_duplication(module, info)
        assert n2 == 0

    def test_shared_shadow_between_two_checkers(self):
        # `x < y` feeding both a store (via value use) and a branch used
        # to break the original move-based implementation
        src = """
int x = 1;
int y = 2;
int keep = 0;
int main() {
    int c = x < y;
    keep = c;
    if (c == 1) { print(7); }
    return 0;
}
"""
        module, info = protected(src)
        anti_comparison_duplication(module, info)
        verify_module(module)
        assert run_ir(module).output == "7\n"


class TestEagerStore:
    def test_store_precedes_checkers(self):
        src = "int g = 0; int main() { int x = 1; g = x + 2; return 0; }"
        module = compile_source(src)
        duplicate_module(module, store_mode="eager")
        verify_module(module)
        # find the protected store; its checkers must come after it
        fn = module.function("main")
        insts = list(fn.instructions())
        store_pos = [
            i for i, inst in enumerate(insts)
            if inst.opcode == "store" and inst.attrs.get("sync_checked")
        ]
        checker_pos = [
            i for i, inst in enumerate(insts) if inst.is_checker
            and not inst.is_terminator
        ]
        assert store_pos and checker_pos
        assert min(checker_pos) > store_pos[0]


class TestApplyFlowery:
    def test_stats_and_verification(self):
        module, info = protected()
        stats = apply_flowery(module, info)
        assert stats["postponed_branch"] > 0
        verify_module(module)

    def test_partial_application(self):
        module, info = protected()
        stats = apply_flowery(module, info, branch_patch=False)
        assert stats["postponed_branch"] == 0

    def test_full_pipeline_output_stable(self):
        golden = run_ir(compile_source(BRANCHY))
        module, info = protected(store_mode="eager")
        apply_flowery(module, info)
        layout = GlobalLayout(module)
        compiled = compile_program(lower_module(module, layout).flatten())
        assert run_ir(module, layout=layout).output == golden.output
        assert run_asm(compiled, layout).output == golden.output
