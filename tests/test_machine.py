"""Tests for the assembly machine: semantics, traps, injection."""

import pytest

from repro.execresult import RunStatus
from repro.machine.machine import AsmMachine, compile_program, run_asm
from repro.trace.tap import MachineCountTap

from tests.helpers import compile_and_build


def asm_out(src: str, **kwargs):
    _, layout, _, compiled = compile_and_build(src)
    return run_asm(compiled, layout, **kwargs)


class TestSemantics:
    @pytest.mark.parametrize(
        "expr,expected",
        [
            ("5 + 6", "11"),
            ("5 - 9", "-4"),
            ("-6 * 7", "-42"),
            ("17 / -5", "-3"),
            ("-17 % 5", "-2"),
            ("1 << 62", str(1 << 62)),
            ("-64 >> 3", "-8"),
            ("0xF0 & 0x3C", str(0xF0 & 0x3C)),
            ("0xF0 | 0x0F", "255"),
            ("0xFF ^ 0x0F", "240"),
            ("(3 < 4) + (4 < 3)", "1"),
            ("1.5 * 4.0", "6"),
            ("7.0 / 2.0", "3.5"),
            ("int(9.99)", "9"),
            ("float(3) / 2.0", "1.5"),
        ],
    )
    def test_expressions(self, expr, expected):
        res = asm_out(f"int main() {{ print({expr}); return 0; }}")
        assert res.status is RunStatus.OK
        assert res.output == expected + "\n"

    def test_nan_comparisons_all_false(self):
        src = """
int main() {
    float n = sqrt(-1.0);
    print(n < 1.0);
    print(n > 1.0);
    print(n == n);
    print(n != n);
    return 0;
}
"""
        # ordered predicates: everything false on NaN (incl. one/!=)
        assert asm_out(src).output == "0\n0\n0\n0\n"

    def test_signed_compares(self):
        src = "int main() { int a = -1; int b = 1; print(a < b); return 0; }"
        assert asm_out(src).output == "1\n"

    def test_recursion_and_stack(self):
        src = """
int depth(int n) { if (n == 0) { return 0; } return 1 + depth(n - 1); }
int main() { print(depth(50)); return 0; }
"""
        assert asm_out(src).output == "50\n"


class TestTraps:
    def test_div_by_zero(self):
        res = asm_out("int main() { int z = 0; print(5 / z); return 0; }")
        assert res.status is RunStatus.TRAP
        assert res.trap_kind == "div-by-zero"

    def test_wild_store_segfaults(self):
        src = """
int a[2];
int main() { int i = -90000000; a[i] = 1; return 0; }
"""
        res = asm_out(src)
        assert res.status is RunStatus.TRAP
        assert res.trap_kind == "segfault"

    def test_infinite_recursion_overflows_stack(self):
        src = "int f(int n) { return f(n); } int main() { return f(1); }"
        res = asm_out(src, max_steps=2_000_000)
        assert res.status is RunStatus.TRAP
        assert res.trap_kind in ("stack-overflow", "step-budget")

    def test_timeout(self):
        res = asm_out("int main() { while (1) { } return 0; }",
                      max_steps=500)
        assert res.status is RunStatus.TRAP
        assert res.trap_kind == "step-budget"
        assert res.dyn_total > 0


class TestCounting:
    def test_deterministic(self, sink_built):
        _, layout, _, compiled = sink_built
        a = run_asm(compiled, layout)
        b = run_asm(compiled, layout)
        assert (a.dyn_total, a.dyn_injectable) == (b.dyn_total, b.dyn_injectable)
        assert a.output == b.output

    def test_injectable_subset_of_total(self, sink_built):
        _, layout, _, compiled = sink_built
        res = run_asm(compiled, layout)
        assert 0 < res.dyn_injectable < res.dyn_total

    def test_profile_counts(self, sink_built):
        _, layout, _, compiled = sink_built
        tap = MachineCountTap()
        res = run_asm(compiled, layout, trace=tap)
        assert sum(tap.counts.values()) == res.dyn_total

    def test_injectable_static_sites_consistent(self, sink_built):
        _, layout, _, compiled = sink_built
        tap = MachineCountTap()
        res = run_asm(compiled, layout, trace=tap)
        dynamic_injectable = sum(
            n for idx, n in tap.counts.items()
            if compiled.inj_kind[idx]
        )
        assert dynamic_injectable == res.dyn_injectable


class TestInjection:
    def test_attribution_fields(self, sink_built):
        _, layout, _, compiled = sink_built
        res = run_asm(compiled, layout, inject_index=5, inject_bit=1)
        assert res.injected
        assert res.extra["asm_index"] is not None
        assert res.extra["asm_role"]
        assert res.extra["asm_opcode"]

    def test_out_of_range_noop(self, sink_built):
        _, layout, _, compiled = sink_built
        golden = run_asm(compiled, layout)
        res = run_asm(compiled, layout,
                      inject_index=golden.dyn_injectable + 1)
        assert not res.injected
        assert res.output == golden.output

    def test_determinism(self, sink_built):
        _, layout, _, compiled = sink_built
        a = run_asm(compiled, layout, inject_index=33, inject_bit=17)
        b = run_asm(compiled, layout, inject_index=33, inject_bit=17)
        assert a.status == b.status and a.output == b.output
        assert a.extra.get("asm_index") == b.extra.get("asm_index")

    def test_flags_injection_can_flip_branch(self):
        # inject into every dynamic site of a branchy program with bit
        # pattern 0 (flips ZF on flag sites) — at least one run must take
        # the wrong branch
        src = """
int main() {
    int x = 3;
    if (x > 10) { print(111); } else { print(222); }
    return 0;
}
"""
        _, layout, _, compiled = compile_and_build(src)
        golden = run_asm(compiled, layout)
        outputs = set()
        for i in range(golden.dyn_injectable):
            for bit in range(5):  # cover all five FLAGS bits
                r = run_asm(compiled, layout, inject_index=i, inject_bit=bit,
                            max_steps=10_000)
                if r.status is RunStatus.OK:
                    outputs.add(r.output)
        assert "111\n" in outputs

    def test_gpr_injection_changes_value(self):
        src = "int main() { int x = 0; print(x + 0); return 0; }"
        _, layout, _, compiled = compile_and_build(src)
        golden = run_asm(compiled, layout)
        changed = 0
        for i in range(golden.dyn_injectable):
            r = run_asm(compiled, layout, inject_index=i, inject_bit=40,
                        max_steps=10_000)
            if r.status is not RunStatus.OK or r.output != golden.output:
                changed += 1
        assert changed > 0


class TestCompilation:
    def test_all_benchmark_opcodes_compile(self, sink_built):
        _, _, asm, compiled = sink_built
        assert len(compiled.uops) == len(asm.flatten().insts)

    def test_injectable_static_indices(self, sink_built):
        _, _, _, compiled = sink_built
        for idx in compiled.injectable_static:
            assert compiled.inj_kind[idx] != 0
