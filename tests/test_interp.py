"""Tests for the IR interpreter: semantics, traps, fault injection."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.execresult import RunStatus
from repro.frontend.codegen import compile_source
from repro.interp.interpreter import IRInterpreter, run_ir
from repro.interp.layout import GlobalLayout
from repro.ir import types as T
from repro.ir.builder import IRBuilder
from repro.ir.module import Module
from repro.ir.types import function_type
from repro.trace.tap import IRCountTap


def run_minic(src: str, **kwargs):
    return run_ir(compile_source(src), **kwargs)


def expr_program(expr: str) -> str:
    return f"int main() {{ print({expr}); return 0; }}"


class TestArithmeticSemantics:
    @pytest.mark.parametrize(
        "expr,expected",
        [
            ("1 + 2", "3"),
            ("7 - 10", "-3"),
            ("6 * 7", "42"),
            ("17 / 5", "3"),
            ("-17 / 5", "-3"),        # C truncation toward zero
            ("17 % 5", "2"),
            ("-17 % 5", "-2"),        # C remainder sign
            ("1 << 10", "1024"),
            ("-32 >> 2", "-8"),       # arithmetic shift
            ("12 & 10", "8"),
            ("12 | 10", "14"),
            ("12 ^ 10", "6"),
            ("~5", "-6"),
            ("-(3 + 4)", "-7"),
            ("!0", "1"),
            ("!7", "0"),
            ("3 < 5", "1"),
            ("5 <= 4", "0"),
            ("4 == 4", "1"),
            ("4 != 4", "0"),
            ("1 && 0", "0"),
            ("1 && 2", "1"),
            ("0 || 0", "0"),
            ("0 || 9", "1"),
        ],
    )
    def test_int_expressions(self, expr, expected):
        assert run_minic(expr_program(expr)).output == expected + "\n"

    @pytest.mark.parametrize(
        "expr,expected",
        [
            ("1.5 + 2.25", "3.75"),
            ("10.0 / 4.0", "2.5"),
            ("2.0 * -3.5", "-7"),
            ("float(7) / 2.0", "3.5"),
            ("int(3.99)", "3"),
            ("int(-3.99)", "-3"),
            ("1 + 0.5", "1.5"),       # int promotes to float
            ("3.0 < 4.0", "1"),
        ],
    )
    def test_float_expressions(self, expr, expected):
        assert run_minic(expr_program(expr)).output == expected + "\n"

    def test_division_by_zero_traps(self):
        res = run_minic("int main() { int z = 0; print(1 / z); return 0; }")
        assert res.status is RunStatus.TRAP
        assert res.trap_kind == "div-by-zero"

    def test_float_division_by_zero_is_inf(self):
        res = run_minic("int main() { float z = 0.0; print(1.0 / z); return 0; }")
        assert res.status is RunStatus.OK
        assert res.output == "inf\n"

    def test_shift_masking(self):
        # shift counts wrap mod 64, matching x86
        assert run_minic(expr_program("1 << 64")).output == "1\n"

    def test_overflow_wraps(self):
        src = """
int main() {
    int big = 9223372036854775807;
    print(big + 1);
    return 0;
}
"""
        assert run_minic(src).output == "-9223372036854775808\n"


class TestControlFlowAndMemory:
    def test_global_arrays_persist(self):
        src = """
int acc[4];
int main() {
    for (int i = 0; i < 4; i++) { acc[i] = i * i; }
    print(acc[0] + acc[1] + acc[2] + acc[3]);
    return 0;
}
"""
        assert run_minic(src).output == "14\n"

    def test_local_array(self):
        src = """
int main() {
    int a[3] = {10, 20, 30};
    a[1] += 5;
    print(a[0] + a[1] + a[2]);
    return 0;
}
"""
        assert run_minic(src).output == "65\n"

    def test_out_of_bounds_global_traps_or_corrupts(self):
        # writing far out of bounds hits unmapped memory
        src = """
int a[2];
int main() {
    int i = -100000000;
    a[i] = 1;
    return 0;
}
"""
        res = run_minic(src)
        assert res.status is RunStatus.TRAP
        assert res.trap_kind == "segfault"

    def test_deep_recursion_overflows(self):
        src = """
int down(int n) { return down(n + 1); }
int main() { print(down(0)); return 0; }
"""
        res = run_minic(src)
        assert res.status is RunStatus.TRAP
        assert res.trap_kind in ("stack-overflow", "step-budget")

    def test_timeout(self):
        src = "int main() { while (1) { } return 0; }"
        res = run_minic(src, max_steps=1000)
        assert res.status is RunStatus.TRAP
        assert res.trap_kind == "step-budget"

    def test_break_continue(self):
        src = """
int main() {
    int s = 0;
    for (int i = 0; i < 10; i++) {
        if (i % 2 == 0) { continue; }
        if (i > 6) { break; }
        s += i;
    }
    print(s);
    return 0;
}
"""
        assert run_minic(src).output == "9\n"  # 1+3+5


class TestIntrinsics:
    def test_math_intrinsics(self):
        src = """
int main() {
    print(sqrt(16.0));
    print(fabs(-2.5));
    print(pow(2.0, 10.0));
    print(floor(3.7));
    return 0;
}
"""
        assert run_minic(src).output == "4\n2.5\n1024\n3\n"

    def test_domain_error_yields_nan(self):
        assert run_minic(expr_program("sqrt(-1.0)")).output == "nan\n"

    def test_print_char_and_strings(self):
        src = 'int main() { prints("hi"); printc(33); return 0; }'
        assert run_minic(src).output == "hi!"


class TestCounting:
    def test_dynamic_counts_deterministic(self, sink_module):
        a = run_ir(sink_module)
        b = run_ir(sink_module)
        assert a.dyn_total == b.dyn_total
        assert a.dyn_injectable == b.dyn_injectable
        assert 0 < a.dyn_injectable < a.dyn_total

    def test_profile_counts_sum_to_total(self, sink_module):
        tap = IRCountTap()
        res = run_ir(sink_module, trace=tap)
        assert sum(tap.counts.values()) == res.dyn_total

    def test_stores_and_branches_not_injectable(self):
        src = """
int g = 0;
int main() {
    g = 1;
    if (g > 0) { g = 2; }
    return 0;
}
"""
        module = compile_source(src)
        tap = IRCountTap()
        res = run_ir(module, trace=tap)
        injectable_sites = sum(
            tap.counts.get(i.iid, 0)
            for i in module.instructions()
            if i.is_ir_injection_site
        )
        assert injectable_sites == res.dyn_injectable


class TestInjection:
    def test_out_of_range_index_is_noop(self, sink_module):
        golden = run_ir(sink_module)
        res = run_ir(sink_module, inject_index=golden.dyn_injectable + 100)
        assert not res.injected
        assert res.output == golden.output

    def test_injection_flags_and_attribution(self, sink_module):
        res = run_ir(sink_module, inject_index=0, inject_bit=3)
        assert res.injected
        assert res.injected_iid is not None

    def test_injection_changes_behaviour_somewhere(self, sink_module):
        golden = run_ir(sink_module)
        changed = 0
        for i in range(0, min(60, golden.dyn_injectable)):
            r = run_ir(sink_module, inject_index=i, inject_bit=62,
                       max_steps=golden.dyn_total * 4)
            if r.status is not RunStatus.OK or r.output != golden.output:
                changed += 1
        assert changed > 0

    def test_same_injection_is_deterministic(self, sink_module):
        a = run_ir(sink_module, inject_index=17, inject_bit=5)
        b = run_ir(sink_module, inject_index=17, inject_bit=5)
        assert a.status == b.status and a.output == b.output
        assert a.injected_iid == b.injected_iid

    def test_i1_flip_stays_boolean_ish(self):
        # a fault in an icmp result flips the branch decision
        src = """
int main() {
    int x = 5;
    if (x < 10) { print(1); } else { print(2); }
    return 0;
}
"""
        module = compile_source(src)
        golden = run_ir(module)
        # find the icmp's injectable position: scan all and look for the
        # flipped-branch output
        flipped = False
        for i in range(golden.dyn_injectable):
            r = run_ir(module, inject_index=i, inject_bit=0,
                       max_steps=10_000)
            if r.status is RunStatus.OK and r.output == "2\n":
                flipped = True
                break
        assert flipped


class TestArgsAndReturns:
    def test_entry_args(self):
        m = Module("t")
        fn = m.add_function("addmul", function_type(T.I64, [T.I64, T.I64]))
        b = IRBuilder(fn)
        b.set_block(b.new_block("entry"))
        s = b.add(fn.args[0], fn.args[1])
        b.ret(b.mul(s, s))
        res = run_ir(m, entry="addmul", args=(3, 4))
        assert res.return_value == 49

    def test_wrong_arity(self):
        m = Module("t")
        fn = m.add_function("f", function_type(T.I64, [T.I64]))
        b = IRBuilder(fn)
        b.set_block(b.new_block("entry"))
        b.ret(fn.args[0])
        from repro.errors import IRError

        with pytest.raises(IRError):
            run_ir(m, entry="f", args=())


@settings(max_examples=30, deadline=None)
@given(st.integers(-1000, 1000), st.integers(-1000, 1000))
def test_property_add_matches_python(a, b):
    src = f"int main() {{ print({a} + {b}); return 0; }}"
    assert run_minic(src).output.strip() == str(a + b)


@settings(max_examples=30, deadline=None)
@given(st.integers(-100, 100), st.integers(1, 50))
def test_property_divmod_c_semantics(a, b):
    src = f"int main() {{ print({a} / {b}); print({a} % {b}); return 0; }}"
    q = abs(a) // abs(b)
    if (a < 0) != (b < 0):
        q = -q
    r = a - q * b
    assert run_minic(src).output == f"{q}\n{r}\n"
