"""Fault containment contract (DESIGN §11) and its chaos fuzzer.

Covers the resource budgets (memory cells, call depth, output bytes),
the host-escape boundary in all four execution paths, the trap-kind
rename back-compat alias, the campaign executor's per-sample exhaustion
guard, and — critically — that the chaos fuzzer *detects* an unguarded
path instead of passing vacuously."""

import pytest

import repro.interp.interpreter as interp_mod
from repro.contain import (
    DEFAULT_MAX_CALL_DEPTH,
    HOST_ESCAPE,
    OutputBuffer,
    containment_enabled,
    host_escape_result,
)
from repro.errors import SimTrap
from repro.execresult import ExecResult, RunStatus
from repro.fi.chaos import CHAOS_SCHEMA, chaos_sweep, render_chaos
from repro.fi.outcomes import (
    Outcome,
    canonical_trap_kind,
    classify_outcome,
)
from repro.fi.campaign import (
    CampaignConfig,
    _execute,
    _Layer,
    run_ir_campaign,
)
from repro.fi.resilience import record_from_row
from repro.interp.interpreter import IRInterpreter
from repro.machine.machine import AsmMachine
from repro.memorymodel import Memory
from repro.pipeline import build_from_source

LOOP_SRC = """
int acc[1] = {0};
int main() {
    for (int i = 0; i < 20; i++) { acc[0] = acc[0] + i; }
    print(acc[0]);
    return 0;
}
"""

RECURSE_SRC = """
int down(int n) {
    if (n <= 0) { return 0; }
    return down(n - 1) + 1;
}
int main() { print(down(30)); return 0; }
"""

PRINT_SRC = """
int main() {
    for (int i = 0; i < 50; i++) { print(i); }
    return 0;
}
"""


@pytest.fixture(scope="module")
def loop_built():
    return build_from_source(LOOP_SRC, name="chaos_loop")


@pytest.fixture(scope="module")
def recurse_built():
    return build_from_source(RECURSE_SRC, name="chaos_rec")


@pytest.fixture(scope="module")
def print_built():
    return build_from_source(PRINT_SRC, name="chaos_print")


def _sims(built, layer, **kw):
    """Both dispatch modes of one simulator configuration."""
    if layer == "ir":
        return [IRInterpreter(built.module, layout=built.layout,
                              dispatch=d, **kw)
                for d in ("naive", "decoded")]
    return [AsmMachine(built.compiled, built.layout, dispatch=d, **kw)
            for d in ("naive", "decoded")]


def _trap_sig(res):
    return (res.status.value, res.trap_kind, res.dyn_total,
            res.dyn_injectable, res.output)


# ---------------------------------------------------------------------------
# resource budgets
# ---------------------------------------------------------------------------

class TestOutputBudget:
    def test_output_buffer_accounting(self):
        buf = OutputBuffer(budget=10)
        buf.append("abc")
        buf.append("defg")
        assert buf.nbytes == 7
        with pytest.raises(SimTrap) as exc:
            buf.append("xxxx")          # would be 11 > 10
        assert exc.value.kind == "output-budget"
        assert list(buf) == ["abc", "defg"]

    def test_slice_assignment_recomputes(self):
        buf = OutputBuffer(budget=100)
        buf.append("abcdef")
        buf[:] = ("xy",)                # the snapshot-restore path
        assert buf.nbytes == 2
        buf.append("z")
        assert buf.nbytes == 3

    @pytest.mark.parametrize("layer", ["ir", "asm"])
    def test_trap_identical_across_modes(self, print_built, layer):
        sigs = [
            _trap_sig(sim.run())
            for sim in _sims(print_built, layer, output_budget=16)
        ]
        assert sigs[0] == sigs[1]
        assert sigs[0][0] == "trap"
        assert sigs[0][1] == "output-budget"


class TestCallDepthBudget:
    @pytest.mark.parametrize("layer", ["ir", "asm"])
    def test_trap_identical_across_modes(self, recurse_built, layer):
        sigs = [
            _trap_sig(sim.run())
            for sim in _sims(recurse_built, layer, max_call_depth=4)
        ]
        assert sigs[0] == sigs[1]
        assert sigs[0][0] == "trap"
        assert sigs[0][1] == "stack-overflow"

    @pytest.mark.parametrize("layer", ["ir", "asm"])
    def test_default_depth_budget_is_inert(self, recurse_built, layer):
        # the default budget sits above what the simulated stack admits,
        # so enabling containment changes nothing for legal programs
        assert DEFAULT_MAX_CALL_DEPTH == 1 << 16
        for sim in _sims(recurse_built, layer):
            res = sim.run()
            assert res.status is RunStatus.OK
            assert res.output == "30\n"


class TestMemBudget:
    def test_memory_construction_trap(self):
        with pytest.raises(SimTrap) as exc:
            Memory(global_size=64, heap_size=1 << 20,
                   stack_size=1 << 19, mem_budget=1 << 10)
        assert exc.value.kind == "mem-budget"

    def test_simulator_constructor_enforces_budget(self, loop_built):
        with pytest.raises(SimTrap) as exc:
            IRInterpreter(loop_built.module, layout=loop_built.layout,
                          mem_budget=1 << 10)
        assert exc.value.kind == "mem-budget"

    def test_within_budget_runs(self, loop_built):
        res = IRInterpreter(loop_built.module, layout=loop_built.layout,
                            mem_budget=1 << 28).run()
        assert res.status is RunStatus.OK


class TestContainSwitch:
    def test_default_on(self, monkeypatch):
        monkeypatch.delenv("REPRO_CONTAIN", raising=False)
        assert containment_enabled(None) is True

    def test_env_off(self, monkeypatch):
        monkeypatch.setenv("REPRO_CONTAIN", "0")
        assert containment_enabled(None) is False
        # an explicit flag always wins over the environment
        assert containment_enabled(True) is True

    def test_uncontained_matches_contained_results(self, loop_built):
        golden = [s.run() for s in _sims(loop_built, "ir", contain=True)]
        raw = [s.run() for s in _sims(loop_built, "ir", contain=False)]
        assert _trap_sig(golden[0]) == _trap_sig(raw[0])
        assert _trap_sig(golden[1]) == _trap_sig(raw[1])


# ---------------------------------------------------------------------------
# host-escape boundary
# ---------------------------------------------------------------------------

class TestHostEscapeBoundary:
    def test_result_shape(self):
        res = host_escape_result(RuntimeError("boom"), layer="asm",
                                 step=7, index=3)
        assert res.status is RunStatus.TRAP
        assert res.trap_kind == HOST_ESCAPE
        info = res.extra["host_escape"]
        assert info["exc_type"] == "RuntimeError"
        assert info["layer"] == "asm"

    def test_ir_injected_exception_is_contained(self, loop_built,
                                                monkeypatch):
        def bomb(self, frame, inst, op):
            raise RuntimeError("host bug under fault")

        monkeypatch.setattr(IRInterpreter, "_compute", bomb)
        res = IRInterpreter(loop_built.module, layout=loop_built.layout,
                            dispatch="naive").run(inject_index=0)
        assert res.status is RunStatus.TRAP
        assert res.trap_kind == HOST_ESCAPE
        assert res.extra["host_escape"]["exc_type"] == "RuntimeError"
        assert res.extra["host_escape"]["layer"] == "ir"

    def test_ir_golden_exception_still_raises(self, loop_built,
                                              monkeypatch):
        def bomb(self, frame, inst, op):
            raise RuntimeError("toolchain bug")

        monkeypatch.setattr(IRInterpreter, "_compute", bomb)
        with pytest.raises(RuntimeError):
            IRInterpreter(loop_built.module, layout=loop_built.layout,
                          dispatch="naive").run()

    def test_ir_uncontained_exception_escapes(self, loop_built,
                                              monkeypatch):
        def bomb(self, frame, inst, op):
            raise RuntimeError("unguarded")

        monkeypatch.setattr(IRInterpreter, "_compute", bomb)
        with pytest.raises(RuntimeError):
            IRInterpreter(loop_built.module, layout=loop_built.layout,
                          dispatch="naive", contain=False,
                          ).run(inject_index=0)

    def test_asm_injected_exception_is_contained(self, loop_built,
                                                 monkeypatch):
        def bomb(self, index):
            raise RuntimeError("host bug under fault")

        # _gpr_dest runs only when the naive loop applies an injection
        monkeypatch.setattr(AsmMachine, "_gpr_dest", bomb)
        res = AsmMachine(loop_built.compiled, loop_built.layout,
                         dispatch="naive").run(inject_index=0)
        assert res.status is RunStatus.TRAP
        assert res.trap_kind == HOST_ESCAPE
        assert res.extra["host_escape"]["layer"] == "asm"

    def test_setup_errors_not_misclassified(self, loop_built):
        # errors before the execution loop arms (e.g. a bad entry
        # symbol) are toolchain bugs, never host-escape DUEs
        from repro.errors import IRError

        with pytest.raises(IRError):
            IRInterpreter(loop_built.module, layout=loop_built.layout,
                          ).run(entry="nonexistent", inject_index=0)


# ---------------------------------------------------------------------------
# trap-kind rename back-compat
# ---------------------------------------------------------------------------

class TestStepBudgetAlias:
    def test_canonical(self):
        assert canonical_trap_kind("timeout") == "step-budget"
        assert canonical_trap_kind("segfault") == "segfault"
        assert canonical_trap_kind(None) is None

    def test_classify_is_pure(self):
        # classify_outcome must understand the alias without mutating
        # the caller's result (a shared ExecResult may be classified
        # against several goldens)
        res = ExecResult(status=RunStatus.TRAP, output="", dyn_total=5,
                         dyn_injectable=2, trap_kind="timeout")
        assert classify_outcome(res, "x") is Outcome.DUE
        assert res.trap_kind == "timeout"

    def test_record_from_row_canonicalizes(self):
        row = (3, 17, "trap", "", None, None, None, None, "timeout")
        outcome, rec = record_from_row(row, "golden")
        assert outcome is Outcome.DUE
        assert rec.trap_kind == "step-budget"


# ---------------------------------------------------------------------------
# campaign executor: per-sample exhaustion guard
# ---------------------------------------------------------------------------

class TestResilienceGuard:
    @pytest.mark.parametrize("exc", [MemoryError, RecursionError])
    def test_worker_side_exhaustion_is_a_trap_row(self, loop_built,
                                                  monkeypatch, exc):
        def bomb(self, *a, **kw):
            raise exc("resource exhausted")

        monkeypatch.setattr(IRInterpreter, "run", bomb)
        rows = {}
        _execute(_Layer.of(loop_built, "ir"), [(0, 0, 0)], 1000,
                 rows.__setitem__, engine=False)
        row = rows[0]
        assert row[2] == "trap"
        assert row[-3] == HOST_ESCAPE
        assert row[-2] == "seu"
        assert row[-1] == 0
        outcome, rec = record_from_row(row, "golden")
        assert outcome is Outcome.DUE
        assert rec.trap_kind == HOST_ESCAPE

    @pytest.mark.parametrize("exc", [MemoryError, RecursionError])
    def test_serial_naive_campaign_survives_exhaustion(
            self, loop_built, monkeypatch, exc):
        # only injected runs exhaust the host: the golden run finishes,
        # and every injection becomes a host-escape DUE instead of
        # killing the campaign
        run = IRInterpreter.run

        def bomb(self, *a, **kw):
            if kw.get("inject_index") is not None:
                raise exc("resource exhausted")
            return run(self, *a, **kw)

        monkeypatch.setattr(IRInterpreter, "run", bomb)
        res = run_ir_campaign(loop_built.module,
                              CampaignConfig(n_campaigns=6, seed=1),
                              loop_built.layout, engine=False)
        assert res.counts[Outcome.DUE] == 6
        assert all(r.trap_kind == HOST_ESCAPE for r in res.records)


# ---------------------------------------------------------------------------
# the chaos fuzzer itself
# ---------------------------------------------------------------------------

class TestChaosSweep:
    def test_smoke_sweep_holds_invariant(self):
        report = chaos_sweep(benchmarks=["crc32", "pathfinder"],
                             scale="tiny", n=6, seed=7)
        assert report.ok
        # 2 benchmarks x 2 layers x 3 fault models x 3 dispatch tiers
        # x 6 injections
        assert report.injections == 2 * 2 * 3 * 3 * 6
        assert report.classified == report.injections
        assert not report.escapes and not report.divergences
        assert sum(report.outcome_counts.values()) == report.classified
        doc = report.to_doc()
        assert doc["schema"] == CHAOS_SCHEMA
        assert doc["ok"] is True
        assert "HELD" in render_chaos(report)

    def test_sweep_is_deterministic(self):
        a = chaos_sweep(benchmarks=["crc32"], scale="tiny", n=5, seed=3)
        b = chaos_sweep(benchmarks=["crc32"], scale="tiny", n=5, seed=3)
        assert a.to_doc() == b.to_doc()

    def test_fuzzer_finds_unguarded_path(self, monkeypatch):
        # deliberately un-guard the IR flip: with containment off the
        # fuzzer must FIND the escape (it passing here proves the sweep
        # is not vacuous) and report a working minimized reproducer
        def bomb(value, ty, bit):
            raise RuntimeError("chaos-unguarded flip")

        monkeypatch.setattr(interp_mod, "_flip_value", bomb)
        report = chaos_sweep(benchmarks=["crc32"], scale="tiny", n=8,
                             seed=7, layers=("ir",), contain=False)
        assert report.escapes
        assert not report.ok
        esc = report.escapes[0]
        assert esc.exc_type == "RuntimeError"
        assert "VIOLATED" in render_chaos(report)
        assert str(esc.index) in esc.reproducer()

        # the reproducer replays: same injection, same escape
        built = build_from_source(
            __import__("repro.benchsuite.registry",
                       fromlist=["load_source"]).load_source(
                           esc.benchmark, "tiny"),
            name=esc.benchmark)
        sim = IRInterpreter(built.module, layout=built.layout,
                            dispatch=esc.dispatch, contain=False)
        with pytest.raises(RuntimeError):
            sim.run(inject_index=esc.index, inject_bit=esc.bit)

    def test_boundary_contains_the_same_faults(self, monkeypatch):
        # identical fault, containment on: zero escapes, everything
        # classified as a host-escape DUE, all dispatch tiers agree
        def bomb(value, ty, bit):
            raise RuntimeError("chaos-unguarded flip")

        monkeypatch.setattr(interp_mod, "_flip_value", bomb)
        report = chaos_sweep(benchmarks=["crc32"], scale="tiny", n=8,
                             seed=7, layers=("ir",), contain=True)
        assert report.ok
        assert not report.escapes and not report.divergences
        assert report.trap_counts.get(HOST_ESCAPE, 0) > 0

    def test_fuzzer_finds_unguarded_path_in_generated_code(
            self, monkeypatch):
        # generated code routes flips through the same late
        # module-attribute lookup as the step loops, so the fuzzer must
        # find an unguarded fault *inside exec-compiled source* too —
        # this proves the codegen sweep is not vacuous
        def bomb(value, ty, bit):
            raise RuntimeError("chaos-unguarded flip")

        monkeypatch.setattr(interp_mod, "_flip_value", bomb)
        report = chaos_sweep(benchmarks=["crc32"], scale="tiny", n=8,
                             seed=7, layers=("ir",),
                             dispatches=("codegen",), contain=False)
        assert report.escapes and not report.ok
        assert all(e.dispatch == "codegen" for e in report.escapes)
        assert all(e.exc_type == "RuntimeError" for e in report.escapes)

    def test_codegen_faults_cannot_escape_past_boundary(self,
                                                        monkeypatch):
        # the same faults inside generated code, containment on: zero
        # escapes — every one is caught at the host-escape boundary and
        # classified as a DUE, bit-identical to the naive tier
        def bomb(value, ty, bit):
            raise RuntimeError("chaos-unguarded flip")

        monkeypatch.setattr(interp_mod, "_flip_value", bomb)
        report = chaos_sweep(benchmarks=["crc32"], scale="tiny", n=8,
                             seed=7, layers=("ir",),
                             dispatches=("naive", "codegen"),
                             contain=True)
        assert report.ok
        assert not report.escapes and not report.divergences
        assert report.trap_counts.get(HOST_ESCAPE, 0) > 0

    def test_replays_are_checks_not_injections(self):
        report = chaos_sweep(benchmarks=["crc32"], scale="tiny", n=6,
                             seed=7)
        assert report.ok
        # 2 layers x 3 fault models x 3 dispatch tiers x 6 injections
        assert report.injections == 2 * 3 * 3 * 6
        assert report.classified == report.injections
        # each distinct draw replays on the decoded and codegen tiers
        assert 0 < report.replays <= 2 * 3 * 2 * 6
        assert report.to_doc()["replays"] == report.replays
        assert "checkpoint replays checked" in render_chaos(report)

    def test_replays_find_a_leaky_restore(self, monkeypatch):
        # a written extent that misses wild heap writes lets one faulty
        # replay's leftovers survive the next restore; fresh full runs
        # cannot see that, the sweep's checkpoint replays must
        widen = Memory.widen

        def leaky(self, addr, size):
            if addr < 1 << 20:
                return self.lo_end, self.hi_start
            return widen(self, addr, size)

        monkeypatch.setattr(Memory, "widen", leaky)
        report = chaos_sweep(benchmarks=["bfs"], scale="tiny", n=60,
                             seed=2023, layers=("ir",),
                             fault_models=("seu",))
        assert not report.ok
        assert report.divergences
        assert all(d.other_dispatch.endswith("-replay")
                   for d in report.divergences)
