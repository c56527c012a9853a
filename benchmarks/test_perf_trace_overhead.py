"""Overhead guard for the trace taps (<2% when disabled).

A tap is the simulators' one per-step observation mechanism: with no
tap attached, each hot-loop iteration tests exactly one pre-hoisted
local (``hook is not None``).  This guard measures that claim directly
by timing many interleaved disabled-vs-baseline runs, and also
sanity-checks the enabled modes (sync tracing should stay within a
small constant factor, and the disabled path must never be slower than
the enabled one).

Timing comparisons on shared CI boxes are noisy, so the guard takes
the median per-pair ratio of many interleaved pairs (alternating which
runner goes first, with the garbage collector paused while timing) and
a small alignment slack on top of the 2% budget.
"""

import gc
import statistics
import time

import pytest

from repro.interp.interpreter import IRInterpreter
from repro.machine.machine import AsmMachine
from repro.pipeline import build
from repro.trace import TraceConfig

#: the documented guarantee, plus slack for timer/code-alignment noise
OVERHEAD_BUDGET = 0.02
NOISE_SLACK = 0.03
ROUNDS = 21


@pytest.fixture(scope="module")
def crc32_built():
    return build("crc32", scale="small")


def _median_seconds(fn, rounds=ROUNDS):
    times = []
    for _ in range(rounds):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def _paired_overhead(baseline, candidate, rounds=ROUNDS):
    """Median over interleaved pairs of ``candidate / baseline - 1``.

    Each pair times the two runners back to back, so drift hits both
    alike; the first runner alternates between pairs, so neither side
    always pays the warm-up; and the collector is paused while timing
    (it runs between pairs instead), so its pauses land on neither."""
    ratios = []
    enabled = gc.isenabled()
    gc.disable()
    try:
        for i in range(rounds):
            gc.collect()
            secs = {}
            for fn in ((baseline, candidate) if i % 2 == 0
                       else (candidate, baseline)):
                t0 = time.perf_counter()
                fn()
                secs[fn] = time.perf_counter() - t0
            ratios.append(secs[candidate] / secs[baseline])
    finally:
        if enabled:
            gc.enable()
    return statistics.median(ratios) - 1.0


class TestDisabledOverhead:
    def test_ir_interpreter_disabled_overhead(self, crc32_built):
        built = crc32_built

        def baseline():
            assert IRInterpreter(
                built.module, layout=built.layout
            ).run().status.value == "ok"

        # "disabled" IS the default: trace=None.  The candidate is the
        # same constructor spelled with the kwarg, so any accidental
        # per-step cost added by the tap integration shows up here.
        def disabled():
            assert IRInterpreter(
                built.module, layout=built.layout, trace=None
            ).run().status.value == "ok"

        overhead = _paired_overhead(baseline, disabled)
        assert overhead < OVERHEAD_BUDGET + NOISE_SLACK, (
            f"disabled IR tracing overhead {overhead:.1%} "
            f"exceeds the <{OVERHEAD_BUDGET:.0%} guarantee"
        )

    def test_asm_machine_disabled_overhead(self, crc32_built):
        built = crc32_built

        def baseline():
            assert AsmMachine(
                built.compiled, built.layout
            ).run().status.value == "ok"

        def disabled():
            assert AsmMachine(
                built.compiled, built.layout, trace=None
            ).run().status.value == "ok"

        overhead = _paired_overhead(baseline, disabled)
        assert overhead < OVERHEAD_BUDGET + NOISE_SLACK, (
            f"disabled asm tracing overhead {overhead:.1%} "
            f"exceeds the <{OVERHEAD_BUDGET:.0%} guarantee"
        )

    def test_disabled_loop_does_no_tracking_work(self, crc32_built):
        # structural half of the guarantee: with trace=None the
        # simulators hold no tap and take the `hook is None` per-step
        # path (one local test)
        interp = IRInterpreter(crc32_built.module,
                               layout=crc32_built.layout)
        assert interp.tracer is None
        machine = AsmMachine(crc32_built.compiled, crc32_built.layout)
        assert machine.tracer is None

    def test_disabled_not_slower_than_sync_tracing(self, crc32_built):
        built = crc32_built

        def disabled():
            IRInterpreter(built.module, layout=built.layout).run()

        def enabled():
            IRInterpreter(built.module, layout=built.layout,
                          trace=TraceConfig()).run()

        off = _median_seconds(disabled, rounds=9)
        on = _median_seconds(enabled, rounds=9)
        assert off <= on * 1.05, (
            "tracing disabled should never cost more than enabled "
            f"(off={off:.4f}s on={on:.4f}s)"
        )


def test_sync_tracing_throughput(benchmark, crc32_built):
    """Record the enabled-mode cost alongside the simulator benchmarks."""
    built = crc32_built

    def run():
        return IRInterpreter(
            built.module, layout=built.layout, trace=TraceConfig()
        ).run()

    result = benchmark(run)
    assert result.status.value == "ok"
    assert result.extra["trace"].sync
