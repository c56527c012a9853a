"""Host speed, sampled while a workload runs, to take host drift out of
the time metrics.

The benchmark's VM shares its cores with other tenants, and their load
slows every instruction: an identical campaign's CPU time swings by
±30% over minutes, in step with its wall time.  So does the time of a
fixed piece of pure-Python work that imports nothing from :mod:`repro`:
:func:`work`, a miniature of what the simulators do (dispatch through a
table, register arithmetic, byte loads and stores, and block copies of
a memory image, like a checkpoint).

Each time metric is reported at the reference host speed::

    at reference = measured × REFERENCE_S ÷ mean(samples of work())

where the samples are taken in a background thread while the measured
code runs.  The mean, not the median: the host switches between
contended and quiet spells, and a body's time adds up both, in
proportion.  The factor comes from code outside :mod:`repro`, so a
slower program still reads slower; what it removes is the host's
share.  The raw times stay in the run's JSON document.
"""

from __future__ import annotations

import statistics
import threading
import time
from typing import List

#: :func:`work` time (thread CPU seconds) at the reference host speed.
#: Any constant works; on the 2-vCPU VM the baselines in ``README.md``
#: come from, the mean over one campaign ranged 0.7–1.4 ms with a
#: median near this value, so reference times stay close to raw ones.
REFERENCE_S = 1.0e-3
#: seconds between two samples of the background sampler
PERIOD = 0.05
#: bytes of the memory image :func:`work` loads, stores and copies
IMAGE_BYTES = 1 << 16

_PROGRAM = tuple((i % 4, i % 8, (i * 5 + 3) % 8, (i * 613) % 4096)
                 for i in range(96))


def _add(regs, a, b, mem, addr):
    regs[a] = (regs[a] + regs[b]) & 0xFFFFFFFF


def _xor(regs, a, b, mem, addr):
    regs[a] ^= (regs[b] << 3) & 0xFFFF


def _load(regs, a, b, mem, addr):
    regs[a] = mem[addr] | (regs[b] & 0xFF00)


def _store(regs, a, b, mem, addr):
    mem[addr] = regs[b] & 0xFF


_OPS = (_add, _xor, _load, _store)


def work(rounds: int = 48) -> int:
    """A fixed amount of interpreter-like work (about 1 ms)."""
    regs = [1, 2, 3, 5, 8, 13, 21, 34]
    mem = bytearray(IMAGE_BYTES)
    for _ in range(rounds):
        for op, a, b, addr in _PROGRAM:
            _OPS[op](regs, a, b, mem, addr)
        mem[4096:8192] = mem[:4096]
    return regs[0]


def sample() -> float:
    """Thread CPU seconds of one :func:`work` call.  CPU time, not wall
    time: it excludes whatever else holds the GIL meanwhile."""
    t0 = time.thread_time()
    work()
    return time.thread_time() - t0


def at_reference(seconds: float, host_s: float) -> float:
    """``seconds`` measured while :func:`work` took ``host_s`` on
    average, scaled to the reference host speed."""
    return seconds * REFERENCE_S / host_s


class Sampler:
    """Samples :func:`work` every :data:`PERIOD` seconds in a background
    thread while the ``with`` block runs.  It costs the block about
    ``REFERENCE_S / PERIOD`` (2%) of its time, the same on every run."""

    def __init__(self):
        self.samples: List[float] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self):
        while not self._stop.wait(PERIOD):
            self.samples.append(sample())

    def __enter__(self) -> "Sampler":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()
        if not self.samples:
            # a block shorter than one period still gets a measure
            self.samples.append(sample())

    def host_s(self) -> float:
        """Mean :func:`work` time over the block."""
        return statistics.fmean(self.samples)
