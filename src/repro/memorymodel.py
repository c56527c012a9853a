"""Byte-addressable simulated memory shared by the IR interpreter and
the assembly machine.

Layout (single flat address space, one backing ``bytearray``):

::

    0x0000_0000 .. 0x0000_0FFF   unmapped null guard  -> SimTrap("segfault")
    GLOBAL_BASE ..               module globals (sized to fit)
    heap_base   ..               heap region (1 MiB by default)
    stack_limit .. stack_base    downward-growing stack

Both simulation layers use the *same* layout so a program's pointer
values, out-of-bounds behaviour and hence its output bytes are identical
at IR and assembly level — the cross-layer consistency requirement of
the paper's fault model (§2.2).  The heap region is never allocated
from; it fixes where the stack sits, and so which corrupted pointers
land on mapped bytes and which segfault.

Accesses outside the mapped ranges raise :class:`~repro.errors.SimTrap`
with kind ``"segfault"``; this is how injected faults become DUEs.

``mem_budget`` caps the total size of the backing ``bytearray``
(``SimTrap("mem-budget")``): a corrupted layout or an absurd
heap/stack request cannot allocate an unbounded host image (part of
the fault containment contract, DESIGN §11).

Written extents (DESIGN §10)
----------------------------

A run writes a few hundred bytes of a ~1.5 MB image, so the memory
tracks where it has been written: a low extent ``[global_base,
lo_end)`` growing up from the globals and a high extent ``[hi_start,
size)`` growing down from the stack top.  **Every byte outside both is
zero.**  A fresh image starts at ``lo_end = global_end`` (the loader
writes the globals) and ``hi_start = size``.  Every store path tests a
bounds-checked write against the two bounds and calls :meth:`widen`
when it falls between them; :meth:`snapshot` and :meth:`restore` then
copy only the two extents, so checkpoint capture and replay restore
cost O(bytes written), not O(image).
"""

from __future__ import annotations

import struct
from typing import Optional, Tuple, Union

from .errors import SimTrap
from .utils.bits import to_signed, to_unsigned

__all__ = ["Memory", "MemoryImage", "GLOBAL_BASE"]

GLOBAL_BASE = 0x1000
_PACK_F64 = struct.Struct("<d")
#: extent growth granule: a widened bound moves in whole granules, so a
#: run of neighbouring writes widens once rather than once per store
_GRAIN = 256


class MemoryImage:
    """Immutable copy of a :class:`Memory`'s two written extents: the
    bytes of ``[global_base, lo_end)`` and ``[hi_start, size)``, both
    bounds and the image size.  Everything between the extents is
    zero, so the image stands for the whole memory."""

    __slots__ = ("lo", "hi", "lo_end", "hi_start", "size")

    def __init__(self, lo: bytes, hi: bytes, lo_end: int, hi_start: int,
                 size: int):
        self.lo = lo
        self.hi = hi
        self.lo_end = lo_end
        self.hi_start = hi_start
        self.size = size


class Memory:
    """Flat simulated memory with a null guard page and written-extent
    tracking (see the module docstring).

    ``global_size`` must cover every global of the module being run;
    the loader computes it.
    """

    __slots__ = (
        "data",
        "global_base",
        "global_end",
        "heap_base",
        "heap_end",
        "stack_limit",
        "stack_base",
        "size",
        "mem_budget",
        "lo_end",
        "hi_start",
    )

    def __init__(
        self,
        global_size: int,
        heap_size: int = 1 << 20,
        stack_size: int = 1 << 19,
        mem_budget: Optional[int] = None,
    ):
        self.global_base = GLOBAL_BASE
        self.global_end = GLOBAL_BASE + _align(global_size, 16)
        self.heap_base = self.global_end
        self.heap_end = self.heap_base + heap_size
        self.stack_limit = self.heap_end
        self.stack_base = self.stack_limit + stack_size  # grows downward
        self.size = self.stack_base
        self.mem_budget = mem_budget
        if mem_budget is not None and self.size > mem_budget:
            raise SimTrap(
                "mem-budget",
                f"memory image of {self.size} bytes exceeds budget of "
                f"{mem_budget}",
            )
        self.data = bytearray(self.size)
        self.lo_end = self.global_end
        self.hi_start = self.size

    # -- mapping checks ---------------------------------------------------

    def check(self, addr: int, size: int) -> None:
        """Trap unless ``[addr, addr+size)`` is inside the mapped region."""
        if addr < self.global_base or addr + size > self.size:
            raise SimTrap("segfault", f"access of {size} bytes at {addr:#x}")

    # -- written extents ----------------------------------------------------

    def widen(self, addr: int, size: int) -> Tuple[int, int]:
        """Grow the nearer extent to cover the bounds-checked write
        ``[addr, addr+size)``; returns the new ``(lo_end, hi_start)``.

        Store paths call this only when ``addr < hi_start and addr +
        size > lo_end``, but it is safe anywhere: extents never shrink
        here.  When the extents meet, the whole image counts as written
        (``lo_end == hi_start == size``).
        """
        lo_end = self.lo_end
        hi_start = self.hi_start
        end = addr + size
        if end - lo_end <= hi_start - addr:
            grown = (end + _GRAIN - 1) & -_GRAIN
            if grown > lo_end:
                lo_end = grown
        else:
            grown = addr & -_GRAIN
            if grown < hi_start:
                hi_start = grown
        if lo_end >= hi_start:
            lo_end = hi_start = self.size
        self.lo_end = lo_end
        self.hi_start = hi_start
        return lo_end, hi_start

    def snapshot(self) -> MemoryImage:
        """Capture both written extents (O(bytes written))."""
        data = self.data
        lo_end = self.lo_end
        hi_start = self.hi_start
        return MemoryImage(bytes(data[self.global_base:lo_end]),
                           bytes(data[hi_start:self.size]),
                           lo_end, hi_start, self.size)

    def restore(self, image: MemoryImage) -> None:
        """Make this memory byte-identical to the one ``image`` was
        taken from (same geometry, checked by the caller).

        First zero whatever the current extents cover and the image's
        do not — including a stray write a faulty run left — then copy
        the image's two extents and adopt its bounds.
        """
        data = self.data
        lo_end = image.lo_end
        hi_start = image.hi_start
        cur_lo = self.lo_end
        if cur_lo > lo_end:
            stop = cur_lo if cur_lo < hi_start else hi_start
            if stop > lo_end:
                data[lo_end:stop] = bytes(stop - lo_end)
        cur_hi = self.hi_start
        if cur_hi < hi_start:
            start = cur_hi if cur_hi > lo_end else lo_end
            if start < hi_start:
                data[start:hi_start] = bytes(hi_start - start)
        data[self.global_base:lo_end] = image.lo
        data[hi_start:self.size] = image.hi
        self.lo_end = lo_end
        self.hi_start = hi_start

    # -- scalar access --------------------------------------------------------

    def read_int(self, addr: int, size: int, signed: bool = True) -> int:
        self.check(addr, size)
        raw = int.from_bytes(self.data[addr : addr + size], "little")
        return to_signed(raw, size * 8) if signed else raw

    def write_int(self, addr: int, value: int, size: int) -> None:
        self.check(addr, size)
        if addr < self.hi_start and addr + size > self.lo_end:
            self.widen(addr, size)
        self.data[addr : addr + size] = to_unsigned(value, size * 8).to_bytes(
            size, "little"
        )

    def read_f64(self, addr: int) -> float:
        self.check(addr, 8)
        return _PACK_F64.unpack_from(self.data, addr)[0]

    def write_f64(self, addr: int, value: float) -> None:
        self.check(addr, 8)
        if addr < self.hi_start and addr + 8 > self.lo_end:
            self.widen(addr, 8)
        try:
            _PACK_F64.pack_into(self.data, addr, value)
        except (OverflowError, ValueError):
            # A faulty integer pattern reinterpreted as float can overflow
            # struct packing only via NaN payload issues; store a NaN.
            _PACK_F64.pack_into(self.data, addr, float("nan"))

    # -- bulk access (loader) ---------------------------------------------------

    def write_bytes(self, addr: int, payload: Union[bytes, bytearray]) -> None:
        size = len(payload)
        self.check(addr, size)
        if addr < self.hi_start and addr + size > self.lo_end:
            self.widen(addr, size)
        self.data[addr : addr + size] = payload


def _align(n: int, a: int) -> int:
    return (n + a - 1) & ~(a - 1)
