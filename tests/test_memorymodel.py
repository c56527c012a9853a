"""Unit + property tests for the shared simulated memory."""

import pytest
from hypothesis import given, strategies as st

from repro.errors import SimTrap
from repro.memorymodel import GLOBAL_BASE, Memory


@pytest.fixture
def mem():
    return Memory(global_size=256, heap_size=4096, stack_size=4096)


class TestLayout:
    def test_segments_are_ordered(self, mem):
        assert GLOBAL_BASE == mem.global_base
        assert mem.global_base < mem.global_end <= mem.heap_base
        assert mem.heap_base < mem.heap_end == mem.stack_limit
        assert mem.stack_limit < mem.stack_base == mem.size

    def test_null_page_unmapped(self, mem):
        with pytest.raises(SimTrap) as exc:
            mem.read_int(0, 8)
        assert exc.value.kind == "segfault"

    def test_oob_high(self, mem):
        with pytest.raises(SimTrap):
            mem.read_int(mem.size - 4, 8)


class TestScalarAccess:
    def test_int_roundtrip_signed(self, mem):
        mem.write_int(GLOBAL_BASE, -12345, 8)
        assert mem.read_int(GLOBAL_BASE, 8) == -12345

    def test_int_roundtrip_unsigned_view(self, mem):
        mem.write_int(GLOBAL_BASE, -1, 8)
        assert mem.read_int(GLOBAL_BASE, 8, signed=False) == (1 << 64) - 1

    def test_byte_access(self, mem):
        mem.write_int(GLOBAL_BASE, 0x7F, 1)
        assert mem.read_int(GLOBAL_BASE, 1) == 0x7F
        mem.write_int(GLOBAL_BASE, 0xFF, 1)
        assert mem.read_int(GLOBAL_BASE, 1) == -1
        assert mem.read_int(GLOBAL_BASE, 1, signed=False) == 255

    def test_f64_roundtrip(self, mem):
        mem.write_f64(GLOBAL_BASE + 8, 3.14159)
        assert mem.read_f64(GLOBAL_BASE + 8) == 3.14159

    def test_little_endian(self, mem):
        mem.write_int(GLOBAL_BASE, 0x0102030405060708, 8)
        assert mem.read_int(GLOBAL_BASE, 1, signed=False) == 0x08

    @given(st.integers(-(1 << 63), (1 << 63) - 1))
    def test_i64_roundtrip_property(self, value):
        m = Memory(global_size=64)
        m.write_int(GLOBAL_BASE, value, 8)
        assert m.read_int(GLOBAL_BASE, 8) == value

    @given(st.floats(allow_nan=False))
    def test_f64_roundtrip_property(self, value):
        m = Memory(global_size=64)
        m.write_f64(GLOBAL_BASE, value)
        assert m.read_f64(GLOBAL_BASE) == value


class TestBulkAccess:
    def test_bulk_oob(self, mem):
        with pytest.raises(SimTrap):
            mem.write_bytes(mem.size - 4, b"too long")



# writes anywhere in a small image: (address, size, value)
_writes = st.lists(
    st.tuples(st.integers(GLOBAL_BASE, GLOBAL_BASE + 256 + 8192 - 8),
              st.sampled_from([1, 2, 4, 8]),
              st.integers(-(1 << 63), (1 << 63) - 1)),
    max_size=12)


def _small():
    return Memory(global_size=256, heap_size=4096, stack_size=4096)


def _apply(mem, writes):
    for addr, size, value in writes:
        mem.write_int(addr, value, size)


def _outside_extents_zero(mem):
    return not any(mem.data[:mem.global_base]) and \
        not any(mem.data[mem.lo_end:mem.hi_start])


class TestWrittenExtent:
    def test_fresh_image_covers_only_the_globals(self, mem):
        assert mem.lo_end == mem.global_end
        assert mem.hi_start == mem.size
        img = mem.snapshot()
        assert len(img.lo) == mem.global_end - mem.global_base
        assert img.hi == b""

    def test_global_write_does_not_widen(self, mem):
        mem.write_int(GLOBAL_BASE + 8, 7, 8)
        assert (mem.lo_end, mem.hi_start) == (mem.global_end, mem.size)

    def test_stack_write_grows_the_high_extent(self, mem):
        mem.write_int(mem.size - 24, -1, 8)
        assert mem.lo_end == mem.global_end
        assert mem.hi_start <= mem.size - 24
        assert mem.size - mem.hi_start <= 2 * 256

    def test_write_past_the_globals_grows_the_low_extent(self, mem):
        mem.write_f64(mem.global_end + 40, 1.5)
        assert mem.lo_end >= mem.global_end + 48
        assert mem.hi_start == mem.size

    def test_bulk_write_widens(self, mem):
        mem.write_bytes(mem.heap_base + 100, b"hello world")
        assert mem.lo_end >= mem.heap_base + 111
        assert bytes(mem.data[mem.heap_base + 100:mem.heap_base + 111]) \
            == b"hello world"

    def test_meeting_extents_mark_the_whole_image(self, mem):
        mem.write_int(mem.size - 8, 1, 8)
        mem.widen(mem.global_end, mem.hi_start - mem.global_end)
        assert mem.lo_end == mem.hi_start == mem.size
        img = mem.snapshot()
        assert len(img.lo) + len(img.hi) == mem.size - mem.global_base

    def test_widen_never_shrinks(self, mem):
        mem.write_int(mem.heap_base + 600, 1, 8)
        bounds = (mem.lo_end, mem.hi_start)
        assert mem.widen(GLOBAL_BASE, 8) == bounds
        assert mem.widen(mem.heap_base + 600, 8) == bounds

    @given(_writes)
    def test_bytes_outside_the_extents_stay_zero(self, writes):
        m = _small()
        _apply(m, writes)
        assert _outside_extents_zero(m)

    @given(_writes, _writes, _writes)
    def test_restore_reproduces_the_captured_image(self, before, after,
                                                   stray):
        # source: writes, capture, more writes; target: unrelated writes
        # (a faulty run's leftovers), then restore from the capture
        src = _small()
        _apply(src, before)
        expected = bytes(src.data)
        img = src.snapshot()
        _apply(src, after)
        dst = _small()
        _apply(dst, stray)
        dst.restore(img)
        assert bytes(dst.data) == expected
        assert (dst.lo_end, dst.hi_start) == (img.lo_end, img.hi_start)
        assert _outside_extents_zero(dst)
        # the capture is independent of its source's later writes
        src.restore(img)
        assert bytes(src.data) == expected
