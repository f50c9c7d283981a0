"""Unit and property tests for the simulated node memory."""

import mmap
import os

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import AllocationError, MemoryFault
from repro.machine.memory import Memory


@pytest.fixture
def mem():
    return Memory(node_id=0)


class TestAllocation:
    def test_malloc_returns_distinct_addresses(self, mem):
        a = mem.malloc(100)
        b = mem.malloc(100)
        assert a != b

    def test_malloc_zero_or_negative_rejected(self, mem):
        with pytest.raises(AllocationError):
            mem.malloc(0)
        with pytest.raises(AllocationError):
            mem.malloc(-5)

    def test_malloc_over_cap_rejected(self):
        mem = Memory(0, max_allocation=1024)
        with pytest.raises(AllocationError):
            mem.malloc(2048)

    def test_fill(self, mem):
        a = mem.malloc(4)
        assert mem.read(a, 4) == bytes(4)  # mappings start zeroed

    def test_free_releases(self, mem):
        a = mem.malloc(64)
        assert mem.live_bytes == 64
        mem.free(a)
        assert mem.live_bytes == 0
        with pytest.raises(MemoryFault):
            mem.read(a, 1)

    def test_free_interior_pointer_rejected(self, mem):
        a = mem.malloc(64)
        with pytest.raises(MemoryFault):
            mem.free(a + 8)

    def test_double_free_rejected(self, mem):
        a = mem.malloc(64)
        mem.free(a)
        with pytest.raises(MemoryFault):
            mem.free(a)

    def test_size_of(self, mem):
        a = mem.malloc(100)
        assert mem.size_of(a) == 100
        assert mem.size_of(a + 30) == 70

    def test_release_returns_everything_for_good(self, mem):
        a = mem.malloc(64)
        mem.malloc(32)
        mem.write(a, b"kept")
        view = mem.view(a, 8)
        mem.release()
        assert mem.released and mem.live_bytes == 0
        for call in (lambda: mem.read(a, 1), lambda: mem.write(a, b"x"),
                     lambda: mem.read_i64(a), lambda: mem.free(a),
                     lambda: mem.malloc(8)):
            with pytest.raises(MemoryFault, match="dropped cluster"):
                call()
        # A view handed out earlier keeps its mapping alive.
        assert bytes(view[:4]) == b"kept"
        view[:] = 1


class TestAccess:
    def test_write_read_roundtrip(self, mem):
        a = mem.malloc(16)
        mem.write(a, b"hello world!")
        assert mem.read(a, 12) == b"hello world!"

    def test_interior_write_read(self, mem):
        a = mem.malloc(16)
        mem.write(a + 4, b"abcd")
        assert mem.read(a + 4, 4) == b"abcd"
        assert mem.read(a, 4) == b"\x00" * 4

    def test_out_of_bounds_read_faults(self, mem):
        a = mem.malloc(8)
        with pytest.raises(MemoryFault):
            mem.read(a, 9)
        with pytest.raises(MemoryFault):
            mem.read(a + 8, 1)

    def test_out_of_bounds_write_faults(self, mem):
        a = mem.malloc(8)
        with pytest.raises(MemoryFault):
            mem.write(a + 4, b"12345")

    def test_unmapped_address_faults(self, mem):
        with pytest.raises(MemoryFault):
            mem.read(12345, 1)

    @pytest.mark.parametrize("wrap", [bytearray, memoryview])
    def test_write_from_any_bytes_like(self, mem, wrap):
        a = mem.malloc(8)
        mem.write(a + 2, wrap(b"abcd"))
        assert mem.read(a, 8) == b"\x00\x00abcd\x00\x00"

    def test_cross_allocation_arithmetic_faults(self, mem):
        a = mem.malloc(8)
        mem.malloc(8)
        # Walking off the end of allocation "a" must not reach "b".
        with pytest.raises(MemoryFault):
            mem.read(a + 8, 8)


class TestViews:
    def test_view_aliases_memory(self, mem):
        a = mem.malloc(32)
        v = mem.view(a, 32, dtype=np.float64)
        v[:] = [1.0, 2.0, 3.0, 4.0]
        back = np.frombuffer(mem.read(a, 32), dtype=np.float64)
        assert list(back) == [1.0, 2.0, 3.0, 4.0]

    def test_view_sees_writes(self, mem):
        a = mem.malloc(8)
        v = mem.view(a, 8, dtype=np.int64)
        mem.write_i64(a, 77)
        assert v[0] == 77

    def test_view_itemsize_mismatch_faults(self, mem):
        a = mem.malloc(10)
        with pytest.raises(MemoryFault):
            mem.view(a, 10, dtype=np.float64)

    def test_repeated_views_alias_the_same_bytes(self, mem):
        a = mem.malloc(16)
        first = mem.view(a, 16)
        second = mem.view(a + 8, 8, dtype=np.int64)
        first[8] = 5
        assert second[0] == 5
        second[0] = -1
        assert list(first[8:]) == [0xFF] * 8
        assert np.shares_memory(first, second)

    def test_raw_view_default(self, mem):
        a = mem.malloc(4)
        mem.write(a, b"\x07" * 4)
        v = mem.view(a, 4)
        assert v.dtype == np.uint8
        assert list(v) == [7, 7, 7, 7]


class TestWordAccess:
    def test_i64_roundtrip(self, mem):
        a = mem.malloc(16)
        mem.write_i64(a, -123456789)
        assert mem.read_i64(a) == -123456789

    def test_i64_offset(self, mem):
        a = mem.malloc(16)
        mem.write_i64(a + 8, 42)
        assert mem.read_i64(a + 8) == 42
        assert mem.read_i64(a) == 0

    def test_i64_unaligned_offset_works(self, mem):
        # Simulated memory has no alignment restrictions.
        a = mem.malloc(16)
        mem.write_i64(a + 3, 0x0102030405060708)
        assert mem.read_i64(a + 3) == 0x0102030405060708

    @pytest.mark.parametrize("value", [-1, -2**63, 2**63 - 1])
    def test_i64_extremes_roundtrip(self, mem, value):
        a = mem.malloc(8)
        mem.write_i64(a, value)
        assert mem.read_i64(a) == value

    @pytest.mark.parametrize("value", [2**63, -2**63 - 1])
    def test_i64_out_of_range_overflows(self, mem, value):
        a = mem.malloc(8)
        with pytest.raises(OverflowError):
            mem.write_i64(a, value)
        assert mem.read_i64(a) == 0

    def test_i64_is_little_endian(self, mem):
        a = mem.malloc(8)
        mem.write_i64(a, 1)
        assert mem.read(a, 8) == b"\x01" + 7 * b"\x00"

    def test_i64_out_of_bounds(self, mem):
        a = mem.malloc(8)
        with pytest.raises(MemoryFault):
            mem.read_i64(a + 1)


_MIB = 1 << 20


def _rss() -> int:
    """Bytes of this process resident on the host right now."""
    with open("/proc/self/statm") as statm:
        return int(statm.read().split()[1]) * mmap.PAGESIZE


@pytest.mark.skipif(not os.path.exists("/proc/self/statm"),
                    reason="reads resident pages from /proc/self/statm")
class TestHostPages:
    """The host pays for the 4 KiB pages a job touches, and gets them
    back when the allocation is freed."""

    def test_sparse_writes_fault_small_pages(self, mem):
        a = mem.malloc(16 * _MIB)
        before = _rss()
        for k in range(8):
            mem.write(a + k * 2 * _MIB, b"12345678")
        assert _rss() - before < _MIB

    def test_reused_allocation_is_not_resident(self, mem):
        mem.free(mem.malloc(16 * _MIB))
        before = _rss()
        kept = mem.malloc(6 * _MIB)
        mem.free(mem.malloc(6 * _MIB))
        reused = mem.malloc(6 * _MIB)
        mem.write(reused, b"x")
        assert _rss() - before < _MIB
        mem.free(kept)
        mem.free(reused)
        assert _rss() - before < _MIB


class TestProperties:
    @given(st.lists(st.binary(min_size=1, max_size=256), min_size=1,
                    max_size=20))
    def test_independent_allocations_never_interfere(self, blobs):
        mem = Memory(0)
        addrs = []
        for blob in blobs:
            a = mem.malloc(len(blob))
            mem.write(a, blob)
            addrs.append(a)
        for a, blob in zip(addrs, blobs):
            assert mem.read(a, len(blob)) == blob

    @given(st.binary(min_size=1, max_size=512),
           st.data())
    def test_partial_writes_compose(self, base, data):
        mem = Memory(0)
        a = mem.malloc(len(base))
        mem.write(a, base)
        expected = bytearray(base)
        for _ in range(data.draw(st.integers(0, 8))):
            off = data.draw(st.integers(0, len(base) - 1))
            chunk = data.draw(st.binary(min_size=1,
                                        max_size=len(base) - off))
            mem.write(a + off, chunk)
            expected[off:off + len(chunk)] = chunk
        assert mem.read(a, len(base)) == bytes(expected)
