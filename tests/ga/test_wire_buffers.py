"""Unit tests for GA wire descriptors, buffer pool, column runs."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.protocol import read_runs, write_runs
from repro.errors import GaError
from repro.ga import DESCRIPTOR_SIZE, Descriptor, GaOp, Section
from repro.ga.buffers import AmBufferPool
from repro.ga.wire import (GATHER_PAIR_SIZE, SCATTER_RECORD_SIZE,
                           decode_gather, decode_scatter, encode_gather,
                           encode_scatter)
from repro.machine.memory import Memory


class TestDescriptor:
    def test_roundtrip(self):
        d = Descriptor(op=GaOp.ACC, handle=3,
                       section=Section(1, 2, 3, 4), offset=100,
                       total=4096, alpha=2.5, reply_addr=1 << 41,
                       reply_cntr=7, aux=-3)
        back = Descriptor.unpack(d.pack())
        assert back == d

    def test_size_fits_uhdr(self):
        from repro.machine.config import SP_1998
        assert DESCRIPTOR_SIZE <= SP_1998.lapi_uhdr_max

    def test_packed_length_constant(self):
        d = Descriptor(op=GaOp.PUT, handle=0,
                       section=Section(0, 0, 0, 0))
        assert len(d.pack()) == DESCRIPTOR_SIZE

    def test_short_blob_rejected(self):
        with pytest.raises(GaError):
            Descriptor.unpack(b"tiny")

    def test_unpack_ignores_trailing_data(self):
        d = Descriptor(op=GaOp.GET, handle=1,
                       section=Section(0, 9, 0, 9))
        assert Descriptor.unpack(d.pack() + b"extra") == d

    def test_op_name(self):
        d = Descriptor(op=GaOp.READ_INC, handle=0,
                       section=Section(0, 0, 0, 0))
        assert d.op_name == "read_inc"

    @given(st.integers(0, 2**31 - 1), st.integers(0, 2**40),
           st.floats(allow_nan=False, allow_infinity=False))
    def test_roundtrip_property(self, total, addr, alpha):
        d = Descriptor(op=GaOp.PUT, handle=5,
                       section=Section(0, 3, 0, 3), total=total,
                       reply_addr=addr, alpha=alpha)
        assert Descriptor.unpack(d.pack()) == d


class TestPointWire:
    def test_scatter_and_gather_points_round_trip(self):
        points = [(0, 1), (7, 3), (1 << 40, 5)]
        values = np.array([1.5, -2.0, 3.25])
        blob = encode_scatter(points, values, [2, 0], np.float64)
        assert len(blob) == 2 * SCATTER_RECORD_SIZE == 48
        assert list(decode_scatter(blob)) == [
            (1 << 40, 5, np.float64(3.25).tobytes()),
            (0, 1, np.float64(1.5).tobytes())]
        # Record layout: int64 i, int64 j, then the element's raw bytes.
        assert blob[:SCATTER_RECORD_SIZE] == (
            np.int64(1 << 40).tobytes() + np.int64(5).tobytes()
            + np.float64(3.25).tobytes())
        pairs = encode_gather(points, [2, 0])
        assert len(pairs) == 2 * GATHER_PAIR_SIZE == 32
        assert list(decode_gather(pairs)) == [points[2], points[0]]


class TestBufferPool:
    def make(self, small=4, large=2):
        mem = Memory(0)
        return AmBufferPool(mem, small_size=1024, small_count=small,
                            large_size=8192, large_count=large)

    def test_acquire_release_small(self):
        pool = self.make()
        a = pool.acquire(100)
        assert pool.small_free == 3
        pool.release(a)
        assert pool.small_free == 4

    def test_large_request_uses_large_slot(self):
        pool = self.make()
        a = pool.acquire(5000)
        assert pool.large_free == 1
        assert pool.small_free == 4
        pool.release(a)

    def test_small_overflow_spills_to_large(self):
        pool = self.make(small=1)
        a = pool.acquire(100)
        b = pool.acquire(100)  # small exhausted -> large slot
        assert pool.large_free == 1
        pool.release(a)
        pool.release(b)

    def test_exhaustion_is_hard_error(self):
        pool = self.make(small=1, large=1)
        pool.acquire(100)
        pool.acquire(100)
        with pytest.raises(GaError, match="exhausted"):
            pool.acquire(100)

    def test_oversize_rejected(self):
        pool = self.make()
        with pytest.raises(GaError, match="exceeds"):
            pool.acquire(100000)

    def test_release_unknown_rejected(self):
        pool = self.make()
        with pytest.raises(GaError):
            pool.release(12345)

    def test_high_water_stats(self):
        pool = self.make()
        a = pool.acquire(10)
        b = pool.acquire(10)
        pool.release(a)
        pool.release(b)
        assert pool.small_high_water == 2
        assert pool.in_use == 0


class _PerSlotPool:
    """Reference model: the pool as one allocation per slot, slots
    named ``(kind, index)`` in allocation order; free lists are stacks.
    The slab pool must hand out the same slots and fail the same way.
    """

    def __init__(self, small_size, small_count, large_size,
                 large_count):
        self.small_size, self.large_size = small_size, large_size
        self.free = {"small": [("small", i) for i in range(small_count)],
                     "large": [("large", i) for i in range(large_count)]}
        self.total = {"small": small_count, "large": large_count}
        self.high_water = {"small": 0, "large": 0}
        self.held = set()

    def acquire(self, nbytes):
        if nbytes <= self.small_size and self.free["small"]:
            kind = "small"
        elif nbytes > self.large_size:
            return "exceeds"
        elif not self.free["large"]:
            return "exhausted"
        else:
            kind = "large"
        slot = self.free[kind].pop()
        self.held.add(slot)
        self.high_water[kind] = max(
            self.high_water[kind],
            self.total[kind] - len(self.free[kind]))
        return slot

    def release(self, slot):
        if slot not in self.held:
            return "unknown"
        self.held.remove(slot)
        self.free[slot[0]].append(slot)
        return None


class TestSlabPoolAgainstModel:
    SMALL, LARGE = 64, 256

    def slot_of(self, pool, addr):
        """Name the slab byte range at ``addr`` as the model does."""
        off = addr - pool.slab
        small_bytes = pool._small_total * self.SMALL
        if off < small_bytes:
            assert off % self.SMALL == 0
            return ("small", off // self.SMALL), self.SMALL
        assert (off - small_bytes) % self.LARGE == 0
        return ("large", (off - small_bytes) // self.LARGE), self.LARGE

    @given(st.integers(0, 4), st.integers(0, 3), st.data())
    def test_random_sequences_match_model(self, nsmall, nlarge, data):
        if nsmall + nlarge == 0:
            with pytest.raises(GaError, match="at least one slot"):
                AmBufferPool(Memory(0), small_size=self.SMALL,
                             small_count=0, large_size=self.LARGE,
                             large_count=0)
            return
        mem = Memory(0)
        mem.malloc(16)  # the slab is not the node's first allocation
        pool = AmBufferPool(mem, small_size=self.SMALL,
                            small_count=nsmall, large_size=self.LARGE,
                            large_count=nlarge)
        model = _PerSlotPool(self.SMALL, nsmall, self.LARGE, nlarge)
        slab_bytes = nsmall * self.SMALL + nlarge * self.LARGE
        assert mem.size_of(pool.slab) == slab_bytes
        held = {}  # addr -> (slot name, slot size)
        ops = data.draw(st.lists(st.one_of(
            st.tuples(st.just("acquire"),
                      st.integers(1, self.LARGE + 40)),
            st.tuples(st.just("release"), st.integers(0, 8)),
            st.tuples(st.just("bogus"), st.integers(0, 4))),
            max_size=40))
        for op, arg in ops:
            if op == "acquire":
                want = model.acquire(arg)
                if isinstance(want, str):
                    with pytest.raises(GaError, match=want):
                        pool.acquire(arg)
                    continue
                addr = pool.acquire(arg)
                slot, size = self.slot_of(pool, addr)
                assert slot == want and arg <= size
                # Inside the slab, and disjoint from every held slot.
                assert pool.slab <= addr
                assert addr + size <= pool.slab + slab_bytes
                for other, (_, osize) in held.items():
                    assert addr + size <= other or other + osize <= addr
                held[addr] = (slot, size)
                mem.write(addr, bytes([len(held)]) * arg)
            elif op == "release" and held:
                addr = sorted(held)[arg % len(held)]
                slot, _ = held.pop(addr)
                assert model.release(slot) is None
                pool.release(addr)
            else:
                # Never handed out: an interior or foreign address.
                bogus = pool.slab + slab_bytes + arg \
                    if op == "bogus" else pool.slab + 1
                assert model.release(("bogus", bogus)) == "unknown"
                with pytest.raises(GaError, match="unknown pool slot"):
                    pool.release(bogus)
            assert pool.small_high_water == model.high_water["small"]
            assert pool.large_high_water == model.high_water["large"]
            assert pool.small_free == len(model.free["small"])
            assert pool.large_free == len(model.free["large"])
            assert pool.in_use == len(held)
        pool.close()
        assert mem.live_bytes == 16
        pool.close()  # idempotent
        assert pool.slab is None


class TestPacking:
    def _make_ga(self, dims=(8, 8), ntasks=1):
        from repro.ga.array import GlobalArray
        from repro.ga.distribution import BlockDistribution
        mem = Memory(0)
        dist = BlockDistribution.create(dims, ntasks)
        block = dist.block(0)
        addr = mem.malloc(block.size * 8)
        ga = GlobalArray(handle=0, name="t", dims=dims,
                         dtype=np.dtype(np.float64), dist=dist, rank=0,
                         local_addr=addr, base_addrs=[addr])
        return mem, ga

    def test_read_write_piece_roundtrip(self):
        mem, ga = self._make_ga()
        piece = Section(1, 4, 2, 5)
        runs = ga.piece_runs(0, piece)
        assert len(runs) == piece.cols
        data = np.arange(piece.size, dtype=np.float64).tobytes()
        write_runs(mem, runs, data)
        assert read_runs(mem, runs) == data

    def test_scatter_range_equals_full_write(self):
        mem, ga = self._make_ga()
        piece = Section(0, 5, 1, 6)
        data = np.arange(piece.size, dtype=np.float64).tobytes()
        # Deliver in awkward chunk sizes.
        for off in range(0, len(data), 56):
            chunk = data[off:off + 56]
            write_runs(mem, ga.piece_runs(0, piece, off, len(chunk)),
                       chunk)
        assert read_runs(mem, ga.piece_runs(0, piece)) == data

    def test_accumulate_range(self):
        mem, ga = self._make_ga()
        piece = Section(0, 3, 0, 3)
        runs = ga.piece_runs(0, piece)
        base = np.full(piece.size, 10.0)
        write_runs(mem, runs, base.tobytes())
        add = np.arange(piece.size, dtype=np.float64)
        ga.accumulate(mem, runs, add.tobytes(), alpha=2.0)
        out = np.frombuffer(read_runs(mem, runs))
        assert np.allclose(out, 10.0 + 2.0 * add)

    def test_local_pack_roundtrip_of_partial_columns(self):
        """A piece covering rows 2-4 of a 6-row section: its columns
        are strided in the local buffer, and only it is written back."""
        mem, ga = self._make_ga()
        section = Section(1, 6, 2, 5)
        piece = Section(3, 5, 3, 4)
        nbytes = section.size * ga.itemsize
        src = mem.malloc(nbytes)
        local = np.arange(section.size, dtype=np.float64)
        mem.write(src, local.tobytes())
        blob = read_runs(mem, ga.buffer_runs(section, piece, src))
        grid = local.reshape(section.cols, section.rows)
        assert blob == grid[1:3, 2:5].tobytes()

        dst = mem.malloc(nbytes)
        mem.write(dst, b"\0" * nbytes)
        write_runs(mem, ga.buffer_runs(section, piece, dst), blob)
        out = np.frombuffer(mem.read(dst, nbytes)).reshape(
            section.cols, section.rows)
        assert out[1:3, 2:5].tobytes() == blob
        out_rest = out.copy()
        out_rest[1:3, 2:5] = 0.0
        assert not out_rest.any()

    def test_chunk_overrun_rejected(self):
        mem, ga = self._make_ga()
        piece = Section(0, 1, 0, 1)
        with pytest.raises(GaError, match="overruns"):
            ga.piece_runs(0, piece, 0, 64)

    @given(st.integers(1, 7), st.integers(1, 7), st.data())
    def test_chunked_scatter_roundtrip_property(self, rows, cols, data):
        mem, ga = self._make_ga()
        piece = Section(0, rows - 1, 0, cols - 1)
        blob = np.random.default_rng(0).random(piece.size).tobytes()
        chunk = data.draw(st.integers(8, 128))
        for off in range(0, len(blob), chunk):
            part = blob[off:off + chunk]
            write_runs(mem, ga.piece_runs(0, piece, off, len(part)), part)
        assert read_runs(mem, ga.piece_runs(0, piece)) == blob
