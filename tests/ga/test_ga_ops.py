"""Integration tests: GA put/get/acc on both backends."""

import numpy as np
import pytest

from repro.errors import GaError
from repro.ga import Section
from repro.machine.config import SP_1998

from .conftest import run_ga


class TestCreateDestroy:
    def test_create_distributes(self, backend):
        def main(task):
            ga = task.ga
            h = yield from ga.create((32, 32), name="A")
            mine = ga.distribution(h)
            pieces = ga.locate(h, (0, 31, 0, 31))
            yield from ga.sync()
            return mine.size, len(pieces)

        results = run_ga(main, backend=backend)
        assert sum(r[0] for r in results) == 32 * 32
        assert all(r[1] == 4 for r in results)

    def test_access_is_zero_copy_view(self, backend):
        def main(task):
            ga = task.ga
            h = yield from ga.create((16, 16))
            view = ga.access(h)
            view[...] = task.rank + 1.0
            yield from ga.sync()
            # Read my own block through the global interface.
            block = ga.distribution(h)
            got = yield from ga.get_ndarray(h, block)
            return bool(np.all(got == task.rank + 1.0))

        assert all(run_ga(main, backend=backend))

    def test_destroy_then_use_rejected(self, backend):
        def main(task):
            ga = task.ga
            h = yield from ga.create((8, 8))
            yield from ga.destroy(h)
            try:
                yield from ga.get_ndarray(h, (0, 0, 0, 0))
            except GaError:
                return "rejected"

        assert run_ga(main, backend=backend) == ["rejected"] * 4

    def test_non8byte_dtype_rejected(self, backend):
        def main(task):
            try:
                yield from task.ga.create((8, 8), dtype=np.float32)
            except GaError:
                return "rejected"

        assert run_ga(main, backend=backend)[0] == "rejected"


class TestPutGet:
    def test_put_get_roundtrip_cross_owner(self, backend):
        data = np.arange(14 * 10, dtype=np.float64).reshape(14, 10)

        def main(task):
            ga = task.ga
            h = yield from ga.create((40, 40))
            yield from ga.zero(h)
            sec = (5, 18, 7, 16)  # spans all four owners
            if task.rank == 0:
                yield from ga.put_ndarray(h, sec, data)
            yield from ga.sync()
            got = yield from ga.get_ndarray(h, sec)
            return np.array_equal(got, data)

        assert all(run_ga(main, backend=backend))

    def test_single_element(self, backend):
        def main(task):
            ga = task.ga
            h = yield from ga.create((20, 20))
            yield from ga.zero(h)
            if task.rank == 0:
                yield from ga.put_ndarray(h, (19, 19, 19, 19),
                                          [[42.5]])
            yield from ga.sync()
            got = yield from ga.get_ndarray(h, (19, 19, 19, 19))
            return float(got[0, 0])

        assert run_ga(main, backend=backend) == [42.5] * 4

    def test_full_column_1d_request(self, backend):
        """The paper's contiguous '1-D' case."""
        def main(task):
            ga = task.ga
            h = yield from ga.create((64, 8))
            yield from ga.zero(h)
            col = np.arange(64, dtype=np.float64).reshape(64, 1)
            if task.rank == 0:
                yield from ga.put_ndarray(h, (0, 63, 5, 5), col)
            yield from ga.sync()
            got = yield from ga.get_ndarray(h, (0, 63, 5, 5))
            return np.array_equal(got, col)

        assert all(run_ga(main, backend=backend))

    def test_large_strided_2d(self, backend):
        """Above the strided-RMC threshold (per-column protocol)."""
        cfg_kw = {}
        n = 300  # 300x300 doubles = 720 KB > 512 KB threshold

        def main(task):
            ga = task.ga
            h = yield from ga.create((512, 512))
            yield from ga.zero(h)
            rng = np.random.default_rng(7)
            data = rng.random((n, n))
            if task.rank == 0:
                yield from ga.put_ndarray(h, (100, 100 + n - 1,
                                              50, 50 + n - 1), data)
            yield from ga.sync()
            if task.rank == 3:
                got = yield from ga.get_ndarray(
                    h, (100, 100 + n - 1, 50, 50 + n - 1))
                yield from ga.sync()
                return bool(np.array_equal(got, data))
            yield from ga.sync()
            return True

        assert all(run_ga(main, backend=backend))

    def test_medium_strided_am_chunked(self, backend):
        """Below the threshold: pipelined-AM chunk protocol."""
        def main(task):
            ga = task.ga
            h = yield from ga.create((128, 128))
            yield from ga.zero(h)
            data = np.arange(50 * 50, dtype=np.float64).reshape(50, 50)
            if task.rank == 1:
                yield from ga.put_ndarray(h, (10, 59, 10, 59), data)
            yield from ga.sync()
            got = yield from ga.get_ndarray(h, (10, 59, 10, 59))
            return np.array_equal(got, data)

        assert all(run_ga(main, backend=backend))

    def test_section_out_of_bounds(self, backend):
        def main(task):
            ga = task.ga
            h = yield from ga.create((8, 8))
            try:
                yield from ga.get_ndarray(h, (0, 8, 0, 7))
            except GaError:
                yield from ga.sync()
                return "rejected"

        assert run_ga(main, backend=backend)[0] == "rejected"

    def test_everyone_writes_own_block_reads_neighbor(self, backend):
        def main(task):
            ga = task.ga
            h = yield from ga.create((32, 32))
            block = ga.distribution(h)
            fill = np.full(block.shape, float(task.rank + 1))
            yield from ga.put_ndarray(h, block, fill)
            yield from ga.sync()
            peer = (task.rank + 1) % task.size
            pblock = ga.distribution(h, peer)
            got = yield from ga.get_ndarray(h, pblock)
            return bool(np.all(got == peer + 1))

        assert all(run_ga(main, backend=backend))


class TestAccumulate:
    def test_concurrent_accumulate_no_lost_updates(self, backend):
        """Every rank accumulates into the same section; the result is
        the exact sum (atomicity, section 5.3.3)."""
        def main(task):
            ga = task.ga
            h = yield from ga.create((24, 24))
            yield from ga.zero(h)
            ones = np.ones((24, 24))
            for _ in range(3):
                yield from ga.acc_ndarray(h, (0, 23, 0, 23), ones)
            yield from ga.sync()
            got = yield from ga.get_ndarray(h, (0, 23, 0, 23))
            return bool(np.all(got == 3.0 * task.size))

        assert all(run_ga(main, backend=backend))

    def test_alpha_scaling(self, backend):
        def main(task):
            ga = task.ga
            h = yield from ga.create((10, 10))
            yield from ga.zero(h)
            if task.rank == 0:
                yield from ga.acc_ndarray(h, (0, 9, 0, 9),
                                          np.ones((10, 10)), alpha=2.5)
            yield from ga.sync()
            got = yield from ga.get_ndarray(h, (3, 3, 3, 3))
            return float(got[0, 0])

        assert run_ga(main, backend=backend) == [2.5] * 4

    def test_large_accumulate(self, backend):
        """Accumulate above the large-chunk threshold."""
        n = 120  # 120*120*8 = 115 KB

        def main(task):
            ga = task.ga
            h = yield from ga.create((256, 256))
            yield from ga.zero(h)
            data = np.ones((n, n))
            if task.rank == 2:
                yield from ga.acc_ndarray(h, (10, 10 + n - 1,
                                              10, 10 + n - 1), data)
            yield from ga.sync()
            got = yield from ga.get_ndarray(h, (10, 10 + n - 1,
                                                10, 10 + n - 1))
            return bool(np.all(got == 1.0))

        assert all(run_ga(main, backend=backend))


class TestScatterGather:
    def test_scatter_then_gather(self, backend):
        points = [(0, 0), (7, 3), (15, 15), (3, 12), (9, 9)]

        def main(task):
            ga = task.ga
            h = yield from ga.create((16, 16))
            yield from ga.zero(h)
            if task.rank == 0:
                vals = [1.5, 2.5, 3.5, 4.5, 5.5]
                yield from ga.scatter(h, points, vals)
            yield from ga.sync()
            got = yield from ga.gather(h, points)
            return got.tolist()

        results = run_ga(main, backend=backend)
        assert results[1] == [1.5, 2.5, 3.5, 4.5, 5.5]

    def test_gather_many_points_chunked(self, backend):
        def main(task):
            ga = task.ga
            h = yield from ga.create((40, 40))
            view = ga.access(h)
            block = ga.distribution(h)
            for jj in range(block.cols):
                for ii in range(block.rows):
                    view[ii, jj] = (block.ilo + ii) * 100 + block.jlo + jj
            yield from ga.sync()
            points = [(i, (i * 7) % 40) for i in range(40)]
            got = yield from ga.gather(h, points)
            expect = [i * 100 + (i * 7) % 40 for i in range(40)]
            return got.tolist() == expect

        assert all(run_ga(main, backend=backend))

    def test_scatter_validation(self, backend):
        # An out-of-range point, and values that are not one scalar per
        # point (rows would encode wider wire records).
        calls = [([(9, 0)], [1]),
                 ([(0, 0), (0, 1), (1, 0)],
                  np.array([[1, 1], [2, 2], [3, 3]]))]

        def main(task):
            ga = task.ga
            h = yield from ga.create((8, 8), dtype=np.int64)
            yield from ga.zero(h)
            outcomes = []
            for points, values in calls:
                try:
                    yield from ga.scatter(h, points, values)
                    outcomes.append("accepted")
                except GaError:
                    outcomes.append("rejected")
            yield from ga.sync()
            whole = yield from ga.get_ndarray(h, (0, 7, 0, 7))
            return outcomes, int(np.count_nonzero(whole))

        assert run_ga(main, backend=backend)[0] == (
            ["rejected", "rejected"], 0)


class TestReadInc:
    def test_read_inc_counts_exactly(self, backend):
        per_rank = 5

        def main(task):
            ga = task.ga
            h = yield from ga.create((4, 4), dtype=np.int64)
            yield from ga.zero(h)
            yield from ga.sync()
            got = []
            for _ in range(per_rank):
                prev = yield from ga.read_inc(h, (2, 2), 1)
                got.append(prev)
            yield from ga.sync()
            final = yield from ga.get_ndarray(h, (2, 2, 2, 2))
            return got, int(final[0, 0])

        results = run_ga(main, backend=backend)
        assert all(r[1] == 4 * per_rank for r in results)
        fetched = sorted(v for r in results for v in r[0])
        assert fetched == list(range(4 * per_rank))

    def test_read_inc_requires_int64(self, backend):
        def main(task):
            ga = task.ga
            h = yield from ga.create((4, 4))  # float64
            try:
                yield from ga.read_inc(h, (0, 0))
            except GaError:
                yield from ga.sync()
                return "rejected"

        assert run_ga(main, backend=backend)[0] == "rejected"


class TestReplyCounters:
    def test_get_replies_take_no_counter_ids(self):
        """Each GA-on-LAPI get reply is a put with an origin counter of
        its own; that counter is never addressed by id, so serving gets
        leaves the counter table alone and the next counter created
        gets the same id on every rank."""
        def main(task):
            ga = task.ga
            h = yield from ga.create((64, 64))
            owned = ga.distribution(h)
            first = task.lapi.counter().id
            other = (0, 10, 40, 50) if owned.jlo == 0 else (0, 10, 5, 15)
            for _ in range(10):
                yield from ga.get_ndarray(h, other)
            yield from ga.sync()
            return task.lapi.counter().id - first

        assert run_ga(main, nnodes=2) == [1, 1]
