"""Integration tests: GA sync/fence semantics and global mutexes."""

import numpy as np
import pytest

from repro.errors import GaError
from repro.ga import Section

from .conftest import run_ga


class TestSyncFence:
    def test_sync_makes_stores_visible_everywhere(self, backend):
        def main(task):
            ga = task.ga
            h = yield from ga.create((16, 16))
            yield from ga.zero(h)
            # Everyone writes one column, everyone reads all columns.
            col = np.full((16, 1), float(task.rank + 1))
            yield from ga.put_ndarray(h, (0, 15, task.rank, task.rank),
                                      col)
            yield from ga.sync()
            got = yield from ga.get_ndarray(h, (0, 15, 0, 3))
            return [float(got[0, j]) for j in range(4)]

        results = run_ga(main)
        for r in results:
            assert r == [1.0, 2.0, 3.0, 4.0]

    def test_fence_completes_own_stores(self, backend):
        """After fence, this task's put is complete at the target; a
        subsequent put to an overlapping section cannot lose the race
        (section 2.5 / 5.3.2)."""
        def main(task):
            ga = task.ga
            h = yield from ga.create((8, 8))
            yield from ga.zero(h)
            yield from ga.sync()
            if task.rank == 0:
                a = np.full((8, 8), 1.0)
                b = np.full((8, 8), 2.0)
                yield from ga.put_ndarray(h, (0, 7, 0, 7), a)
                yield from ga.fence()
                yield from ga.put_ndarray(h, (0, 7, 0, 7), b)
                yield from ga.fence()
            yield from ga.sync()
            got = yield from ga.get_ndarray(h, (0, 7, 0, 7))
            return bool(np.all(got == 2.0))

        assert all(run_ga(main, backend=backend))

    def test_ordering_only_fence_skips_commutative(self):
        """LAPI backend: a fence for ordering purposes can skip targets
        whose outstanding tail is accumulate (section 5.3.2)."""
        def main(task):
            ga = task.ga
            h = yield from ga.create((64, 64))
            yield from ga.zero(h)
            yield from ga.sync()
            if task.rank == 0:
                data = np.ones((30, 30))
                yield from ga.acc_ndarray(h, (2, 31, 2, 31), data)
                t0 = task.now()
                yield from ga.fence(ordering_only=True)
                fast = task.now() - t0
                t0 = task.now()
                yield from ga.fence()
                slow_or_done = task.now() - t0
                yield from ga.sync()
                return fast
            yield from ga.sync()

        fast = run_ga(main, backend="lapi")[0]
        # The ordering-only fence returned without waiting for the
        # accumulate's completion round trips.
        assert fast < 15.0


class TestMutexes:
    def test_lock_mutual_exclusion(self, backend):
        """Classic non-atomic read-modify-write under a global lock:
        no update may be lost."""
        rounds = 4

        def main(task):
            ga = task.ga
            h = yield from ga.create((4, 4))
            yield from ga.zero(h)
            yield from ga.create_mutexes(1)
            yield from ga.sync()
            for _ in range(rounds):
                yield from ga.lock(0)
                got = yield from ga.get_ndarray(h, (0, 0, 0, 0))
                yield from ga.put_ndarray(h, (0, 0, 0, 0),
                                          got + 1.0)
                yield from ga.fence()
                yield from ga.unlock(0)
            yield from ga.sync()
            final = yield from ga.get_ndarray(h, (0, 0, 0, 0))
            return float(final[0, 0])

        results = run_ga(main, backend=backend)
        assert all(r == 4.0 * rounds for r in results)

    def test_multiple_mutexes_distributed(self, backend):
        def main(task):
            ga = task.ga
            yield from ga.create_mutexes(6)
            yield from ga.sync()
            # Lock/unlock every mutex once; no deadlock, no error.
            for m in range(6):
                yield from ga.lock(m)
                yield from ga.unlock(m)
            yield from ga.sync()
            return "ok"

        assert run_ga(main, backend=backend) == ["ok"] * 4

    def test_second_create_without_destroy_rejected(self, backend):
        def main(task):
            ga = task.ga
            yield from ga.create_mutexes(2)
            try:
                yield from ga.create_mutexes(2)
            except GaError as exc:
                yield from ga.sync()
                return str(exc)

        for msg in run_ga(main, backend=backend):
            assert "destroy_mutexes" in msg

    def test_destroy_mutexes_frees_words_and_allows_recreate(
            self, backend):
        def main(task):
            ga = task.ga
            mem = task.node.memory
            before = mem.live_bytes
            yield from ga.create_mutexes(6)
            held = mem.live_bytes - before
            yield from ga.destroy_mutexes()
            freed = mem.live_bytes == before
            try:
                yield from ga.lock(0)
            except GaError:
                gone = True
            yield from ga.create_mutexes(3)
            yield from ga.lock(2)
            yield from ga.unlock(2)
            yield from ga.sync()
            return held, freed, gone

        results = run_ga(main, backend=backend)
        # Six lock words dealt round-robin over four ranks.
        assert [r[0] for r in results] == [16, 16, 8, 8]
        assert all(freed and gone for _, freed, gone in results)

    def test_destroy_without_create_rejected(self, backend):
        def main(task):
            try:
                yield from task.ga.destroy_mutexes()
            except GaError:
                yield from task.ga.sync()
                return "rejected"

        assert run_ga(main, backend=backend) == ["rejected"] * 4

    def test_unknown_mutex_rejected(self, backend):
        def main(task):
            ga = task.ga
            yield from ga.create_mutexes(1)
            yield from ga.sync()
            try:
                yield from ga.lock(5)
            except GaError:
                yield from ga.sync()
                return "rejected"

        assert run_ga(main, backend=backend)[0] == "rejected"


class TestLocality:
    def test_locate_and_distribution_agree(self, backend):
        def main(task):
            ga = task.ga
            h = yield from ga.create((32, 48))
            yield from ga.sync()
            mine = ga.distribution(h)
            pieces = ga.locate(h, mine)
            return pieces == [(task.rank, mine)]

        assert all(run_ga(main, backend=backend))

    def test_nonsquare_grid(self, backend):
        def main(task):
            ga = task.ga
            h = yield from ga.create((100, 4))
            yield from ga.sync()
            sizes = [ga.distribution(h, r).size for r in range(4)]
            return sum(sizes)

        assert run_ga(main, backend=backend)[0] == 400
