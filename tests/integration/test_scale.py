"""Scale and stress integration tests: larger jobs, cross-group
traffic, contention, fault injection -- the whole stack at once."""

import numpy as np
import pytest

from repro.faults import FaultSchedule, GilbertElliott
from repro.machine import Cluster


class TestEightNodeLapi:
    def test_all_to_all_puts(self):
        """Every task puts a distinct value into every other task's
        window; cross-group traffic exercises the multistage core."""
        nnodes = 8

        def main(task):
            lapi = task.lapi
            mem = task.memory
            window = mem.malloc(8 * nnodes)
            src = mem.malloc(8)
            mem.write_i64(src, 100 + task.rank)
            yield from lapi.gfence()
            for peer in range(nnodes):
                if peer != task.rank:
                    yield from lapi.put(peer, 8,
                                        window + 8 * task.rank, src)
                else:
                    mem.write_i64(window + 8 * task.rank,
                                  100 + task.rank)
            yield from lapi.gfence()
            return [mem.read_i64(window + 8 * r) for r in range(nnodes)]

        results = Cluster(nnodes=nnodes).run_job(main, stacks=("lapi",))
        expect = [100 + r for r in range(nnodes)]
        assert all(r == expect for r in results)

    def test_rmw_contention_sixteen_tasks(self):
        """16 tasks hammer one counter word: exact count, all distinct
        fetch values (serialization at the owner's dispatcher)."""
        nnodes = 16
        per_task = 4

        def main(task):
            from repro.core import RmwOp
            lapi = task.lapi
            mem = task.memory
            word = mem.malloc(8)
            mem.write_i64(word, 0)
            yield from lapi.gfence()
            got = []
            for _ in range(per_task):
                prev = yield from lapi.rmw_sync(RmwOp.FETCH_AND_ADD, 0,
                                                word, 1)
                got.append(prev)
            yield from lapi.gfence()
            if task.rank == 0:
                return ("final", mem.read_i64(word))
            return got

        results = Cluster(nnodes=nnodes).run_job(main, stacks=("lapi",))
        assert results[0] == ("final", nnodes * per_task)
        fetched = [v for r in results[1:] for v in r]
        assert len(set(fetched)) == len(fetched)

    def test_gfence_under_loss_eight_nodes(self):
        faults = FaultSchedule([GilbertElliott(loss_good=0.08)])

        def main(task):
            for _ in range(3):
                yield from task.lapi.gfence()
            return "ok"

        results = Cluster(nnodes=8, seed=17, faults=faults).run_job(
            main, stacks=("lapi",))
        assert results == ["ok"] * 8


class TestEightNodeGa:
    def test_ga_ring_accumulate(self):
        """8 tasks accumulate into overlapping sections: exact sums."""
        nnodes = 8

        def main(task):
            ga = task.ga
            h = yield from ga.create((64, 64))
            yield from ga.zero(h)
            ones = np.ones((32, 32))
            # Each rank accumulates into a section shifted by its rank:
            # overlaps guarantee real contention on the mutex path.
            base = task.rank * 4
            yield from ga.acc_ndarray(
                h, (base, base + 31, base, base + 31), ones)
            yield from ga.sync()
            got = yield from ga.get_ndarray(h, (0, 63, 0, 63))
            yield from ga.sync()
            return float(got.sum())

        results = Cluster(nnodes=nnodes).run_job(main,
                                                 ga_backend="lapi")
        # Total mass: 8 ranks x 32x32 ones.
        assert all(r == pytest.approx(8 * 32 * 32) for r in results)

    def test_ga_read_inc_work_queue_eight_tasks(self):
        """The SCF work-queue pattern at 8 tasks: every item claimed
        exactly once."""
        items = 40

        def main(task):
            ga = task.ga
            c = yield from ga.create((1, 1), dtype=np.int64)
            yield from ga.zero(c)
            yield from ga.sync()
            mine = []
            while True:
                k = yield from ga.read_inc(c, (0, 0), 1)
                if k >= items:
                    break
                mine.append(k)
            yield from ga.sync()
            return mine

        results = Cluster(nnodes=8).run_job(main, ga_backend="lapi")
        claimed = sorted(k for r in results for k in r)
        assert claimed == list(range(items))

    def test_mixed_stacks_one_job(self):
        """LAPI and MPL coexist on the same adapter (the paper: 'IBM
        offers the use of both MPI and LAPI in the same application')."""
        def main(task):
            lapi, mpl = task.lapi, task.mpl
            mem = task.memory
            window = mem.malloc(16)
            tgt = lapi.counter()
            yield from lapi.gfence()
            if task.rank == 0:
                src = mem.malloc(16)
                mem.write(src, b"via-lapi-putttt!")
                yield from lapi.put(1, 16, window, src,
                                    tgt_cntr=tgt.id)
                reply = yield from mpl.recv_bytes(1, tag=1)
                yield from mpl.barrier()
                return reply
            else:
                yield from lapi.waitcntr(tgt, 1)
                data = mem.read(window, 16)
                yield from mpl.send(0, data.upper(), 16, tag=1)
                yield from mpl.barrier()

        results = Cluster(nnodes=2).run_job(main,
                                            stacks=("lapi", "mpl"))
        assert results[0] == b"VIA-LAPI-PUTTTT!"


class TestOddSizes:
    @pytest.mark.parametrize("nnodes", [3, 5, 7])
    def test_ga_sync_odd_node_counts(self, nnodes):
        def main(task):
            ga = task.ga
            h = yield from ga.create((30, 30))
            yield from ga.zero(h)
            view_ok = True
            if ga.array(h).local_block is not None:
                view_ok = ga.access(h).size > 0
            yield from ga.sync()
            return view_ok

        assert all(Cluster(nnodes=nnodes).run_job(main,
                                                  ga_backend="lapi"))

    def test_single_node_everything(self):
        """All stacks degenerate cleanly to one task."""
        def main(task):
            ga = task.ga
            h = yield from ga.create((8, 8))
            yield from ga.fill(h, 3.0)
            yield from ga.acc_ndarray(h, (0, 7, 0, 7),
                                      np.ones((8, 8)))
            yield from ga.sync()
            got = yield from ga.get_ndarray(h, (0, 7, 0, 7))
            value = yield from ga.dot(h, h)
            yield from ga.sync()
            return bool(np.all(got == 4.0)), value

        ok, value = Cluster(nnodes=1).run_job(main,
                                              ga_backend="lapi")[0]
        assert ok
        assert value == pytest.approx(64 * 16.0)
