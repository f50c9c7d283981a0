"""Integration tests: ordering semantics, LAPI_Fence, LAPI_Gfence."""

import pytest

from repro.machine.config import SP_1998

from .conftest import run_spmd


class TestFence:
    def test_fence_orders_overlapping_puts(self, progress_mode):
        """Section 2.5's example: two puts to overlapping buffers are
        unordered; a fence between them guarantees the second wins."""
        n = 2048

        def main(task):
            lapi = task.lapi
            buf = task.memory.malloc(n)
            tgt = lapi.counter()
            yield from lapi.gfence()
            if task.rank == 0:
                a = task.memory.malloc(n)
                b = task.memory.malloc(n)
                task.memory.write(a, b"A" * n)
                task.memory.write(b, b"B" * n)
                yield from lapi.put(1, n, buf, a)
                yield from lapi.fence(1)  # first completes at target
                yield from lapi.put(1, n, buf, b, tgt_cntr=tgt.id)
                yield from lapi.fence(1)
                yield from lapi.gfence()
                return None
            yield from lapi.waitcntr(tgt, 1)
            yield from lapi.fence()
            data = task.memory.read(buf, n)
            yield from lapi.gfence()  # collectives must match rank 0's
            return data

        results = run_spmd(main, interrupt_mode=progress_mode)
        assert results[1] == b"B" * n

    def test_fence_waits_for_large_put_acks(self):
        def main(task):
            lapi = task.lapi
            n = SP_1998.lapi_retrans_copy_limit * 8
            buf = task.memory.malloc(n)
            yield from lapi.gfence()
            if task.rank == 0:
                src = task.memory.malloc(n)
                yield from lapi.put(1, n, buf, src)
                before = lapi.ctx.outstanding_to(1)
                yield from lapi.fence(1)
                after = lapi.ctx.outstanding_to(1)
                yield from lapi.gfence()
                return before, after
            yield from lapi.gfence()

        before, after = run_spmd(main)[0]
        assert before == 1
        assert after == 0

    def test_fence_with_no_outstanding_is_fast(self):
        def main(task):
            lapi = task.lapi
            yield from lapi.gfence()
            t0 = task.now()
            yield from lapi.fence()
            return task.now() - t0

        cost = run_spmd(main)[0]
        assert cost < 50.0  # just the call overhead, no waiting

    def test_fence_single_target(self):
        """fence(t) waits only for traffic to t, not to others."""
        def main(task):
            lapi = task.lapi
            buf = task.memory.malloc(64)
            tgt = lapi.counter()
            yield from lapi.gfence()
            if task.rank == 0:
                src = task.memory.malloc(64)
                yield from lapi.put(1, 64, buf, src)
                yield from lapi.put(2, 64, buf, src)
                yield from lapi.fence(1)
                # Traffic to 2 may still be outstanding; to 1 may not.
                out1 = lapi.ctx.outstanding_to(1)
                yield from lapi.fence()
                yield from lapi.gfence()
                return out1
            yield from lapi.gfence()

        assert run_spmd(main, nnodes=3)[0] == 0


class TestGfence:
    def test_gfence_synchronizes(self, progress_mode):
        """No rank exits a gfence before every rank has entered it."""
        def main(task):
            lapi = task.lapi
            # Stagger arrival: rank r works r*500us first.
            yield from task.thread.sleep(task.rank * 500.0)
            entered = task.now()
            yield from lapi.gfence()
            exited = task.now()
            return entered, exited

        results = run_spmd(main, nnodes=4, interrupt_mode=progress_mode)
        last_entry = max(e for e, _ in results)
        assert all(x >= last_entry for _, x in results)

    def test_gfence_multiple_epochs(self):
        def main(task):
            lapi = task.lapi
            times = []
            for _ in range(4):
                yield from lapi.gfence()
                times.append(task.now())
            return times

        results = run_spmd(main, nnodes=4)
        for epoch in range(4):
            # Each epoch must complete before anyone starts the next.
            exits = [r[epoch] for r in results]
            if epoch + 1 < 4:
                next_exits = [r[epoch + 1] for r in results]
                assert max(exits) <= min(next_exits)

    def test_gfence_flushes_puts_globally(self):
        """After a gfence, every rank sees every pre-fence put."""
        def main(task):
            lapi = task.lapi
            n_ranks = task.size
            slots = task.memory.malloc(8 * n_ranks)
            yield from lapi.gfence()
            src = task.memory.malloc(8)
            task.memory.write_i64(src, task.rank + 1)
            for peer in range(n_ranks):
                if peer != task.rank:
                    yield from lapi.put(peer, 8, slots + 8 * task.rank,
                                        src)
                else:
                    task.memory.write_i64(slots + 8 * task.rank,
                                          task.rank + 1)
            yield from lapi.gfence()
            return [task.memory.read_i64(slots + 8 * r)
                    for r in range(n_ranks)]

        results = run_spmd(main, nnodes=4)
        for r in results:
            assert r == [1, 2, 3, 4]

    def test_gfence_on_single_task(self):
        def main(task):
            yield from task.lapi.gfence()
            return "ok"

        assert run_spmd(main, nnodes=1)[0] == "ok"

    def test_gfence_odd_task_count(self):
        """Dissemination barrier must handle non-power-of-two sizes."""
        def main(task):
            lapi = task.lapi
            yield from task.thread.sleep(task.rank * 100.0)
            yield from lapi.gfence()
            return task.now()

        results = run_spmd(main, nnodes=3)
        assert max(results) - min(results) < 100.0


class TestAddressInit:
    def test_address_exchange(self):
        def main(task):
            lapi = task.lapi
            my_buf = task.memory.malloc(64 * (task.rank + 1))
            addrs = yield from lapi.address_init(my_buf)
            return addrs

        results = run_spmd(main, nnodes=3)
        # Every rank sees the same table.
        assert results[0] == results[1] == results[2]
        assert len(results[0]) == 3

    def test_multiple_exchanges(self):
        def main(task):
            lapi = task.lapi
            t1 = yield from lapi.address_init(("a", task.rank))
            t2 = yield from lapi.address_init(("b", task.rank))
            return t1, t2

        results = run_spmd(main, nnodes=2)
        t1, t2 = results[0]
        assert t1 == [("a", 0), ("a", 1)]
        assert t2 == [("b", 0), ("b", 1)]


@pytest.mark.xfail(strict=True, reason=(
    "the target acknowledges a data packet before its dispatcher "
    "places the bytes, so fence returns while the last packet is "
    "still being copied (976 B: 0 bytes placed)"))
def test_fence_returns_after_the_data_is_placed(progress_mode):
    """DESIGN.md decision 4: once ``fence`` returns, every byte of the
    puts before it is in the target's buffer."""
    n = 976  # one packet

    def main(task):
        lapi = task.lapi
        buf = task.memory.malloc(n)
        addrs = yield from lapi.address_init(buf)
        placed = None
        if task.rank == 0:
            src = task.memory.malloc(n)
            payload = bytes(i % 251 + 1 for i in range(n))  # no zeros
            task.memory.write(src, payload)
            yield from lapi.put(1, n, addrs[1], src)
            yield from lapi.fence()
            got = task.cluster.nodes[1].memory.read(addrs[1], n)
            placed = sum(a == b for a, b in zip(got, payload))
        yield from lapi.gfence()
        return placed

    assert run_spmd(main, interrupt_mode=progress_mode)[0] == n
