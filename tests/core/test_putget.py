"""Integration tests: LAPI_Put / LAPI_Get through the full machine."""

import numpy as np
import pytest

from repro.machine.config import SP_1998

from .conftest import run_spmd


class TestPut:
    def test_put_delivers_bytes(self, progress_mode):
        payload = bytes(range(200))

        def main(task):
            lapi = task.lapi
            buf = task.memory.malloc(256)
            tgt = lapi.counter()
            yield from lapi.gfence()
            if task.rank == 0:
                src = task.memory.malloc(256)
                task.memory.write(src, payload)
                yield from lapi.put(1, len(payload), buf, src,
                                    tgt_cntr=tgt.id)
                yield from lapi.fence(1)
            else:
                yield from lapi.waitcntr(tgt, 1)
                return task.memory.read(buf, len(payload))

        results = run_spmd(main, interrupt_mode=progress_mode)
        assert results[1] == payload

    def test_multi_packet_put(self, progress_mode):
        n = SP_1998.lapi_payload * 4 + 123
        payload = bytes(i % 255 for i in range(n))

        def main(task):
            lapi = task.lapi
            buf = task.memory.malloc(n)
            tgt = lapi.counter()
            yield from lapi.gfence()
            if task.rank == 0:
                src = task.memory.malloc(n)
                task.memory.write(src, payload)
                yield from lapi.put(1, n, buf, src, tgt_cntr=tgt.id)
                yield from lapi.fence()
            else:
                yield from lapi.waitcntr(tgt, 1)
                return task.memory.read(buf, n)

        results = run_spmd(main, interrupt_mode=progress_mode)
        assert results[1] == payload

    def test_org_cntr_small_fires_before_ack(self):
        """Small puts copy into internal buffers: the origin counter is
        available immediately (section 5.3.1)."""

        def main(task):
            lapi = task.lapi
            buf = task.memory.malloc(64)
            yield from lapi.gfence()
            if task.rank == 0:
                src = task.memory.malloc(64)
                org = lapi.counter()
                t0 = task.now()
                yield from lapi.put(1, 64, buf, src, org_cntr=org)
                value_at_return = org.value
                yield from lapi.fence()
                return value_at_return
            yield from lapi.fence()

        results = run_spmd(main)
        assert results[0] == 1

    def test_org_cntr_large_fires_after_acks(self):
        """Puts above the internal-copy limit hold the user buffer until
        acknowledgement; the origin counter must not fire at return."""
        n = SP_1998.lapi_retrans_copy_limit * 4

        def main(task):
            lapi = task.lapi
            buf = task.memory.malloc(n)
            yield from lapi.gfence()
            if task.rank == 0:
                src = task.memory.malloc(n)
                org = lapi.counter()
                yield from lapi.put(1, n, buf, src, org_cntr=org)
                at_return = org.value
                yield from lapi.waitcntr(org, 1)
                return (at_return, org.total)
            yield from lapi.fence()

        results = run_spmd(main)
        at_return, total = results[0]
        assert at_return == 0
        assert total == 1

    def test_cmpl_cntr_round_trip(self, progress_mode):
        def main(task):
            lapi = task.lapi
            buf = task.memory.malloc(32)
            yield from lapi.gfence()
            if task.rank == 0:
                src = task.memory.malloc(32)
                cmpl = lapi.counter()
                yield from lapi.put(1, 32, buf, src, cmpl_cntr=cmpl)
                yield from lapi.waitcntr(cmpl, 1)
                return "completed"
            yield from lapi.fence()

        assert run_spmd(main, interrupt_mode=progress_mode)[0] == "completed"

    def test_put_to_self_fast_path(self):
        def main(task):
            lapi = task.lapi
            a = task.memory.malloc(16)
            b = task.memory.malloc(16)
            task.memory.write(a, b"self put test 16")
            tgt = lapi.counter()
            org = lapi.counter()
            yield from lapi.put(task.rank, 16, b, a, tgt_cntr=tgt.id,
                                org_cntr=org)
            yield from lapi.waitcntr(tgt, 1)
            yield from lapi.waitcntr(org, 1)
            return (task.memory.read(b, 16), lapi.stats.local_fastpaths)

        results = run_spmd(main, nnodes=1)
        data, fast = results[0]
        assert data == b"self put test 16"
        assert fast == 1

    def test_zero_length_put_fires_counters(self):
        def main(task):
            lapi = task.lapi
            buf = task.memory.malloc(8)
            tgt = lapi.counter()
            yield from lapi.gfence()
            if task.rank == 0:
                src = task.memory.malloc(8)
                yield from lapi.put(1, 0, buf, src, tgt_cntr=tgt.id)
                yield from lapi.fence()
            else:
                yield from lapi.waitcntr(tgt, 1)
                return "signalled"

        assert run_spmd(main)[1] == "signalled"

    def test_put_invalid_target_raises(self):
        from repro.errors import LapiError

        def main(task):
            lapi = task.lapi
            src = task.memory.malloc(8)
            try:
                yield from lapi.put(99, 8, 0, src)
            except LapiError:
                return "rejected"

        assert run_spmd(main, nnodes=1)[0] == "rejected"

    def test_many_concurrent_puts_one_counter(self, progress_mode):
        """Section 2.3: one counter groups many messages."""
        count = 12

        def main(task):
            lapi = task.lapi
            bufs = [task.memory.malloc(64) for _ in range(count)]
            tgt = lapi.counter()
            yield from lapi.gfence()
            if task.rank == 0:
                src = task.memory.malloc(64)
                task.memory.write(src, bytes(range(64)))
                for b in bufs:
                    yield from lapi.put(1, 64, b, src, tgt_cntr=tgt.id)
                yield from lapi.fence()
            else:
                yield from lapi.waitcntr(tgt, count)
                return [task.memory.read(b, 64) for b in bufs]

        results = run_spmd(main, interrupt_mode=progress_mode)
        assert all(r == bytes(range(64)) for r in results[1])


class TestGet:
    def test_get_pulls_bytes(self, progress_mode):
        payload = b"remote data!" * 8

        def main(task):
            lapi = task.lapi
            buf = task.memory.malloc(len(payload))
            if task.rank == 1:
                task.memory.write(buf, payload)
            yield from lapi.gfence()
            if task.rank == 0:
                dst = task.memory.malloc(len(payload))
                yield from lapi.get_sync(1, len(payload), buf, dst)
                return task.memory.read(dst, len(payload))
            # Rank 1 does nothing further: the get is fully one-sided
            # (LAPI_Term's collective quiesce pairs the shutdown).

        results = run_spmd(main, interrupt_mode=progress_mode)
        assert results[0] == payload

    def test_large_get_multi_packet(self):
        n = SP_1998.lapi_payload * 5 + 77
        payload = bytes(i % 253 for i in range(n))

        def main(task):
            lapi = task.lapi
            buf = task.memory.malloc(n)
            if task.rank == 1:
                task.memory.write(buf, payload)
            yield from lapi.gfence()
            if task.rank == 0:
                dst = task.memory.malloc(n)
                yield from lapi.get_sync(1, n, buf, dst)
                return task.memory.read(dst, n)
            # One-sided: rank 1 takes no further part (term pairs up).

        assert run_spmd(main)[0] == payload

    def test_get_tgt_cntr_fires_at_target(self):
        def main(task):
            lapi = task.lapi
            buf = task.memory.malloc(64)
            tgt = lapi.counter()
            yield from lapi.gfence()
            if task.rank == 0:
                dst = task.memory.malloc(64)
                yield from lapi.get_sync(1, 64, buf, dst)
                yield from lapi.gfence()
            else:
                # Target learns its data was read out.
                yield from lapi.waitcntr(tgt, 1)
                yield from lapi.gfence()
                return "target notified"

        def main_with_cntr(task):
            lapi = task.lapi
            buf = task.memory.malloc(64)
            tgt = lapi.counter()
            yield from lapi.gfence()
            if task.rank == 0:
                dst = task.memory.malloc(64)
                org = lapi.counter()
                yield from lapi.get(1, 64, buf, dst, tgt_cntr=tgt.id,
                                    org_cntr=org)
                yield from lapi.waitcntr(org, 1)
                yield from lapi.gfence()
            else:
                yield from lapi.waitcntr(tgt, 1)
                yield from lapi.gfence()
                return "target notified"

        assert run_spmd(main_with_cntr)[1] == "target notified"

    def test_get_from_self(self):
        def main(task):
            lapi = task.lapi
            a = task.memory.malloc(8)
            b = task.memory.malloc(8)
            task.memory.write(a, b"selfget!")
            yield from lapi.get_sync(task.rank, 8, a, b)
            return task.memory.read(b, 8)

        assert run_spmd(main, nnodes=1)[0] == b"selfget!"

    def test_bidirectional_simultaneous(self, progress_mode):
        """Both ranks get from each other at once (no deadlock)."""
        def main(task):
            lapi = task.lapi
            buf = task.memory.malloc(128)
            task.memory.write(buf, bytes([task.rank + 65]) * 128)
            yield from lapi.gfence()
            peer = 1 - task.rank
            dst = task.memory.malloc(128)
            yield from lapi.get_sync(peer, 128, buf, dst)
            return task.memory.read(dst, 128)

        results = run_spmd(main, interrupt_mode=progress_mode)
        assert results[0] == b"B" * 128
        assert results[1] == b"A" * 128


class TestPipelining:
    def test_nonblocking_put_returns_before_delivery(self):
        """The pipeline-latency property of section 4: control returns
        long before the one-way latency has elapsed."""

        def main(task):
            lapi = task.lapi
            buf = task.memory.malloc(4096)
            yield from lapi.gfence()
            if task.rank == 0:
                src = task.memory.malloc(4096)
                t0 = task.now()
                yield from lapi.put(1, 4096, buf, src)
                issue_time = task.now() - t0
                cmpl = lapi.counter()
                t0 = task.now()
                yield from lapi.put(1, 4096, buf, src, cmpl_cntr=cmpl)
                yield from lapi.waitcntr(cmpl, 1)
                full_time = task.now() - t0
                yield from lapi.fence()
                return issue_time, full_time
            yield from lapi.fence()

        issue, full = run_spmd(main)[0]
        assert issue < full / 2, (issue, full)

    def test_unordered_pipelining_overlaps(self):
        """Issuing N puts back to back costs far less than N times the
        synchronous put latency (the paper's latency hiding)."""
        reps = 8

        def main(task):
            lapi = task.lapi
            buf = task.memory.malloc(64 * reps)
            yield from lapi.gfence()
            if task.rank == 0:
                src = task.memory.malloc(64)
                cmpl = lapi.counter()
                t0 = task.now()
                yield from lapi.put_sync(1, 64, buf, src)
                sync_one = task.now() - t0
                t0 = task.now()
                for i in range(reps):
                    yield from lapi.put(1, 64, buf + 64 * i, src,
                                        cmpl_cntr=cmpl)
                yield from lapi.waitcntr(cmpl, reps)
                pipelined = task.now() - t0
                yield from lapi.fence()
                return sync_one, pipelined
            yield from lapi.fence()

        sync_one, pipelined = run_spmd(main)[0]
        assert pipelined < reps * sync_one * 0.7, (sync_one, pipelined)


class TestSyncCounters:
    def test_get_sync_registers_no_counter(self):
        def main(task):
            lapi = task.lapi
            buf = task.memory.malloc(64)
            first = lapi.counter().id
            for _ in range(5):
                yield from lapi.get_sync(1 - task.rank, 64, buf, buf)
            return lapi.counter().id - first

        assert run_spmd(main) == [1, 1]

    def test_put_sync_leaves_counter_ids_symmetric(self):
        """put_sync's completion counter is addressed by id from the
        target, but lives only for the call: the user's counter ids
        stay symmetric across ranks and the table keeps its size."""
        def main(task):
            lapi = task.lapi
            buf = task.memory.malloc(64)
            before = len(lapi.ctx.counters)
            yield from lapi.gfence()
            if task.rank == 0:
                for _ in range(5):
                    yield from lapi.put_sync(1, 64, buf, buf)
            yield from lapi.gfence()
            return lapi.counter().id, len(lapi.ctx.counters) - 1 - before

        (id0, grew0), (id1, grew1) = run_spmd(main)
        assert id0 == id1
        assert grew0 == grew1 == 0
