"""Integration tests: MPL send/recv through the full machine."""

import pytest

from repro.faults import FaultSchedule, GilbertElliott
from repro.machine.config import SP_1998

from .conftest import run_mpl


class TestEager:
    def test_small_message_roundtrip(self, progress_mode):
        def main(task):
            mpl = task.mpl
            if task.rank == 0:
                yield from mpl.send(1, b"ping", 4, tag=1)
                return (yield from mpl.recv_bytes(1, tag=2))
            data = yield from mpl.recv_bytes(0, tag=1)
            yield from mpl.send(0, b"pong", 4, tag=2)
            return data

        results = run_mpl(main, interrupt_mode=progress_mode)
        assert results == [b"pong", b"ping"]

    def test_memory_addressed_transfer(self):
        payload = bytes(range(256)) * 4

        def main(task):
            mpl = task.mpl
            buf = task.memory.malloc(1024)
            if task.rank == 0:
                task.memory.write(buf, payload)
                yield from mpl.send(1, buf, len(payload), tag=3)
            else:
                yield from mpl.recv(0, 3, buf, 1024)
                return task.memory.read(buf, len(payload))

        assert run_mpl(main)[1] == payload

    def test_buffered_send_completes_after_copy(self):
        """A small isend is complete (buffer reusable) at return."""
        def main(task):
            mpl = task.mpl
            if task.rank == 0:
                req = yield from mpl.isend(1, b"x" * 512, 512, tag=1)
                state = req.complete
                yield from mpl.barrier()
                return state, req.protocol
            yield from mpl.recv_bytes(0, tag=1)
            yield from mpl.barrier()

        state, proto = run_mpl(main)[0]
        assert state is True
        assert proto == "eager-buffered"

    def test_eager_direct_above_buffer_limit(self):
        """Between the buffer limit and eager limit: direct eager; the
        request completes only on acknowledgement."""
        cfg = SP_1998.replace(mpl_send_buffer_limit=1024,
                              mpl_eager_limit=8192)
        n = 4096

        def main(task):
            mpl = task.mpl
            if task.rank == 0:
                req = yield from mpl.isend(1, b"y" * n, n, tag=1)
                at_return = req.complete
                yield from mpl.wait(req)
                return at_return, req.protocol
            yield from mpl.recv_bytes(0, tag=1)

        at_return, proto = run_mpl(main, config=cfg)[0]
        assert at_return is False
        assert proto == "eager-direct"

    def test_early_arrival_extra_copy(self, progress_mode):
        """Message arriving before the receive is posted lands in the
        early-arrival buffer and is copied again at receive time."""
        def main(task):
            mpl = task.mpl
            if task.rank == 0:
                yield from mpl.send(1, b"early bird" * 10, 100, tag=7)
                yield from mpl.barrier()
            else:
                # Delay the receive until the message must have arrived.
                yield from task.thread.sleep(500.0)
                data = yield from mpl.recv_bytes(0, tag=7)
                yield from mpl.barrier()
                return data, mpl.stats.early_arrival_bytes

        data, early = run_mpl(main, interrupt_mode=progress_mode)[1]
        assert data == b"early bird" * 10
        if progress_mode:
            # Interrupt mode: the message was assembled before the
            # receive posted, forcing the extra copy.
            assert early == 100
        else:
            # Polling mode: nothing processed the packets until the
            # receive posted, so they land directly -- no early copy.
            assert early == 0

    def test_posted_receive_single_copy(self):
        """Receive posted first: data lands directly, no early bytes."""
        def main(task):
            mpl = task.mpl
            if task.rank == 0:
                yield from task.thread.sleep(200.0)
                yield from mpl.send(1, b"direct" * 10, 60, tag=7)
                yield from mpl.barrier()
            else:
                req = yield from mpl.irecv(0, 7, None, 60)
                yield from mpl.wait(req)
                yield from mpl.barrier()
                return req.data, mpl.stats.early_arrival_bytes

        data, early = run_mpl(main)[1]
        assert data == b"direct" * 10
        assert early == 0


class TestRendezvous:
    def test_large_message_uses_rendezvous(self, progress_mode):
        n = SP_1998.mpl_eager_limit * 4
        payload = bytes(i % 251 for i in range(n))

        def main(task):
            mpl = task.mpl
            if task.rank == 0:
                req = yield from mpl.isend(1, payload, n, tag=9)
                yield from mpl.wait(req)
                yield from mpl.barrier()
                return req.protocol
            data = yield from mpl.recv_bytes(0, tag=9)
            yield from mpl.barrier()
            return data

        results = run_mpl(main, interrupt_mode=progress_mode)
        assert results[0] == "rendezvous"
        assert results[1] == payload

    def test_rendezvous_avoids_early_copy(self):
        """Rendezvous data flows only after the receive posts: no
        early-arrival buffering even when the send starts first."""
        n = SP_1998.mpl_eager_limit * 2

        def main(task):
            mpl = task.mpl
            if task.rank == 0:
                yield from mpl.send(1, b"r" * n, n, tag=9)
                yield from mpl.barrier()
            else:
                yield from task.thread.sleep(400.0)
                data = yield from mpl.recv_bytes(0, tag=9)
                yield from mpl.barrier()
                return len(data), mpl.stats.early_arrival_bytes

        got_len, early = run_mpl(main)[1]
        assert got_len == n
        assert early == 0

    def test_eager_limit_override(self):
        """MP_EAGER_LIMIT=64K pushes the protocol switch out (the
        Figure 2 environment-variable experiment)."""
        n = 32 * 1024

        def main(task):
            mpl = task.mpl
            if task.rank == 0:
                req = yield from mpl.isend(1, b"e" * n, n, tag=1)
                yield from mpl.wait(req)
                yield from mpl.barrier()
                return req.protocol
            yield from mpl.recv_bytes(0, tag=1)
            yield from mpl.barrier()

        assert run_mpl(main)[0] == "rendezvous"  # default 4K limit
        assert run_mpl(main, eager_limit=65536)[0] == "eager-direct"

    def test_eager_limit_above_max_rejected(self):
        from repro.errors import MplError
        with pytest.raises(MplError):
            run_mpl(lambda task: iter(()), eager_limit=1 << 20)


class TestOrderingSemantics:
    def test_same_source_messages_recv_in_send_order(self, progress_mode):
        """MPI guarantee: messages from one source match in send order,
        even though the fabric reorders packets."""
        cfg = SP_1998.replace(switch_group_size=1, route_jitter=5.0)
        count = 10

        def main(task):
            mpl = task.mpl
            if task.rank == 0:
                for i in range(count):
                    yield from mpl.send(1, bytes([i]) * 32, 32, tag=4)
                yield from mpl.barrier()
            else:
                got = []
                for _ in range(count):
                    data = yield from mpl.recv_bytes(0, tag=4)
                    got.append(data[0])
                yield from mpl.barrier()
                return got

        results = run_mpl(main, config=cfg, seed=3,
                          interrupt_mode=progress_mode)
        assert results[1] == list(range(count))

    def test_tag_selective_receive(self):
        def main(task):
            mpl = task.mpl
            if task.rank == 0:
                yield from mpl.send(1, b"tagA", 4, tag=1)
                yield from mpl.send(1, b"tagB", 4, tag=2)
                yield from mpl.barrier()
            else:
                b = yield from mpl.recv_bytes(0, tag=2)
                a = yield from mpl.recv_bytes(0, tag=1)
                yield from mpl.barrier()
                return a, b

        a, b = run_mpl(main)[1]
        assert (a, b) == (b"tagA", b"tagB")

    def test_any_source_receive(self):
        def main(task):
            mpl = task.mpl
            from repro.mpl import ANY_SOURCE
            if task.rank == 0:
                got = []
                for _ in range(2):
                    req = yield from mpl.recv(ANY_SOURCE, 5, None, 64)
                    got.append((req.received_src, req.data))
                yield from mpl.barrier()
                return sorted(got)
            yield from mpl.send(0, bytes([task.rank]) * 4, 4, tag=5)
            yield from mpl.barrier()

        got = run_mpl(main, nnodes=3)[0]
        assert got == [(1, b"\x01" * 4), (2, b"\x02" * 4)]

    def test_send_to_self(self):
        def main(task):
            mpl = task.mpl
            yield from mpl.send(task.rank, b"loopback", 8, tag=1)
            return (yield from mpl.recv_bytes(task.rank, tag=1))

        assert run_mpl(main, nnodes=1)[0] == b"loopback"


class TestLossAndStress:
    def test_eager_survives_loss(self):
        faults = FaultSchedule([GilbertElliott(loss_good=0.15)])
        n = 3000

        def main(task):
            mpl = task.mpl
            if task.rank == 0:
                yield from mpl.send(1, bytes(range(256)) * 12, n, tag=1)
                yield from mpl.barrier()
            else:
                data = yield from mpl.recv_bytes(0, tag=1)
                yield from mpl.barrier()
                return data

        assert run_mpl(main, faults=faults, seed=9)[1] == \
            (bytes(range(256)) * 12)[:3000]

    def test_rendezvous_survives_loss(self):
        faults = FaultSchedule([GilbertElliott(loss_good=0.1)])
        n = SP_1998.mpl_eager_limit * 3

        def main(task):
            mpl = task.mpl
            if task.rank == 0:
                yield from mpl.send(1, b"R" * n, n, tag=1)
                yield from mpl.barrier()
            else:
                data = yield from mpl.recv_bytes(0, tag=1)
                yield from mpl.barrier()
                return len(data)

        assert run_mpl(main, faults=faults, seed=4)[1] == n

    def test_many_outstanding_isends(self):
        count = 20

        def main(task):
            mpl = task.mpl
            if task.rank == 0:
                reqs = []
                for i in range(count):
                    r = yield from mpl.isend(1, bytes([i]) * 100, 100,
                                             tag=i)
                    reqs.append(r)
                yield from mpl.waitall(reqs)
                yield from mpl.barrier()
            else:
                out = []
                for i in reversed(range(count)):  # receive backwards
                    data = yield from mpl.recv_bytes(0, tag=i)
                    out.append(data[0])
                yield from mpl.barrier()
                return out

        assert run_mpl(main)[1] == list(reversed(range(count)))
