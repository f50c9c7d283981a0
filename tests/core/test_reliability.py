"""Reliability layer: loss recovery, duplicate filtering, reordering."""

from dataclasses import astuple

import pytest

from repro.faults import FaultSchedule, GilbertElliott
from repro.machine import Cluster
from repro.machine.config import SP_1998
from repro.obs import ObsSpec

from .conftest import run_spmd


#: (stack, seed) -> (route jitter, packets stashed, sim.now, every
#: rank's stats as a tuple in field order) of the outracing jobs below,
#: at seeds where a packet outraces its message's first packet.
STASH_PINS = {
    ("lapi", 0): (100.0, 2, 591.9815562819158, [
        (0, 0, 1, 0, 4, 3, 3, 3, 0, 0, 5856, 0, 0),
        (0, 0, 0, 0, 3, 3, 10, 4, 1, 0, 0, 5856, 0),
    ]),
    ("lapi", 2): (100.0, 1, 603.5094531425979, [
        (0, 0, 1, 0, 4, 3, 3, 3, 0, 0, 5856, 0, 0),
        (0, 0, 0, 0, 3, 3, 10, 5, 1, 0, 0, 5856, 0),
    ]),
    ("mpl", 1): (25.0, 1, 696.0113653993076, [
        (7, 3, 7, 0, 0, 0, 3, 2, 0, 16384, 0),
        (3, 7, 3, 0, 0, 0, 23, 3, 12288, 0, 16384),
    ]),
    ("mpl", 2): (25.0, 2, 709.6092459009708, [
        (7, 3, 7, 0, 0, 0, 3, 2, 0, 16384, 0),
        (3, 7, 3, 0, 0, 0, 23, 3, 12288, 0, 16384),
    ]),
}


def _am_outracing(task):
    """Rank 0 sends one 6-packet active message to rank 1; returns the
    data each rank holds and its (live) stats."""
    n = SP_1998.lapi_payload * 6
    lapi = task.lapi
    buf = task.memory.malloc(n)
    hid = lapi.register_handler(lambda t, src, uhdr, n: (buf, None, None))
    tgt = lapi.counter()
    yield from lapi.gfence()
    if task.rank == 0:
        data = bytes(i % 233 for i in range(n))
        yield from lapi.amsend(1, hid, b"h", data, n, tgt_cntr=tgt.id)
        yield from lapi.fence()
    else:
        yield from lapi.waitcntr(tgt, 1)
    yield from lapi.gfence()
    return (data if task.rank == 0 else task.memory.read(buf, n),
            lapi.stats)


def _eager_outracing(task):
    """Rank 0 sends four 4 096 B eager messages to rank 1; returns the
    data each rank holds and its (live) stats."""
    mpl = task.mpl
    sizes = range(4)
    yield from mpl.barrier()
    if task.rank == 0:
        data = [bytes((i + k) % 233 for i in range(4096)) for k in sizes]
        reqs = []
        for d in data:
            reqs.append((yield from mpl.isend(1, d, 4096, 3)))
        yield from mpl.waitall(reqs)
    else:
        data = []
        for _ in sizes:
            data.append((yield from mpl.recv_bytes(0, 3)))
    yield from mpl.barrier()
    return data, mpl.stats


def _dispatched_before_first(spans) -> int:
    """Data packets of an MPL send dispatched before the send's first
    packet, which carries the envelope (packet uids run in send order)."""
    sends: dict = {}
    for s in spans.records:
        if s.subsystem == "mpl" and s.phase == "dispatch" and s.op == "send":
            sends.setdefault(s.parent, []).append((s.t1, s.fields["uid"]))
    early = 0
    for arrivals in sends.values():
        first = min(uid for _, uid in arrivals)
        arrivals.sort()
        early += [uid for _, uid in arrivals].index(first)
    return early


class TestDuplicateFilter:
    def test_rx_dedup_watermark(self):
        from repro.core.reliability import _PeerRx
        rx = _PeerRx()
        assert rx.fresh(0)
        assert rx.fresh(1)
        assert not rx.fresh(0)
        assert not rx.fresh(1)
        assert rx.cum == 2
        assert rx.seen == set()

    def test_rx_dedup_out_of_order(self):
        from repro.core.reliability import _PeerRx
        rx = _PeerRx()
        assert rx.fresh(3)
        assert rx.fresh(1)
        assert rx.fresh(0)
        assert not rx.fresh(3)
        assert rx.fresh(2)
        assert rx.cum == 4
        assert rx.seen == set()

    def test_sparse_set_bounded_by_watermark(self):
        from repro.core.reliability import _PeerRx
        rx = _PeerRx()
        for seq in range(0, 100, 2):  # evens first
            assert rx.fresh(seq)
        for seq in range(1, 100, 2):  # odds fill the gaps
            assert rx.fresh(seq)
        assert rx.cum == 100
        assert rx.seen == set()


class TestLossRecovery:
    @pytest.mark.parametrize("loss", [0.05, 0.2])
    def test_put_survives_packet_loss(self, loss):
        """Data delivered intact despite fabric loss (retransmission)."""
        faults = FaultSchedule([GilbertElliott(loss_good=loss)])
        n = SP_1998.lapi_payload * 6 + 99
        payload = bytes(i % 241 for i in range(n))

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
                yield from lapi.gfence()
                return lapi.transport.retransmissions
            else:
                yield from lapi.waitcntr(tgt, 1)
                yield from lapi.gfence()
                return task.memory.read(buf, n)

        results = run_spmd(main, faults=faults, seed=7)
        assert results[1] == payload

    def test_retransmissions_actually_happen(self):
        faults = FaultSchedule([GilbertElliott(loss_good=0.3)])

        def main(task):
            lapi = task.lapi
            n = SP_1998.lapi_payload * 8
            buf = task.memory.malloc(n)
            yield from lapi.gfence()
            if task.rank == 0:
                src = task.memory.malloc(n)
                yield from lapi.put(1, n, buf, src)
                yield from lapi.fence()
                yield from lapi.gfence()
                return lapi.transport.retransmissions
            yield from lapi.gfence()
            return lapi.transport.duplicates_dropped

        results = run_spmd(main, faults=faults, seed=3)
        assert results[0] > 0  # sender retransmitted

    def test_rmw_survives_loss_without_double_apply(self):
        """A lost RMW reply must not cause the op to apply twice."""
        faults = FaultSchedule([GilbertElliott(loss_good=0.25)])

        def main(task):
            lapi = task.lapi
            from repro.core import RmwOp
            addr = task.memory.malloc(8)
            task.memory.write_i64(addr, 0)
            yield from lapi.gfence()
            if task.rank == 0:
                for _ in range(10):
                    yield from lapi.rmw_sync(RmwOp.FETCH_AND_ADD, 1,
                                             addr, 1)
            yield from lapi.gfence()
            if task.rank == 1:
                return task.memory.read_i64(addr)

        results = run_spmd(main, faults=faults, seed=11)
        assert results[1] == 10

    def test_gfence_survives_loss(self):
        faults = FaultSchedule([GilbertElliott(loss_good=0.2)])

        def main(task):
            lapi = task.lapi
            for _ in range(3):
                yield from lapi.gfence()
            return "ok"

        assert run_spmd(main, nnodes=4, faults=faults,
                        seed=5) == ["ok"] * 4


class TestOutOfOrder:
    def test_cross_group_multi_packet_put_reassembles(self):
        """Nodes in different switch groups: packets take disjoint
        middle-stage routes and arrive out of order; the self-describing
        headers must still reassemble the message exactly."""
        cfg = SP_1998.replace(switch_group_size=1, route_jitter=3.0)
        n = SP_1998.lapi_payload * 10
        payload = bytes(i % 239 for i in range(n))

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

        assert run_spmd(main, config=cfg, seed=13)[1] == payload

    @pytest.mark.parametrize("stack,seed", list(STASH_PINS))
    def test_data_outracing_first_packet_is_stashed(self, stack, seed):
        """Under heavy jitter a later packet of a message can beat its
        first one, which names the destination: an active message's
        header or an MPL envelope.  The receiver stashes it and flushes
        it once the destination is known.  The stash path must run, the
        data arrive intact, and virtual time and every rank's stats stay
        exactly as pinned."""
        jitter, stashed, now, stats = STASH_PINS[stack, seed]
        cfg = SP_1998.replace(switch_group_size=1, route_jitter=jitter)
        cluster = Cluster(nnodes=2, config=cfg, seed=seed,
                          obs=ObsSpec({"spans"}))
        main = _am_outracing if stack == "lapi" else _eager_outracing
        (data0, stats0), (data1, stats1) = cluster.run_job(
            main, stacks=(stack,))
        assert data1 == data0
        if stack == "lapi":
            assert cluster.metrics.snapshot()["core.dispatcher"]["1"][
                "reassembly_ooo_depth"]["count"] == stashed
        else:
            assert _dispatched_before_first(cluster.spans) == stashed
        assert cluster.sim.now == now
        assert [astuple(stats0), astuple(stats1)] == stats


class TestBackpressure:
    def test_send_window_limits_inflight(self):
        """A burst of puts cannot have more unacked packets in flight
        than the window allows."""
        cfg = SP_1998.replace(lapi_window=4)

        def main(task):
            lapi = task.lapi
            n = SP_1998.lapi_payload
            bufs = task.memory.malloc(n * 32)
            yield from lapi.gfence()
            if task.rank == 0:
                src = task.memory.malloc(n)
                peak = 0
                for i in range(32):
                    yield from lapi.put(1, n, bufs + n * i, src)
                    peak = max(peak, lapi.transport.outstanding_to(1))
                yield from lapi.fence()
                yield from lapi.gfence()
                return peak
            yield from lapi.gfence()

        peak = run_spmd(main, config=cfg)[0]
        assert peak <= 4
