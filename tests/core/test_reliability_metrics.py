"""Reliability metrics: retransmit injection path, duplicate-ack
counting, and registry/transport agreement under a lossy switch."""

from repro.core.reliability import ReliableTransport
from repro.faults import FaultSchedule, GilbertElliott
from repro.machine import Cluster
from repro.machine.config import SP_1998
from repro.machine.packet import Packet
from repro.sim import Simulator

from .conftest import run_spmd


class _FakeAdapter:
    """Records which injection path each packet took."""

    def __init__(self, node_id=0, async_budget=10**9):
        self.node_id = node_id
        self.crashed = False
        self.data = []
        self.asynced = []
        self.control = []
        #: inject_async succeeds this many times, then reports a
        #: saturated TX FIFO.
        self.async_budget = async_budget

    def inject(self, thread, packet):
        self.data.append(packet)
        return
        yield  # pragma: no cover - make this a generator

    def inject_async(self, packet):
        if self.async_budget <= 0:
            return False
        self.async_budget -= 1
        self.asynced.append(packet)
        return True

    def inject_control(self, packet):
        self.control.append(packet)


def _data_packet(dst=1):
    return Packet(src=0, dst=dst, proto="lapi", kind="data",
                  header_bytes=32, payload=b"x" * 64)


def _ack_for(pkt):
    return Packet(src=pkt.dst, dst=pkt.src, proto="lapi", kind="ack",
                  header_bytes=16, info={"acked_seq": pkt.seq})


def _transport(adapter):
    sim = Simulator()
    return sim, ReliableTransport(
        sim, adapter, "lapi", window=4, timeout=100.0, adaptive=False,
        rto_min=SP_1998.rto_min, rto_max=SP_1998.rto_max,
        backoff=SP_1998.rto_backoff,
        degraded_after=SP_1998.peer_degraded_after,
        retry_budget=SP_1998.retry_budget)


class TestRetransmitInjectionPath:
    def test_data_retransmit_uses_data_fifo_path(self):
        """A retransmitted data packet must re-enter through the
        credit-accounted data path, not the control slots."""
        adapter = _FakeAdapter()
        sim, tr = _transport(adapter)
        pkt = _data_packet()
        sim.process(tr.send_data(None, pkt))
        sim.run(until=150.0)  # past one timeout
        assert len(adapter.asynced) == 1  # retransmit, data path
        assert adapter.asynced[0] is pkt
        assert all(p.kind == "ack" or p is not pkt
                   for p in adapter.control)
        assert tr.retransmissions == 1
        tr.on_ack(_ack_for(pkt))
        sim.run()
        assert tr.outstanding_total() == 0

    def test_control_retransmit_keeps_reserved_slots(self):
        adapter = _FakeAdapter()
        sim, tr = _transport(adapter)
        pkt = Packet(src=0, dst=1, proto="lapi", kind="fence",
                     header_bytes=16)
        tr.send_control(pkt)
        sim.run(until=150.0)
        assert adapter.control.count(pkt) == 2  # original + retransmit
        assert adapter.asynced == []
        tr.on_ack(_ack_for(pkt))
        sim.run()

    def test_saturated_fifo_defers_without_charging_attempt(self):
        adapter = _FakeAdapter(async_budget=0)
        sim, tr = _transport(adapter)
        pkt = _data_packet()
        sim.process(tr.send_data(None, pkt))
        sim.run(until=200.0)
        assert tr.retransmissions == 0
        assert tr.retransmit_backoffs > 0
        # FIFO frees up: the deferred packet goes out on a later round.
        adapter.async_budget = 10**9
        sim.run(until=400.0)
        assert tr.retransmissions >= 1
        assert adapter.asynced[0] is pkt
        tr.on_ack(_ack_for(pkt))
        sim.run()

    def test_ack_before_timeout_means_no_retransmit(self):
        adapter = _FakeAdapter()
        sim, tr = _transport(adapter)
        pkt = _data_packet()
        sim.process(tr.send_data(None, pkt))
        sim.run(until=10.0)
        tr.on_ack(_ack_for(pkt))
        sim.run()
        assert tr.retransmissions == 0
        assert adapter.asynced == []


class TestDuplicateAcks:
    def test_unknown_peer_and_reacked_seq_are_counted(self):
        adapter = _FakeAdapter()
        sim, tr = _transport(adapter)
        pkt = _data_packet()
        sim.process(tr.send_data(None, pkt))
        sim.run(until=1.0)
        stray = Packet(src=9, dst=0, proto="lapi", kind="ack",
                       header_bytes=16, info={"acked_seq": 0})
        tr.on_ack(stray)  # no send state toward node 9
        assert tr.duplicate_acks == 1
        tr.on_ack(_ack_for(pkt))  # genuine
        tr.on_ack(_ack_for(pkt))  # retransmission overlap: duplicate
        assert tr.duplicate_acks == 2
        assert tr.metrics()["duplicate_acks"] == 2
        sim.run()

    def test_ack_rtt_histogram_observes_when_installed(self):
        from repro.obs import Histogram
        adapter = _FakeAdapter()
        sim, tr = _transport(adapter)
        tr.ack_rtt = Histogram("rtt", buckets=[1.0, 10.0, 100.0])
        pkt = _data_packet()
        sim.process(tr.send_data(None, pkt))
        sim.run(until=5.0)
        tr.on_ack(_ack_for(pkt))
        snap = tr.ack_rtt.snapshot_value()
        assert snap["count"] == 1
        assert 0.0 <= snap["max"] <= 5.0
        sim.run()


class TestRegistryAgreement:
    def test_lossy_run_metrics_match_transport_counters(self):
        """Registry numbers are the transport's numbers, and a lossy
        switch makes them nonzero."""
        faults = FaultSchedule([GilbertElliott(loss_good=0.2)])

        def main(task):
            lapi = task.lapi
            n = SP_1998.lapi_payload * 6
            buf = task.memory.malloc(n)
            yield from lapi.gfence()
            if task.rank == 0:
                src = task.memory.malloc(n)
                yield from lapi.put(1, n, buf, src)
                yield from lapi.fence()
            yield from lapi.gfence()
            return lapi.transport.retransmissions

        cluster = Cluster(nnodes=2, seed=3, faults=faults)
        per_rank = cluster.run_job(main, stacks=("lapi",))
        snap = cluster.metrics.snapshot()
        rel = snap["core.reliability"]
        for rank, retx in enumerate(per_rank):
            assert rel[str(rank)]["retransmissions"] == retx
        assert sum(per_rank) > 0
        # The dispatcher block is present for every rank too.
        for rank in range(2):
            assert snap["core.dispatcher"][str(rank)][
                "packets_processed"] > 0

    def test_clean_run_has_zero_recovery_metrics(self):
        def main(task):
            lapi = task.lapi
            buf = task.memory.malloc(64)
            yield from lapi.gfence()
            if task.rank == 0:
                src = task.memory.malloc(64)
                yield from lapi.put(1, 64, buf, src)
                yield from lapi.fence()
            yield from lapi.gfence()

        cluster = Cluster(nnodes=2, seed=1)
        cluster.run_job(main, stacks=("lapi",))
        rel = cluster.metrics.snapshot()["core.reliability"]
        for rank in ("0", "1"):
            assert rel[rank]["retransmissions"] == 0
            assert rel[rank]["duplicates_dropped"] == 0

    def test_run_spmd_helper_still_sees_transport_stats(self):
        # The conftest path used by older tests keeps working.
        def main(task):
            yield from task.lapi.gfence()
            return task.lapi.transport.acks_sent

        results = run_spmd(main)
        assert all(isinstance(r, int) for r in results)
