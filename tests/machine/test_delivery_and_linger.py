"""Tests for delivery filters, get-cancellation, interrupt coalescing."""

import pytest

from repro.errors import SimulationError
from repro.machine import Adapter, Packet, Switch
from repro.machine.config import SP_1998
from repro.sim import Channel, RngRegistry, Simulator


class TestCancelGet:
    def test_cancelled_getter_does_not_steal(self):
        sim = Simulator()
        ch = Channel(sim)
        g1 = ch.get()
        ch.cancel_get(g1)
        g2 = ch.get()
        ch.put("item")
        assert not g1.triggered
        assert g2.value == "item"

    def test_cancel_satisfied_get_rejected(self):
        sim = Simulator()
        ch = Channel(sim)
        ch.put("x")
        g = ch.get()
        with pytest.raises(SimulationError):
            ch.cancel_get(g)

    def test_cancel_unknown_get_rejected(self):
        sim = Simulator()
        ch = Channel(sim)
        other = Channel(sim)
        g = other.get()
        with pytest.raises(SimulationError):
            ch.cancel_get(g)

    def test_cancel_getter_woken_elsewhere_is_quiet(self):
        """A getter triggered through another registration (see
        repro.sim.park) is still registered here; withdrawing it is
        not an error, and it no longer takes the next item."""
        sim = Simulator()
        ch = Channel(sim)
        g = ch.get()
        g.succeed(None)  # e.g. its wait set fired
        ch.cancel_get(g)
        ch.put("item")
        assert g.value is None and ch.try_get() == (True, "item")


class TestDeliveryFilter:
    def _fabric(self):
        sim = Simulator()
        switch = Switch(sim, 2, SP_1998, RngRegistry(seed=1))
        ads = []
        for i in range(2):
            ad = Adapter(sim, i, SP_1998)
            ad.connect(switch)
            ads.append(ad)
        return sim, switch, ads

    def _pkt(self, kind):
        return Packet(src=0, dst=1, proto="lapi", kind=kind,
                      header_bytes=16, payload=b"")

    def test_filter_consumes_matching_packets(self):
        sim, switch, (a0, a1) = self._fabric()
        client = a1.attach_client("lapi")
        eaten = []
        client.delivery_filter = \
            lambda p: (eaten.append(p) or True) if p.kind == "ack" \
            else False
        switch.route(self._pkt("ack"))
        switch.route(self._pkt("data"))
        sim.run()
        assert len(eaten) == 1
        assert client.pending == 1  # only the data packet queued
        ok, got = client.rx.try_get()
        assert got.kind == "data"

    def test_filtered_packets_raise_no_interrupt(self):
        sim, switch, (a0, a1) = self._fabric()
        client = a1.attach_client("lapi")
        client.delivery_filter = lambda p: p.kind == "ack"
        fired = []
        client.on_arrival = lambda: fired.append(sim.now)
        switch.route(self._pkt("ack"))
        sim.run()
        assert fired == []
        switch.route(self._pkt("data"))
        sim.run()
        assert len(fired) == 1


class TestInterruptCoalescing:
    def test_bulk_stream_single_interrupt(self):
        """Packets spaced well inside the linger window are serviced by
        one interrupt; the big put below generates a ~40-packet stream
        but only a couple of interrupts at the target."""
        from repro.machine import Cluster

        def main(task):
            lapi = task.lapi
            n = 40 * SP_1998.lapi_payload
            buf = task.memory.malloc(n)
            tgt = lapi.counter()
            yield from lapi.gfence()
            if task.rank == 0:
                src = task.memory.malloc(n)
                yield from lapi.put(1, n, buf, src, tgt_cntr=tgt.id)
                yield from lapi.fence()
            else:
                yield from lapi.waitcntr(tgt, 1)
            yield from lapi.gfence()
            return lapi.stats.interrupts_taken

        cluster = Cluster(nnodes=2)
        results = cluster.run_job(main, stacks=("lapi",),
                                  interrupt_mode=True)
        # Target serviced ~40 packets; interrupts must be far fewer.
        assert results[1] <= 6, results

    def test_spaced_messages_separate_interrupts(self):
        """Messages separated by much more than the linger window each
        pay their own interrupt."""
        from repro.machine import Cluster

        count = 4

        def main(task):
            lapi = task.lapi
            buf = task.memory.malloc(64)
            tgt = lapi.counter()
            yield from lapi.gfence()
            if task.rank == 0:
                src = task.memory.malloc(64)
                for _ in range(count):
                    yield from lapi.put(1, 64, buf, src,
                                        tgt_cntr=tgt.id)
                    yield from lapi.fence()
                    yield from task.thread.sleep(500.0)
            else:
                yield from lapi.waitcntr(tgt, count)
            yield from lapi.gfence()
            return lapi.stats.interrupts_taken

        cluster = Cluster(nnodes=2)
        results = cluster.run_job(main, stacks=("lapi",),
                                  interrupt_mode=True)
        assert results[1] >= count, results
