"""The adapter TX engine: one kernel event per packet, crash and restart."""

from repro.machine import Adapter, Packet, Switch
from repro.machine.config import SP_1998
from repro.sim import RngRegistry, Simulator


def fabric(config=SP_1998):
    sim = Simulator()
    switch = Switch(sim, 2, config, RngRegistry(seed=1))
    adapters = []
    for i in range(2):
        ad = Adapter(sim, i, config)
        ad.connect(switch)
        adapters.append(ad)
    client = adapters[1].attach_client("lapi")
    return sim, adapters[0], client


def packet(payload=b"x" * 4, **info):
    return Packet(src=0, dst=1, proto="lapi", kind="data",
                  header_bytes=48, payload=payload, info=info)


def serialization(pkt, cfg=SP_1998):
    """The float an idle engine completes ``pkt`` at, started at 0."""
    return (0.0 + cfg.adapter_send_dma) + (pkt.size / cfg.link_bandwidth
                                           + cfg.packet_gap)


def train(n):
    """``n`` contiguous full packets of one message (a peelable train)."""
    size = SP_1998.lapi_payload
    return [packet(payload=bytes(size), msg_id=7, offset=i * size)
            for i in range(n)]


class TestTxEngine:
    def test_one_kernel_event_per_packet(self):
        sim, a0, client = fabric()
        pkt = packet()
        a0.inject_control(pkt)
        assert a0._tx_busy and sim._pending() == 1
        sim.step()  # the TX-done callback, nothing before it
        assert sim.now == serialization(pkt)
        assert a0.packets_sent == 1 and not a0._tx_busy
        sim.run()
        assert client.pending == 1

    def test_fifo_order_and_back_to_back_timing(self):
        sim, a0, client = fabric()
        pkts = [packet(payload=bytes(n)) for n in (4, 900, 32)]
        for p in pkts:
            a0.inject_control(p)
        assert len(a0._tx_queue) == 2  # the first is on the engine
        sim.run()
        assert [p.uid for p in client.rx.drain()] == [p.uid for p in pkts]
        assert a0.packets_sent == 3 and not a0._tx_busy

    def test_crash_while_a_packet_is_serializing(self):
        sim, a0, client = fabric()
        credits = a0._tx_credits.value
        assert a0.inject_async(packet())
        assert a0.inject_async(packet())
        a0.crash()  # one on the DMA engine, one queued
        assert a0.tx_crash_dropped == 1 and not a0._tx_queue
        sim.run()
        # The in-flight packet is dropped at its completion instant.
        assert a0.tx_crash_dropped == 2
        assert a0.packets_sent == 0 and client.pending == 0
        assert not a0._tx_busy
        assert a0._tx_credits.value == credits

    def test_crash_with_a_queued_train(self):
        sim, a0, client = fabric()
        credits = a0._tx_credits.value
        for p in train(6):
            assert a0.inject_async(p)
        a0.crash()  # head on the engine, the rest of the train queued
        assert a0.tx_crash_dropped == 5 and not a0._tx_queue
        sim.run()
        assert a0.tx_crash_dropped == 6 and a0.trains_collapsed == 0
        assert a0.packets_sent == 0 and client.pending == 0
        assert not a0._tx_busy
        assert a0._tx_credits.value == credits

    def test_crash_after_the_train_was_peeled(self):
        """Each peeled interior completion checks the crash like any
        packet (in a job a fault schedule, the only source of crashes,
        keeps trains from peeling at all)."""
        sim, a0, client = fabric()
        credits = a0._tx_credits.value
        for p in train(6):
            assert a0.inject_async(p)
        # The head completes, peels the interior (packets 1-4) into
        # scheduled callbacks and leaves the tail queued.
        sim.step()
        assert a0.trains_collapsed == 1 and a0.train_packets == 4
        assert a0.packets_sent == 1 and len(a0._tx_queue) == 1
        a0.crash()
        sim.run()
        # Tail dropped from the queue, interior dropped as each
        # completion fires; nothing more reached the wire, and the
        # engine went idle at the end of the interior.
        assert a0.packets_sent == 1 and a0.tx_crash_dropped == 5
        assert not a0._tx_busy and not a0._tx_queue
        assert a0._tx_credits.value == credits

    def test_restart_then_control_traffic_flows_again(self):
        sim, a0, client = fabric()
        credits = a0._tx_credits.value
        assert a0.inject_async(packet())
        a0.crash()
        a0.inject_control(packet())  # dead nodes do not acknowledge
        assert a0.tx_crash_dropped == 1
        sim.run()
        assert a0.tx_crash_dropped == 2 and a0.packets_sent == 0
        a0.restart()
        first, second = packet(), packet()
        a0.inject_control(first)
        assert a0.inject_async(second)
        sim.run()
        assert [p.uid for p in client.rx.drain()] == [first.uid,
                                                      second.uid]
        assert a0.packets_sent == 2 and not a0._tx_busy
        assert a0._tx_credits.value == credits

    def test_restart_before_the_inflight_packet_completes(self):
        """A crash/restart shorter than one serialization: the packet
        on the engine completes on a live node and is sent."""
        sim, a0, client = fabric()
        a0.inject_control(packet())
        a0.crash()
        a0.restart()
        a0.inject_control(packet())
        sim.run()
        assert a0.packets_sent == 2 and a0.tx_crash_dropped == 0
        assert client.pending == 2
