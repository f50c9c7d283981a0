"""Unit tests for repro.sim.channel."""

import pytest

from repro.errors import SimulationError
from repro.sim import Channel, Simulator


@pytest.fixture
def sim():
    return Simulator()


class TestChannelBasics:
    def test_put_then_get(self, sim):
        ch = Channel(sim)
        ch.put("a")
        ev = ch.get()
        assert ev.triggered
        assert ev.value == "a"

    def test_get_blocks_until_put(self, sim):
        ch = Channel(sim)
        ev = ch.get()
        assert not ev.triggered
        ch.put("late")
        assert ev.triggered
        assert ev.value == "late"

    def test_fifo_order(self, sim):
        ch = Channel(sim)
        for i in range(5):
            ch.put(i)
        got = [ch.get().value for _ in range(5)]
        assert got == [0, 1, 2, 3, 4]

    def test_multiple_getters_fifo(self, sim):
        ch = Channel(sim)
        g1, g2 = ch.get(), ch.get()
        ch.put("x")
        ch.put("y")
        assert (g1.value, g2.value) == ("x", "y")

    def test_try_get(self, sim):
        ch = Channel(sim)
        ok, item = ch.try_get()
        assert not ok and item is None
        ch.put(1)
        ok, item = ch.try_get()
        assert ok and item == 1

    def test_peek_and_len(self, sim):
        ch = Channel(sim)
        with pytest.raises(SimulationError):
            ch.peek()
        ch.put("head")
        ch.put("tail")
        assert ch.peek() == "head"
        assert len(ch) == 2

    def test_drain(self, sim):
        ch = Channel(sim)
        for i in range(3):
            ch.put(i)
        assert ch.drain() == [0, 1, 2]
        assert ch.empty


class TestBoundedChannel:
    def test_capacity_validation(self, sim):
        with pytest.raises(SimulationError):
            Channel(sim, capacity=0)

    def test_overflow_drops_when_configured(self, sim):
        ch = Channel(sim, capacity=2)
        assert ch.put(1)
        assert ch.put(2)
        assert ch.full
        assert not ch.put(3)  # dropped: the caller counts it
        assert ch.drain() == [1, 2]

    def test_waiting_getter_bypasses_capacity(self, sim):
        ch = Channel(sim, capacity=1)
        ch.put("fill")
        g = None
        # Consume then wait: the direct hand-off path must not count
        # against capacity.
        assert ch.get().value == "fill"
        g = ch.get()
        ch.put("direct")
        assert g.value == "direct"


class TestChannelWithProcesses:
    def test_producer_consumer(self, sim):
        ch = Channel(sim, "pc")
        received = []

        def producer():
            for i in range(4):
                yield sim.timeout(1.0)
                ch.put(i)

        def consumer():
            for _ in range(4):
                item = yield ch.get()
                received.append((sim.now, item))

        sim.process(producer())
        cons = sim.process(consumer())
        sim.run_until_complete(cons)
        assert received == [(1.0, 0), (2.0, 1), (3.0, 2), (4.0, 3)]
