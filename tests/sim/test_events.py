"""Unit tests for repro.sim.events."""

import pytest

from repro.errors import SimulationError
from repro.sim import AllOf, Event, Simulator, Timeout


@pytest.fixture
def sim():
    return Simulator()


class TestEvent:
    def test_fresh_event_is_untriggered(self, sim):
        ev = sim.event("e")
        assert not ev.triggered
        assert not ev.processed

    def test_value_before_trigger_raises(self, sim):
        ev = sim.event()
        with pytest.raises(SimulationError):
            _ = ev.value
        with pytest.raises(SimulationError):
            _ = ev.ok

    def test_succeed_carries_value(self, sim):
        ev = sim.event()
        ev.succeed(42)
        assert ev.triggered
        assert ev.ok
        assert ev.value == 42

    def test_succeed_twice_raises(self, sim):
        ev = sim.event()
        ev.succeed()
        with pytest.raises(SimulationError):
            ev.succeed()

    def test_fail_then_succeed_raises(self, sim):
        ev = sim.event()
        ev.fail(ValueError("boom"))
        with pytest.raises(SimulationError):
            ev.succeed()

    def test_fail_requires_exception(self, sim):
        ev = sim.event()
        with pytest.raises(TypeError):
            ev.fail("not an exception")

    def test_callbacks_run_on_processing(self, sim):
        ev = sim.event()
        seen = []
        ev.callbacks.append(lambda e: seen.append(e.value))
        ev.succeed("x")
        assert seen == []  # not yet processed
        sim.run()
        assert seen == ["x"]
        assert ev.processed

    def test_failed_event_with_no_listener_raises_in_run(self, sim):
        ev = sim.event()
        ev.fail(RuntimeError("lost"))
        with pytest.raises(RuntimeError, match="lost"):
            sim.run()


class TestTimeout:
    def test_timeout_advances_clock(self, sim):
        sim.timeout(5.0)
        assert sim.run() == 5.0

    def test_timeout_value(self, sim):
        t = sim.timeout(1.0, value="done")
        sim.run()
        assert t.value == "done"

    def test_negative_delay_rejected(self, sim):
        with pytest.raises(SimulationError):
            sim.timeout(-1.0)

    def test_zero_delay_fires_at_now(self, sim):
        t = sim.timeout(0.0)
        sim.run()
        assert t.processed
        assert sim.now == 0.0

    def test_timeouts_fire_in_order(self, sim):
        order = []
        for d in (3.0, 1.0, 2.0):
            sim.timeout(d).callbacks.append(
                lambda e, d=d: order.append(d))
        sim.run()
        assert order == [1.0, 2.0, 3.0]

    def test_equal_times_fifo(self, sim):
        order = []
        for i in range(5):
            sim.timeout(1.0).callbacks.append(
                lambda e, i=i: order.append(i))
        sim.run()
        assert order == [0, 1, 2, 3, 4]


class TestConditions:
    def test_allof_waits_for_all(self, sim):
        a = sim.timeout(1.0, value="a")
        b = sim.timeout(2.0, value="b")
        cond = AllOf(sim, [a, b])
        fired_at = []
        cond.callbacks.append(lambda e: fired_at.append(sim.now))
        sim.run()
        assert fired_at == [2.0]
        assert cond.value == {a: "a", b: "b"}

    def test_empty_allof_is_trivially_true(self, sim):
        cond = AllOf(sim, [])
        sim.run()
        assert cond.triggered
        assert cond.value == {}

    def test_condition_over_already_triggered(self, sim):
        a = sim.event()
        a.succeed(7)
        cond = AllOf(sim, [a])
        sim.run()
        assert cond.triggered
        assert cond.value[a] == 7

    def test_first_failure_fails_the_condition(self, sim):
        a = sim.timeout(1.0)
        b = sim.event()
        cond = AllOf(sim, [a, b])
        b.fail(ValueError("boom"))
        seen = []
        cond.callbacks.append(lambda e: seen.append(e.value))
        sim.run()
        assert not cond.ok
        assert isinstance(seen[0], ValueError)

    def test_cross_simulator_mix_rejected(self, sim):
        other = Simulator()
        a = sim.event()
        b = other.event()
        with pytest.raises(SimulationError):
            AllOf(sim, [a, b])

    def test_condition_value_mapping_protocol(self, sim):
        a = sim.timeout(0.0, value=1)
        b = sim.timeout(0.0, value=2)
        cond = AllOf(sim, [b, a])
        sim.run()
        val = cond.value
        assert len(val) == 2
        assert list(val) == [b, a]  # the order the events were given
        assert a in val and b in val
        with pytest.raises(KeyError):
            _ = val[sim.event()]
