"""Unit tests for repro.sim.process and kernel/process interaction."""

import pytest

from repro.errors import DeadlockError, SimulationError
from repro.sim import Simulator
from repro.sim.events import WakeAt


@pytest.fixture
def sim():
    return Simulator()


class TestBasicProcesses:
    def test_process_returns_value(self, sim):
        def body():
            yield sim.timeout(1.0)
            return 99

        proc = sim.process(body())
        assert sim.run_until_complete(proc) == 99
        assert sim.now == 1.0

    def test_process_without_yield_rejected(self, sim):
        def not_a_gen():
            return 1

        with pytest.raises(SimulationError, match="generator"):
            sim.process(not_a_gen())

    def test_yield_non_event_rejected(self, sim):
        def body():
            yield "42us"

        proc = sim.process(body())
        with pytest.raises(SimulationError, match="yield Event"):
            sim.run_until_complete(proc)

    def test_yield_bare_number_sleeps(self, sim):
        # Bare int/float yields are the kernel's allocation-free sleep:
        # equivalent to ``yield sim.timeout(d)``.
        def body():
            yield 42
            yield 0.5
            return sim.now

        proc = sim.process(body())
        assert sim.run_until_complete(proc) == 42.5
        assert sim.now == 42.5

    def test_yield_foreign_event_rejected(self, sim):
        other = Simulator()

        def body():
            yield other.event()

        proc = sim.process(body())
        with pytest.raises(SimulationError, match="different simulator"):
            sim.run_until_complete(proc)

    def test_process_waits_for_manual_event(self, sim):
        ev = sim.event()

        def waiter():
            val = yield ev
            return val

        def firer():
            yield sim.timeout(3.0)
            ev.succeed("ping")

        w = sim.process(waiter())
        sim.process(firer())
        assert sim.run_until_complete(w) == "ping"
        assert sim.now == 3.0

    def test_process_is_waitable_event(self, sim):
        def inner():
            yield sim.timeout(2.0)
            return "inner-done"

        def outer():
            val = yield sim.process(inner())
            return val + "!"

        proc = sim.process(outer())
        assert sim.run_until_complete(proc) == "inner-done!"

    def test_yield_from_composition(self, sim):
        def sub(n):
            yield sim.timeout(n)
            return n * 2

        def main():
            a = yield from sub(1.0)
            b = yield from sub(2.0)
            return a + b

        proc = sim.process(main())
        assert sim.run_until_complete(proc) == 6.0
        assert sim.now == 3.0

    def test_already_processed_event_resumes_immediately(self, sim):
        ev = sim.event()
        ev.succeed("early")

        def body():
            yield sim.timeout(1.0)  # let ev get processed first
            val = yield ev
            return val

        proc = sim.process(body())
        assert sim.run_until_complete(proc) == "early"


class TestInPlaceCompletion:
    def test_unwatched_process_completes_without_an_event(self, sim):
        def body():
            yield sim.timeout(1.0)
            return 7

        p = sim.process(body())
        sim.run()
        assert p.processed and p.ok and p.value == 7
        assert sim.events_processed == 2  # boot + timeout, no completion

    def test_late_waiter_continues_inline(self, sim):
        def child():
            yield sim.timeout(1.0)
            return "done"

        c = sim.process(child())

        def parent():
            yield sim.timeout(5.0)
            return (yield c)

        assert sim.run_until_complete(sim.process(parent())) == "done"

    def test_watched_process_still_notifies(self, sim):
        def body():
            yield sim.timeout(1.0)
            return 3

        p = sim.process(body())
        seen = []
        p.callbacks.append(lambda ev: seen.append(ev.value))
        sim.run()
        assert seen == [3]

    def test_unwatched_failure_still_surfaces(self, sim):
        def body():
            yield sim.timeout(1.0)
            raise ValueError("boom")

        sim.process(body())
        with pytest.raises(ValueError):
            sim.run()


class TestFailures:
    def test_exception_in_process_propagates(self, sim):
        def body():
            yield sim.timeout(1.0)
            raise ValueError("inside")

        proc = sim.process(body())
        with pytest.raises(ValueError, match="inside"):
            sim.run_until_complete(proc)

    def test_unwatched_crashing_process_crashes_run(self, sim):
        def body():
            yield sim.timeout(1.0)
            raise ValueError("unwatched")

        sim.process(body())
        with pytest.raises(ValueError, match="unwatched"):
            sim.run()

    def test_failed_event_thrown_into_waiter(self, sim):
        ev = sim.event()

        def waiter():
            try:
                yield ev
            except RuntimeError as exc:
                return f"caught {exc}"

        def firer():
            yield sim.timeout(1.0)
            ev.fail(RuntimeError("bad"))

        w = sim.process(waiter())
        sim.process(firer())
        assert sim.run_until_complete(w) == "caught bad"

    def test_watched_process_failure_delivered_to_watcher(self, sim):
        def crasher():
            yield sim.timeout(1.0)
            raise KeyError("k")

        def watcher():
            try:
                yield sim.process(crasher())
            except KeyError:
                return "observed"

        w = sim.process(watcher())
        assert sim.run_until_complete(w) == "observed"


class TestKernel:
    def test_run_until_time(self, sim):
        sim.timeout(10.0)
        assert sim.run(until=4.0) == 4.0
        assert sim.now == 4.0

    def test_run_empty_queue_extends_clock_to_until(self, sim):
        assert sim.run(until=7.5) == 7.5

    def test_run_until_in_the_past_rejected(self, sim):
        # The clock never runs backwards: not with events pending, and
        # so never letting call_at schedule into the past afterwards.
        fired = []
        sim.call_at(50.0, fired.append, 50.0)
        sim.call_at(60.0, fired.append, 60.0)
        assert sim.run(until=55.0) == 55.0
        with pytest.raises(SimulationError, match="before now"):
            sim.run(until=10.0)
        assert sim.now == 55.0 and fired == [50.0]
        with pytest.raises(SimulationError):
            sim.call_at(20.0, fired.append, 20.0)
        assert sim.run() == 60.0 and fired == [50.0, 60.0]
        with pytest.raises(SimulationError, match="before now"):
            sim.run(until=59.0)  # an empty queue rewinds nothing either

    def test_step_on_empty_queue_raises(self, sim):
        with pytest.raises(SimulationError):
            sim.step()

    def test_max_events_guard(self, sim):
        def forever():
            while True:
                yield sim.timeout(1.0)

        sim.process(forever())
        with pytest.raises(SimulationError, match="max_events"):
            sim.run(max_events=50)

    def test_deadlock_detection(self, sim):
        def stuck():
            yield sim.event()  # nobody will ever fire this

        proc = sim.process(stuck())
        with pytest.raises(DeadlockError, match="stuck"):
            sim.run_until_complete(proc)

    def test_peek(self, sim):
        assert sim.peek() == float("inf")
        sim.timeout(3.0)
        sim.run(until=0.0)  # process the boot-less timeout scheduling
        assert sim.peek() == 3.0

    def test_events_processed_counter(self, sim):
        sim.timeout(1.0)
        sim.timeout(2.0)
        sim.run()
        assert sim.events_processed == 2

    def test_active_process_visible_inside_body(self, sim):
        seen = []

        def body():
            seen.append(sim.active_process)
            yield sim.timeout(0.0)
            seen.append(sim.active_process)

        proc = sim.process(body())
        sim.run()
        assert seen == [proc, proc]
        assert sim.active_process is None

    def test_schedule_in_past_rejected(self, sim):
        sim.timeout(5.0)
        sim.run()
        with pytest.raises(SimulationError):
            sim._schedule_at(1.0, sim.event())


NAN = float("nan")


class TestNanTime:
    """A NaN instant compares false both ways, so a ``when < now`` guard
    would pass it, and a NaN clock makes every later guard vacuous."""

    def test_call_at_nan_rejected(self, sim):
        fired = []
        with pytest.raises(SimulationError, match="nan"):
            sim.call_at(NAN, fired.append, "nan")
        for t in (5.0, 1.0, 3.0, 2.0, 4.0):
            sim.call_at(t, fired.append, t)
        sim.run()
        assert fired == [1.0, 2.0, 3.0, 4.0, 5.0]

    def test_timeout_nan_rejected(self, sim):
        with pytest.raises(SimulationError, match="nan"):
            sim.timeout(NAN)
        assert sim.peek() == float("inf")

    def test_timeout_at_nan_rejected(self, sim):
        def body():
            yield WakeAt(NAN)

        proc = sim.process(body())
        with pytest.raises(SimulationError, match="nan"):
            sim.run_until_complete(proc)
        # No NaN entry reached the queue: all that is left is the
        # process's own failure, queued at the instant it failed.
        assert sim.now == 0.0 and sim.peek() == 0.0

    def test_float_yield_nan_fails_the_process(self, sim):
        def body():
            yield 1.0
            yield NAN

        proc = sim.process(body())
        with pytest.raises(SimulationError, match="nan"):
            sim.run_until_complete(proc)
        assert sim.now == 1.0

    def test_wake_at_nan_fails_the_process(self, sim):
        def body():
            yield 1.0
            yield WakeAt(NAN)

        proc = sim.process(body())
        with pytest.raises(SimulationError, match="nan"):
            sim.run_until_complete(proc)
        assert sim.now == 1.0

    def test_run_until_nan_rejected(self, sim):
        sim.call_at(2.0, lambda _: None)
        with pytest.raises(SimulationError, match="nan"):
            sim.run(until=NAN)
        assert sim.now == 0.0 and sim.peek() == 2.0
