"""Unit tests for repro.sim.sync primitives."""

import gc
import weakref

import pytest

from repro.errors import SimulationError
from repro.sim import Channel, Semaphore, SimLock, Simulator, WaitSet, park


@pytest.fixture
def sim():
    return Simulator()


class TestSimLock:
    def test_uncontended_acquire_is_immediate(self, sim):
        lock = SimLock(sim)
        ev = lock.acquire(owner="a")
        assert ev.triggered
        assert lock.locked
        assert lock.owner == "a"

    def test_release_hands_to_waiter(self, sim):
        lock = SimLock(sim)
        lock.acquire(owner="a")
        ev_b = lock.acquire(owner="b")
        assert not ev_b.triggered
        lock.release()
        assert ev_b.triggered
        assert lock.owner == "b"

    def test_release_unlocked_raises(self, sim):
        lock = SimLock(sim)
        with pytest.raises(SimulationError):
            lock.release()

    def test_priority_order(self, sim):
        lock = SimLock(sim)
        lock.acquire(owner="holder")
        low = lock.acquire(owner="low", priority=10)
        high = lock.acquire(owner="high", priority=0)
        lock.release()
        assert high.triggered and not low.triggered
        assert lock.owner == "high"
        lock.release()
        assert low.triggered
        assert lock.owner == "low"

    def test_fifo_within_priority(self, sim):
        lock = SimLock(sim)
        lock.acquire(owner=0)
        waits = [lock.acquire(owner=i) for i in (1, 2, 3)]
        for expect in (1, 2, 3):
            lock.release()
            assert lock.owner == expect
        assert all(w.triggered for w in waits)

    def test_full_release_frees(self, sim):
        lock = SimLock(sim)
        lock.acquire()
        lock.release()
        assert not lock.locked
        assert lock.owner is None

    def test_try_acquire_free_lock(self, sim):
        lock = SimLock(sim)
        assert lock.try_acquire("a")
        assert lock.locked and lock.owner == "a"
        assert sim.peek() == float("inf")  # nothing queued

    def test_try_acquire_held_lock_queues_nothing(self, sim):
        lock = SimLock(sim)
        lock.acquire(owner="a")
        assert not lock.try_acquire("b")
        assert lock.owner == "a" and not lock._waiters
        lock.release()
        assert not lock.locked  # "b" never became a waiter

    def test_release_hands_to_waiter_not_to_try_acquire(self, sim):
        lock = SimLock(sim)
        assert lock.try_acquire("a")
        ev_b = lock.acquire(owner="b")
        lock.release()
        # The head waiter owns the lock from the release on, even before
        # its wakeup is processed: a third party cannot slip in.
        assert not lock.try_acquire("c")
        assert lock.owner == "b" and ev_b.triggered
        sim.run()
        assert lock.owner == "b"

    def test_try_acquire_leaves_priority_order(self, sim):
        lock = SimLock(sim)
        assert lock.try_acquire("holder")
        low = lock.acquire(owner="low", priority=10)
        high = lock.acquire(owner="high", priority=0)
        assert not lock.try_acquire("other")
        lock.release()
        assert lock.owner == "high" and high.triggered
        assert not low.triggered
        lock.release()
        assert lock.owner == "low" and low.triggered

    def test_lock_with_processes(self, sim):
        lock = SimLock(sim, "m")
        log = []

        def worker(name, hold):
            yield lock.acquire(owner=name)
            log.append((sim.now, name, "got"))
            yield sim.timeout(hold)
            lock.release()

        sim.process(worker("a", 5.0))
        sim.process(worker("b", 5.0))
        sim.run()
        assert log == [(0.0, "a", "got"), (5.0, "b", "got")]


class TestSemaphore:
    def test_initial_value(self, sim):
        sem = Semaphore(sim, value=2)
        assert sem.value == 2
        assert sem.wait().triggered
        assert sem.wait().triggered
        assert not sem.wait().triggered

    def test_negative_initial_rejected(self, sim):
        with pytest.raises(SimulationError):
            Semaphore(sim, value=-1)

    def test_post_wakes_fifo(self, sim):
        sem = Semaphore(sim)
        w1, w2 = sem.wait(), sem.wait()
        sem.post()
        assert w1.triggered and not w2.triggered
        sem.post()
        assert w2.triggered

    def test_post_count(self, sim):
        sem = Semaphore(sim)
        waits = [sem.wait() for _ in range(3)]
        sem.post(count=2)
        assert [w.triggered for w in waits] == [True, True, False]
        assert sem.value == 0

    def test_post_surplus_accumulates(self, sim):
        sem = Semaphore(sim)
        sem.post(count=3)
        assert sem.value == 3

    def test_bad_post_count(self, sim):
        sem = Semaphore(sim)
        with pytest.raises(SimulationError):
            sem.post(count=0)

    def test_try_wait(self, sim):
        sem = Semaphore(sim, value=1)
        assert sem.try_wait()
        assert not sem.try_wait()


class TestWaitSet:
    def test_notify_all_wakes_everyone(self, sim):
        ws = WaitSet(sim)
        waits = [ws.wait() for _ in range(4)]
        assert len(ws) == 4
        woken = ws.notify_all("v")
        assert woken == 4
        assert all(w.triggered and w.value == "v" for w in waits)
        assert len(ws) == 0

    def test_notify_with_no_waiters(self, sim):
        ws = WaitSet(sim)
        assert ws.notify_all() == 0

    def test_waits_after_notify_need_new_notify(self, sim):
        ws = WaitSet(sim)
        ws.notify_all()
        w = ws.wait()
        assert not w.triggered
        ws.notify_all()
        assert w.triggered


class _Flag:
    """A gate predicate whose truth the test sets."""

    def __init__(self, value=False):
        self.value = value
        self.calls = 0

    def __call__(self):
        self.calls += 1
        return self.value


def _listen(ev, log, tag):
    """Stand in for the process that yields ``ev``."""
    ev.callbacks.append(lambda _ev: log.append(tag))
    return ev


class TestGatedWaitSet:
    def test_false_gate_keeps_registration_and_queues_nothing(self, sim):
        ws, gate, log = WaitSet(sim), _Flag(), []
        ev = _listen(ws.wait(gate), log, "g")
        assert ws.notify_all() == 0
        assert gate.calls == 1
        assert not ev.triggered
        assert len(ws) == 1
        assert sim._pending() == 0
        sim.run()
        assert log == [] and sim.events_processed == 0

    def test_true_gate_wakes_exactly_once(self, sim):
        ws, gate, log = WaitSet(sim), _Flag(), []
        ev = _listen(ws.wait(gate), log, "g")
        ws.notify_all()
        gate.value = True
        assert ws.notify_all("v") == 1
        assert ev.triggered and ev.value == "v"
        assert len(ws) == 0
        assert ws.notify_all() == 0
        assert gate.calls == 2
        sim.run()
        assert log == ["g"] and sim.events_processed == 1

    def test_discard_drops_the_predicate(self, sim):
        ws, gate = WaitSet(sim), _Flag()
        ref = weakref.ref(gate)
        ev = _listen(ws.wait(gate), [], "g")
        del gate
        ws.discard(ev)
        gc.collect()
        assert ref() is None
        assert len(ws) == 0

    def test_ungated_park_wakes_on_every_notify(self, sim):
        ws, gate, log = WaitSet(sim), _Flag(), []
        gated = _listen(ws.wait(gate), log, "g")
        for _ in range(3):
            parked = park(Channel(sim), ws)
            assert ws.notify_all() == 1
            assert parked.triggered and not gated.triggered
        assert len(ws) == 1
        assert gate.calls == 3

    def test_kept_waiters_keep_their_order(self, sim):
        ws, log = WaitSet(sim), []
        first, second = _Flag(), _Flag()
        _listen(ws.wait(first), log, "first")
        _listen(ws.wait(), log, "plain")
        _listen(ws.wait(second), log, "second")
        assert ws.notify_all() == 1
        _listen(ws.wait(), log, "late")
        first.value = second.value = True
        assert ws.notify_all() == 3
        sim.run()
        assert log == ["plain", "first", "second", "late"]

    @pytest.mark.parametrize("holds", [False, True])
    def test_killed_waiter_is_dropped_without_a_wake(self, sim, holds):
        """A node crash kills the process blocked on a gated wait: the
        registration is dropped, its predicate with it, and no event
        is queued for it."""
        ws, gate = WaitSet(sim), _Flag(holds)
        ref = weakref.ref(gate)

        def sleeper():
            yield ws.wait(gate)

        proc = sim.process(sleeper())
        sim.run()
        del gate
        proc.kill()
        queued = sim._pending()  # the killed process's own completion
        assert ws.notify_all() == 0
        assert len(ws) == 0
        assert sim._pending() == queued
        gc.collect()
        assert ref() is None
