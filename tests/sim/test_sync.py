"""Unit tests for repro.sim.sync primitives."""

import pytest

from repro.errors import SimulationError
from repro.sim import Semaphore, SimLock, Simulator, WaitSet


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
