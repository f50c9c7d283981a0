"""LAPI completion counters: the counter itself, and ``LAPI_Waitcntr``
on a 2-node cluster in both progress modes."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.counters import LapiCounter
from repro.errors import LapiError
from repro.machine.config import SP_1998

from .conftest import run_spmd


def mk(cid=0):
    return LapiCounter(cid)


def both_modes(main):
    """Rank 0's result of ``main`` in interrupt mode, then in polling
    mode."""
    return [run_spmd(main, interrupt_mode=mode)[0] for mode in (True, False)]


def put_target(task):
    """The 64-byte buffer :func:`send_puts` writes and the counter it
    fills, created the same way on both ranks."""
    return task.memory.malloc(64), task.lapi.counter()


def send_puts(task, counts, gap=100.0):
    """Rank 1's side: for each entry of ``counts``, that many 64-byte
    puts on rank 0's :func:`put_target`, then ``gap`` us of quiet."""
    lapi = task.lapi
    buf, cntr = put_target(task)
    for n in counts:
        for _ in range(n):
            yield from lapi.put(0, 64, buf, buf, tgt_cntr=cntr.id)
        yield from task.thread.sleep(gap)
    yield from lapi.fence()


class TestBasics:
    def test_initial_value_zero(self):
        assert mk().value == 0

    def test_add(self):
        c = mk()
        c.add()
        c.add(3)
        assert c.value == 4
        assert c.total == 4

    def test_add_nonpositive_rejected(self):
        c = mk()
        with pytest.raises(LapiError):
            c.add(0)
        with pytest.raises(LapiError):
            c.add(-1)

    def test_set(self):
        c = mk()
        c.add(5)
        c.set(2)
        assert c.value == 2

    def test_set_negative_rejected(self):
        with pytest.raises(LapiError):
            mk().set(-1)


class TestWaitSemantics:
    def test_waitcntr_returns_and_decrements(self):
        def main(task):
            if task.rank == 1:
                yield from send_puts(task, [2, 1])
                return None
            _, c = put_target(task)
            yield from task.lapi.waitcntr(c, 2)
            # Returned on the second put, before the third was sent.
            return c.total, c.value

        assert both_modes(main) == [(2, 0), (2, 0)]

    def test_wait_already_satisfied(self):
        def main(task):
            if task.rank == 1:
                return None
            lapi = task.lapi
            c = lapi.counter()
            lapi.setcntr(c, 3)
            start = task.now()
            yield from lapi.waitcntr(c, 2)
            return task.now() - start, c.value

        call = SP_1998.lapi_call_overhead * 0.5
        assert both_modes(main) == [(pytest.approx(call), 1)] * 2

    def test_grouped_operations_one_counter(self):
        # Section 2.3: one counter across multiple messages, checked as
        # a group.
        def main(task):
            if task.rank == 1:
                yield from send_puts(task, [5])
                return None
            _, c = put_target(task)
            yield from task.lapi.waitcntr(c, 5)
            return c.total, c.value

        assert both_modes(main) == [(5, 0), (5, 0)]

    def test_threshold_validation(self):
        def main(task):
            lapi = task.lapi
            c = lapi.counter()
            lapi.setcntr(c, 1)
            for value in (0, -1):
                with pytest.raises(LapiError):
                    yield from lapi.waitcntr(c, value)
            return c.value

        assert both_modes(main) == [1, 1]
        with pytest.raises(LapiError):
            mk().try_consume(-1)

    def test_set_can_satisfy_waiter(self):
        def main(task):
            if task.rank == 1:
                return None
            lapi = task.lapi
            c = lapi.counter()

            def setter(thread):
                yield from thread.sleep(50.0)
                lapi.setcntr(c, 3)

            start = task.now()
            task.node.cpu.spawn(setter, name="setter")
            yield from lapi.waitcntr(c, 3)
            return task.now() - start >= 50.0, c.value

        assert both_modes(main) == [(True, 0), (True, 0)]

    def test_two_waiters_one_increment(self):
        """One increment releases exactly one of two waiters; the other
        returns on the next one, and the counter never goes negative."""
        def main(task):
            if task.rank == 1:
                yield from send_puts(task, [1, 1])
                return None
            lapi = task.lapi
            _, c = put_target(task)
            returns = []

            def waiter(thread):
                yield from lapi.waitcntr(c, 1)
                returns.append((c.total, c.value))

            task.node.cpu.spawn(waiter, name="waiter")
            yield from waiter(task.thread)
            while len(returns) < 2:
                yield from task.thread.sleep(10.0)
            return sorted(returns)

        assert both_modes(main) == [[(1, 0), (2, 0)]] * 2

    def test_fifo_waiters(self):
        """Waiters asking for the same value are served in the order
        they blocked: the progress wait set wakes in registration order.
        (Waiters asking for different values are not: each returns once
        the counter holds its own value.)"""
        def main(task):
            if task.rank == 1:
                yield from send_puts(task, [1, 1, 1])
                return None
            lapi = task.lapi
            _, c = put_target(task)
            served = []

            def waiter(i):
                def body(thread):
                    yield from thread.sleep(1.0 * i)
                    yield from lapi.waitcntr(c, 1)
                    served.append((i, c.total, c.value))
                return body

            for i in range(3):
                task.node.cpu.spawn(waiter(i), name=f"waiter{i}")
            while len(served) < 3:
                yield from task.thread.sleep(10.0)
            return served

        assert both_modes(main) == [[(0, 1, 0), (1, 2, 0), (2, 3, 0)]] * 2


class TestTryConsume:
    def test_try_consume(self):
        c = mk()
        assert not c.try_consume(1)
        c.add(2)
        assert c.try_consume(1)
        assert c.value == 1

    def test_try_consume_beside_a_blocked_waiter(self):
        """A non-blocking consume takes a value a blocked ``waitcntr``
        has not reached yet; the waiter returns once the counter holds
        its own value again."""
        def main(task):
            if task.rank == 1:
                yield from send_puts(task, [1, 2])
                return None
            lapi = task.lapi
            _, c = put_target(task)
            returns = []

            def waiter(thread):
                yield from lapi.waitcntr(c, 2)
                returns.append((c.total, c.value))

            task.node.cpu.spawn(waiter, name="waiter")
            while c.value < 1:
                yield from task.thread.sleep(5.0)
            took = c.try_consume(1)
            seen = list(returns)
            while not returns:
                yield from task.thread.sleep(10.0)
            return took, seen, returns

        assert both_modes(main) == [(True, [], [(3, 0)])] * 2

    def test_waiting_count(self):
        """Two ``waitcntr`` calls blocked on one counter are two
        registrations on the progress wait set."""
        def main(task):
            if task.rank == 1:
                yield from task.thread.sleep(50.0)
                yield from send_puts(task, [2])
                return None
            lapi = task.lapi
            _, c = put_target(task)
            ws = lapi.ctx.progress_ws
            before = len(ws)
            done = []

            def waiter(thread):
                yield from lapi.waitcntr(c, 1)
                done.append(thread)

            for i in range(2):
                task.node.cpu.spawn(waiter, name=f"waiter{i}")
            yield from task.thread.sleep(20.0)
            waiting = len(ws) - before
            while len(done) < 2:
                yield from task.thread.sleep(10.0)
            return waiting, c.value

        assert both_modes(main) == [(2, 0), (2, 0)]


class TestProperties:
    @given(st.lists(st.integers(min_value=1, max_value=10), min_size=1,
                    max_size=30))
    def test_value_conservation(self, increments):
        """Sum of increments == value + everything consumed by waits."""
        c = mk()
        consumed = 0
        for i, inc in enumerate(increments):
            c.add(inc)
            if i % 3 == 0 and c.value >= 2:
                assert c.try_consume(2)
                consumed += 2
        assert c.total == sum(increments)
        assert c.value == sum(increments) - consumed

    @settings(max_examples=15, deadline=None)
    @given(st.lists(st.integers(min_value=1, max_value=4), min_size=1,
                    max_size=4),
           st.lists(st.integers(min_value=1, max_value=4), min_size=1,
                    max_size=4))
    def test_all_waiters_eventually_served(self, thresholds, adds):
        """Enough increments serve every one of several concurrent
        waiters, whatever order they run in."""
        needed = sum(thresholds)

        def main(task):
            if task.rank == 1:
                yield from send_puts(task, adds + [needed], gap=20.0)
                yield from task.lapi.gfence()
                return None
            lapi = task.lapi
            _, c = put_target(task)
            done = lapi.counter()
            served = []

            def waiter(threshold):
                def body(thread):
                    yield from lapi.waitcntr(c, threshold)
                    served.append(threshold)
                    lapi.setcntr(done, done.value + 1)
                return body

            for i, threshold in enumerate(thresholds):
                task.node.cpu.spawn(waiter(threshold), name=f"waiter{i}")
            yield from lapi.waitcntr(done, len(thresholds))
            yield from lapi.gfence()
            return sorted(served), c.value

        assert both_modes(main) == [(sorted(thresholds), sum(adds))] * 2
