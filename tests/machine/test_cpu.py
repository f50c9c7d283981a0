"""Unit tests for the node CPU thread model."""

import math

import pytest

from repro.errors import MachineError
from repro.machine import HANDLER, INTERRUPT, NORMAL, Cpu
from repro.machine.config import SP_1998
from repro.machine.cpu import COMPUTE_QUANTUM
from repro.sim import Simulator


@pytest.fixture
def sim():
    return Simulator()


@pytest.fixture
def cpu(sim):
    return Cpu(sim, node_id=0, config=SP_1998)


class TestSingleThread:
    def test_execute_advances_time(self, sim, cpu):
        def body(thread):
            yield from thread.execute(5.0)
            return sim.now

        t = cpu.spawn(body)
        assert sim.run_until_complete(t.process) == 5.0
        assert t.cpu_time == 5.0

    def test_negative_cost_rejected(self, sim, cpu):
        def body(thread):
            yield from thread.execute(-1.0)

        t = cpu.spawn(body)
        with pytest.raises(MachineError):
            sim.run_until_complete(t.process)

    def test_nan_cost_rejected(self, sim, cpu):
        def body(thread):
            yield from thread.execute(1.0)
            yield from thread.execute(float("nan"))

        t = cpu.spawn(body)
        with pytest.raises(MachineError, match="NaN"):
            sim.run_until_complete(t.process)
        assert (t.cpu_time, sim.now) == (1.0, 1.0)

    def test_burst_costs_one_kernel_event_and_no_frame(self, sim, cpu):
        def body(thread):
            burst = thread.execute(5.0)
            assert burst == (5.0,)  # plain iterable, not a generator
            yield from burst
            assert thread.execute(0.0) == ()

        t = cpu.spawn(body)
        sim.run_until_complete(t.process)
        assert sim.events_processed == 2  # boot + the burst

    def test_chained_bursts_wake_once_at_the_partial_sum(self, sim, cpu):
        costs = (0.1, 0.2, 0.7, 0.0, 1.3)
        ends = []

        def separate(thread):
            for c in costs:
                yield from thread.execute(c)
                ends.append(sim.now)

        sim.run_until_complete(cpu.spawn(separate).process)
        start, before = sim.now, sim.events_processed

        def chained(thread):
            yield from thread.execute(*costs)
            return sim.now, thread.burst_ends, thread.cpu_time

        now, marks, cpu_time = sim.run_until_complete(
            cpu.spawn(chained).process)
        assert sim.events_processed - before == 2  # boot + one wake
        # The same left-to-right float sums separate bursts make.
        assert ends == [0.1, 0.1 + 0.2, (0.1 + 0.2) + 0.7,
                        (0.1 + 0.2) + 0.7, ((0.1 + 0.2) + 0.7) + 1.3]
        t = start
        expected = []
        for c in costs:
            t = t + c
            expected.append(t)
        assert marks == expected and now == expected[-1]
        assert cpu_time == ends[-1]

    def test_chained_bursts_stretch_under_cpu_faults(self, sim, cpu):
        from repro.faults.runtime import _CpuFaults

        def run(chain):
            s = Simulator()
            c = Cpu(s, node_id=0, config=SP_1998)
            c.faults = _CpuFaults([(2.0, 4.0, 0.0), (6.0, 8.0, 0.5)])

            def body(thread):
                if chain:
                    yield from thread.execute(1.5, 1.0, 3.0)
                    return thread.burst_ends
                ends = []
                for cost in (1.5, 1.0, 3.0):
                    yield from thread.execute(cost)
                    ends.append(s.now)
                return ends

            t = c.spawn(body)
            return (s.run_until_complete(t.process), s.now, t.cpu_time,
                    c.faults.stall_us)

        assert run(chain=True) == run(chain=False)

    def test_chained_negative_cost_rejected(self, sim, cpu):
        def body(thread):
            yield from thread.execute(1.0, -1.0)

        t = cpu.spawn(body)
        with pytest.raises(MachineError):
            sim.run_until_complete(t.process)

    def test_chained_nan_cost_rejected(self, sim, cpu):
        def body(thread):
            yield from thread.execute(1.0)
            yield from thread.execute(1.0, float("nan"))

        t = cpu.spawn(body)
        with pytest.raises(MachineError, match="NaN"):
            sim.run_until_complete(t.process)
        assert sim.now == 1.0 and not math.isnan(t.cpu_time)

    def test_sleep_releases_cpu(self, sim, cpu):
        order = []

        def sleeper(thread):
            order.append(("sleeper-start", sim.now))
            yield from thread.sleep(10.0)
            order.append(("sleeper-end", sim.now))

        def worker(thread):
            yield from thread.execute(3.0)
            order.append(("worker-done", sim.now))

        s = cpu.spawn(sleeper, name="sleeper")
        w = cpu.spawn(worker, name="worker")
        sim.run_until_complete(sim.all_of([s.process, w.process]))
        # Worker ran during the sleeper's sleep.
        assert ("worker-done", 3.0) in order
        assert ("sleeper-end", 10.0) in order

    def test_thread_returns_value(self, sim, cpu):
        def body(thread):
            yield from thread.execute(1.0)
            return "payload"

        t = cpu.spawn(body)
        assert sim.run_until_complete(t.process) == "payload"


class TestMutualExclusion:
    def test_only_one_thread_executes(self, sim, cpu):
        spans = []

        def body(thread):
            start = sim.now
            yield from thread.execute(4.0)
            spans.append((start, sim.now))

        threads = [cpu.spawn(body, name=f"t{i}") for i in range(3)]
        sim.run_until_complete(sim.all_of([t.process for t in threads]))
        spans.sort()
        assert spans == [(0.0, 4.0), (4.0, 8.0), (8.0, 12.0)]

    def test_priority_preferred_at_release(self, sim, cpu):
        order = []

        def normal(thread):
            yield from thread.execute(2.0)
            yield from thread.yield_cpu()
            order.append(("normal", sim.now))

        def interrupt(thread):
            yield from thread.execute(1.0)
            order.append(("interrupt", sim.now))

        n = cpu.spawn(normal, name="n", priority=NORMAL)

        def spawn_later():
            yield sim.timeout(0.5)
            # Arrives while "n" holds the CPU; must run at n's first
            # scheduling point, before n's tail.
            cpu.spawn(interrupt, name="irq", priority=INTERRUPT)

        sim.process(spawn_later())
        sim.run_until_complete(n.process)
        assert order[0][0] == "interrupt"
        assert order[0][1] == 3.0  # 2.0 execute + 1.0 interrupt body

    def test_handler_between_interrupt_and_normal(self, sim, cpu):
        order = []

        def make(name):
            def body(thread):
                yield from thread.execute(1.0)
                order.append(name)
            return body

        holder_done = []

        def holder(thread):
            yield from thread.execute(1.0)
            # All three contenders are queued now; release order must be
            # by priority.
            yield from thread.yield_cpu()
            holder_done.append(sim.now)

        h = cpu.spawn(holder, name="holder", priority=NORMAL)

        def spawner():
            yield sim.timeout(0.1)
            cpu.spawn(make("normal"), name="n", priority=NORMAL)
            cpu.spawn(make("handler"), name="h", priority=HANDLER)
            cpu.spawn(make("interrupt"), name="i", priority=INTERRUPT)

        sim.process(spawner())
        sim.run(until=100.0)
        assert order == ["interrupt", "handler", "normal"]

    def test_compute_yields_between_quanta(self, sim, cpu):
        order = []

        def long_job(thread):
            yield from thread.compute(100.0)
            order.append(("job", sim.now))

        def interrupt(thread):
            yield from thread.execute(1.0)
            order.append(("irq", sim.now))

        job = cpu.spawn(long_job, name="job", priority=NORMAL)

        def spawner():
            yield sim.timeout(5.0)
            cpu.spawn(interrupt, name="irq", priority=INTERRUPT)

        sim.process(spawner())
        sim.run_until_complete(job.process)
        # The interrupt ran at the first quantum boundary, not at 100us.
        assert ("irq", COMPUTE_QUANTUM + 1.0) in order
        assert ("job", 101.0) in order


class TestCurrentThread:
    def test_current_thread_inside_body(self, sim, cpu):
        seen = []

        def body(thread):
            yield from thread.execute(1.0)
            seen.append(cpu.current_thread() is thread)

        t = cpu.spawn(body)
        sim.run_until_complete(t.process)
        assert seen == [True]

    def test_current_thread_outside_raises(self, sim, cpu):
        with pytest.raises(MachineError):
            cpu.current_thread()

    def test_current_thread_in_plain_process_raises(self, sim, cpu):
        def plain():
            yield sim.timeout(1.0)
            cpu.current_thread()

        proc = sim.process(plain())
        with pytest.raises(MachineError):
            sim.run_until_complete(proc)


class TestWait:
    def test_wait_returns_event_value(self, sim, cpu):
        ev = sim.event()

        def body(thread):
            val = yield from thread.wait(ev)
            return val

        def firer():
            yield sim.timeout(2.0)
            ev.succeed("sig")

        t = cpu.spawn(body)
        sim.process(firer())
        assert sim.run_until_complete(t.process) == "sig"

    def test_waiting_thread_does_not_hold_cpu(self, sim, cpu):
        ev = sim.event()

        def waiter(thread):
            yield from thread.wait(ev)

        def worker(thread):
            yield from thread.execute(1.0)
            ev.succeed(None)
            return sim.now

        w = cpu.spawn(waiter, name="waiter")
        k = cpu.spawn(worker, name="worker")
        results = sim.run_until_complete(sim.all_of(
            [w.process, k.process]))
        assert results[k.process] == 1.0
