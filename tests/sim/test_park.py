"""Tests for the single-wake parking primitive (repro.sim.park)."""

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (RuleBasedStateMachine, initialize,
                                 invariant, rule)

from repro.sim import Channel, Simulator, WaitSet, park, unpark

TIMEOUT = 3.0


class TestPark:
    def test_put_wakes_with_item(self):
        sim = Simulator()
        ch, ws = Channel(sim), WaitSet(sim)
        ev = park(ch, ws)
        ch.put("pkt")
        assert ws.notify_all() == 0  # already woken: skipped
        sim.run()
        assert unpark(ev, ch, ws) == "pkt"
        assert not ch._getters and not ws._waiters
        assert sim.events_processed == 1

    def test_notify_wakes_without_item(self):
        sim = Simulator()
        ch, ws = Channel(sim), WaitSet(sim)
        ev = park(ch, ws)
        assert ws.notify_all() == 1
        sim.run()
        assert unpark(ev, ch, ws) is None
        assert not ch._getters and not ws._waiters

    def test_item_after_the_wake_goes_to_the_parker(self):
        """Woken by its wait set but not yet resumed, the parker is
        still the channel's consumer; a second item queues."""
        sim = Simulator()
        ch, ws = Channel(sim), WaitSet(sim)
        ev = park(ch, ws)
        ws.notify_all()
        ch.put("first")
        ch.put("second")
        sim.run()
        assert sim.events_processed == 1  # one wake, not two
        assert unpark(ev, ch, ws) == "first"
        assert ch.try_get() == (True, "second")

    def test_deadline_wakes_in_one_event(self):
        sim = Simulator()
        ch = Channel(sim)
        woken = []

        def consumer():
            ev = park(ch, timeout=TIMEOUT)
            yield ev
            woken.append((sim.now, unpark(ev, ch)))

        sim.process(consumer())
        sim.run()
        assert woken == [(TIMEOUT, None)]
        assert not ch._getters
        assert sim.events_processed == 2  # boot + deadline

    def test_stale_deadline_is_a_no_op(self):
        sim = Simulator()
        ch = Channel(sim)
        ev = park(ch, timeout=TIMEOUT)
        ch.put("pkt")
        sim.run()
        assert sim.now == TIMEOUT and unpark(ev, ch) == "pkt"


class ParkMachine(RuleBasedStateMachine):
    """One consumer parks on a channel + wait set + deadline over and
    over while puts, notifies and clock steps arrive in any order --
    including several at one instant, and between a wake and the
    consumer's (lagging) resumption, the way a thread lags behind its
    wake while it waits for the CPU."""

    @initialize()
    def setup(self):
        self.sim = Simulator()
        self.ch = Channel(self.sim)
        self.ws = WaitSet(self.sim)
        self.sent = []
        self.got = []
        self.wakes = {}      # park event -> times its callbacks ran
        self.lag = 0.0
        self.stopping = False
        self.sim.process(self.consumer())
        self.sim.run(until=self.sim.now)

    def consumer(self):
        while not self.stopping:
            ok, item = self.ch.try_get()
            if ok:
                self.got.append(item)
                continue
            ev = park(self.ch, self.ws, timeout=TIMEOUT)
            self.wakes[ev] = 0
            ev.callbacks.append(self.count_wake)
            yield ev
            if self.lag:
                yield self.sim.timeout(self.lag)
            item = unpark(ev, self.ch, self.ws)
            if item is not None:
                self.got.append(item)

    def count_wake(self, ev):
        self.wakes[ev] += 1

    @rule()
    def put(self):
        self.sent.append(len(self.sent))
        assert self.ch.put(self.sent[-1])

    @rule()
    def notify(self):
        self.ws.notify_all()

    @rule(lag=st.sampled_from([0.0, 1.0]))
    def set_lag(self, lag):
        self.lag = lag

    @rule(dt=st.sampled_from([0.0, 1.0, TIMEOUT]))
    def advance(self, dt):
        self.sim.run(until=self.sim.now + dt)

    @invariant()
    def in_order_and_woken_at_most_once(self):
        assert self.got == self.sent[:len(self.got)]
        assert all(n <= 1 for n in self.wakes.values())

    def teardown(self):
        # Everything sent was delivered once, in order, or is still
        # queued behind the consumer's last look at the channel.
        self.stopping = True
        self.ws.notify_all()
        self.sim.run()
        assert self.got + self.ch.drain() == self.sent
        assert not self.ch._getters and not self.ws._waiters
        assert all(n == 1 for n in self.wakes.values())


TestParkMachine = ParkMachine.TestCase
TestParkMachine.settings = settings(max_examples=60,
                                    stateful_step_count=30, deadline=None)
