"""Kernel order edge cases: time order, ties first-in first-out.

The kernel keeps one heap of ``(when, seq, fn, arg)``; these pin the
order it fires entries in where float arithmetic and same-instant
pushes make that order easy to get wrong.  The mixed brew is checked
against :class:`_SortedList`, a reference scheduler that re-sorts a
plain list on every pop.
"""

from repro.sim import Simulator
from repro.sim.events import WakeAt


class _SortedList:
    """Reference scheduler: ``call_at``/``now``/``run`` over a list
    kept in ``(when, push order)`` order by a stable sort."""

    def __init__(self):
        self.now = 0.0
        self._entries = []

    def call_at(self, when, fn, arg=None):
        assert when >= self.now
        self._entries.append((when, fn, arg))

    def run(self):
        while self._entries:
            self._entries.sort(key=lambda entry: entry[0])
            when, fn, arg = self._entries.pop(0)
            self.now = when
            fn(arg)


def _brew(sched):
    """A mixed brew of same-instant and future wake-ups, from the past
    and from within each instant; returns the callback sequence."""
    log = []

    def tick(label):
        log.append((sched.now, label))
        if label[0] < 3:
            sched.call_at(sched.now, tick, (label[0] + 1, "same"))
            sched.call_at(sched.now + 0.5, tick, (label[0] + 1, "later"))

    for i in range(4):
        sched.call_at(float(i % 2), tick, (0, f"seed{i}"))
    sched.run()
    return log


class TestKernelEdgeCases:
    def test_timeout_at_fires_on_exact_float(self):
        # 0.1 + 0.2 is the canonical non-representable sum; a WakeAt
        # must wake on the given float exactly, with no now + delay
        # round trip perturbing it.
        sim = Simulator()
        due = 0.1 + 0.2
        fired = []

        def sleeper():
            yield WakeAt(due)
            fired.append(sim.now)

        sim.process(sleeper())
        sim.run()
        assert fired == [due]

    def test_timeout_at_run_ends_on_the_last_due_time(self):
        sim = Simulator()

        def sleeper():
            for k in range(40):
                yield WakeAt(k * 0.7 + 0.1)

        sim.process(sleeper())
        # One start-up entry plus one wake per instant.
        assert (sim.run(), sim.events_processed) == (39 * 0.7 + 0.1, 41)

    def test_equal_timestamp_fifo(self):
        # Callbacks scheduled for the same instant fire in scheduling
        # order -- from the past, and from within that instant.
        sim = Simulator()
        order = []
        for i in range(5):
            sim.call_at(10.0, order.append, ("pre", i))

        def at_ten(_):
            order.append(("mid", 0))
            for j in range(3):
                sim.call_at(10.0, order.append, ("post", j))

        sim.call_at(10.0, at_ten, None)
        sim.run()
        assert order == ([("pre", i) for i in range(5)]
                         + [("mid", 0)]
                         + [("post", j) for j in range(3)])

    def test_equal_timestamp_order_matches_reference(self):
        log = _brew(Simulator())
        assert len(log) == 4 * (2 ** 4 - 1)
        assert log == _brew(_SortedList())
