"""The discrete-event simulation kernel.

:class:`Simulator` owns the virtual clock and the pending-event queue.
All components of the SP machine model -- CPUs, adapters, switch links,
the LAPI/MPL protocol engines -- are processes scheduled by one simulator
instance, so a whole multi-node parallel machine runs deterministically
inside a single Python process.

One heap, one loop
------------------
Every pending piece of work is one ``(when, seq, fn, arg)`` tuple in a
single binary heap (``heapq``), and firing it is ``fn(arg)``:

* a :meth:`Simulator.call_at` callback is pushed as itself;
* a :class:`Timeout` is ``(_fire_timeout, timeout)`` at its due time;
* a triggered event is ``(_fire_event, event)`` at the current instant.

``seq`` is bumped on every push, so the heap's order is ``(when, push
order)``: time order, ties first-in first-out.  :meth:`Simulator.drive`
is the only loop that pops it; :meth:`~Simulator.run`,
:meth:`~Simulator.run_until_complete`, :meth:`~Simulator.step` and
``Cluster.run_job`` are all thin callers that differ only in when they
stop and what they report.

Units
-----
Virtual time is measured in **microseconds** (float).  Bandwidths across
the code base are expressed in bytes per microsecond, which conveniently
equals MB/s (1e6 bytes / 1e6 us), the unit the paper plots.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Any, Iterable, Optional

from ..errors import DeadlockError, SimulationError
from .events import PENDING, AllOf, Event, Timeout
from .process import Process, ProcessGen

__all__ = ["Simulator"]

_INF = float("inf")


def _fire_event(ev: Event) -> None:
    """Process a triggered event's callbacks."""
    callbacks = ev.callbacks
    ev.callbacks = None  # mark processed
    if callbacks is None:
        # A twice-enqueued event would replay its callbacks and corrupt
        # the run; fail loudly (a bare assert would vanish under
        # ``python -O``).
        raise SimulationError(
            f"event {ev!r} processed twice (double enqueue)")
    for cb in callbacks:
        cb(ev)
    # An event that failed with nobody listening would silently swallow
    # the error; surface it so broken models crash loudly.
    if ev._ok is False and not callbacks:
        raise ev._value


def _fire_timeout(ev: Timeout) -> None:
    """A timeout's due time has arrived: trigger it with the held-aside
    payload, then process callbacks like any event."""
    if ev._value is PENDING:
        ev._ok = True
        ev._value = ev._pending_value
    _fire_event(ev)


class _Never:
    """The ``done`` of a :meth:`Simulator.drive` that stops only on the
    queue, the horizon or the event ceiling: it never triggers."""

    __slots__ = ()
    _value = PENDING


_NEVER = _Never()


class Simulator:
    """Event loop, virtual clock, and process registry.

    Parameters
    ----------
    trace:
        Optional :class:`repro.sim.trace.Tracer` receiving kernel events.
    """

    def __init__(self, trace: Optional[Any] = None) -> None:
        self._now: float = 0.0
        #: The pending queue: a heap of ``(when, seq, fn, arg)``.
        self._queue: list[tuple] = []
        self._seq: int = 0
        #: First error passed to :meth:`halt`, raised by :meth:`drive`.
        self._halt: Optional[BaseException] = None
        self._active_process: Optional[Process] = None
        self._live_processes: set[Process] = set()
        self.trace = trace
        #: Optional ``repro.obs.spans.SpanRecorder`` observing phase
        #: boundaries (attached by the cluster).  Purely observational:
        #: recording reads ``now`` and appends to host-side lists; it
        #: never schedules events or consumes RNG, so arming it cannot
        #: perturb virtual time.  Components reach it as ``sim.spans``
        #: and must guard every hook on ``is not None``.  Causal
        #: context rides packet uids / message ids in recorder-side
        #: tables -- never the queue entries -- so :meth:`call_at`
        #: entries stay bare tuples with spans on.
        self.spans: Optional[Any] = None
        #: Optional ``repro.obs.flight.FlightRecorder`` attached by the
        #: cluster when telemetry is armed: the black box that fault
        #: and reliability trigger points dump into.  Same contract as
        #: ``spans``: purely observational, guarded on ``is not None``.
        self.flight: Optional[Any] = None
        #: Cumulative count of events processed over the simulator's
        #: lifetime; useful for tests and perf accounting.  Budget
        #: checks (``max_events``) are always *per call*, relative to a
        #: snapshot of this counter at entry.
        self.events_processed: int = 0

    # ------------------------------------------------------------------
    # clock & factories
    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current virtual time in microseconds."""
        return self._now

    @property
    def active_process(self) -> Optional[Process]:
        """The process currently being resumed, if any."""
        return self._active_process

    def event(self, name: str = "") -> Event:
        """Create a fresh, untriggered event."""
        return Event(self, name=name)

    def timeout(self, delay: float, value: Any = None,
                name: str = "") -> Timeout:
        """Create an event that fires ``delay`` us from now."""
        return Timeout(self, delay, value=value, name=name)

    def process(self, gen: ProcessGen, name: str = "") -> Process:
        """Launch ``gen`` as a process; returns the process event."""
        return Process(self, gen, name=name)

    def call_at(self, when: float, fn, arg: Any = None) -> None:
        """Schedule ``fn(arg)`` at virtual time ``when`` (fast path).

        Allocation-light alternative to ``timeout(delay)`` + callback:
        no event object, no callbacks list, no name -- the queue entry
        is the callback itself.  The callback runs in kernel context
        (not on a simulated CPU); it must not block.  Use for
        model-internal delivery/completion/timer callbacks whose only
        job is to advance machine state at a known instant.
        """
        # Not ``when < now``: a NaN compares false both ways, and once
        # it reached the clock every later guard would be vacuous.
        if not when >= self._now:
            raise SimulationError(
                f"cannot schedule call_at({when}) before now={self._now}")
        self._seq = seq = self._seq + 1
        heappush(self._queue, (when, seq, fn, arg))

    def all_of(self, events: Iterable[Event]) -> AllOf:
        """Condition that fires when all of ``events`` have fired."""
        return AllOf(self, events)

    def halt(self, err: BaseException) -> None:
        """Stop the run in progress with ``err``.

        :meth:`drive` raises it before firing anything else, so nothing
        queued after the halting callback -- even at the same instant
        -- runs.  The first error wins; later ones (cascading failures
        of an already-dying run) are dropped.  Raising clears it, so the
        next run starts clean.
        """
        if self._halt is None:
            self._halt = err

    # ------------------------------------------------------------------
    # scheduling internals (used by Event/Timeout/Process)
    # ------------------------------------------------------------------
    def _schedule_at(self, when: float, ev: Timeout) -> None:
        if not when >= self._now:  # NaN-proof, as in call_at
            raise SimulationError(
                f"cannot schedule event at {when} before now={self._now}")
        self._seq = seq = self._seq + 1
        heappush(self._queue, (when, seq, _fire_timeout, ev))

    def _enqueue_triggered(self, ev: Event) -> None:
        """Queue an already-triggered event for callback processing."""
        self._seq = seq = self._seq + 1
        heappush(self._queue, (self._now, seq, _fire_event, ev))

    def _register_process(self, proc: Process) -> None:
        self._live_processes.add(proc)

    def _unregister_process(self, proc: Process) -> None:
        self._live_processes.discard(proc)

    def close(self) -> None:
        """Drop what a run left parked or queued, once the machine it
        drives is dropped.

        Every live process is closed at its yield point and forgets
        its listeners; its ``finally`` blocks may queue events, so the
        queue is emptied last.  Parked processes, queued callbacks and
        the flight recorder (which reads this clock) are the kernel's
        share of the machine's reference cycles; afterwards nothing
        here refers to the machine.  The clock keeps its value.
        """
        live = self._live_processes
        while live:
            proc = live.pop()
            proc.close()
            proc.callbacks = None
        self._queue.clear()
        self.flight = None

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def _pending(self) -> int:
        """Number of scheduled entries still in the queue."""
        return len(self._queue)

    def peek(self) -> float:
        """Time of the next scheduled event, or ``inf`` if none."""
        return self._queue[0][0] if self._queue else _INF

    def drive(self, done: Any = _NEVER, horizon: float = _INF,
              ceiling: float = _INF) -> None:
        """The kernel's pop loop: fire entries in ``(when, seq)`` order.

        Returns, leaving the rest of the queue in place, as soon as
        ``done`` (any event) has triggered, the queue is empty, the next
        entry lies past ``horizon``, or :attr:`events_processed` has
        reached ``ceiling``.  Callers tell which from that state and
        report it in their own terms.  Before each of those checks it
        raises -- and clears -- the error a :meth:`halt` recorded.
        :attr:`trace` is read once, on entry.
        """
        queue = self._queue
        trace = self.trace
        pending = PENDING
        while True:
            if self._halt is not None:
                err = self._halt
                self._halt = None
                raise err
            if (done._value is not pending or not queue
                    or queue[0][0] > horizon
                    or self.events_processed >= ceiling):
                return
            when, _, fn, arg = heappop(queue)
            self._now = when
            self.events_processed += 1
            if trace is not None:
                trace.kernel_event(when, fn, arg)
            fn(arg)

    def step(self) -> None:
        """Process a single event (advancing the clock to it)."""
        if not self._queue:
            raise SimulationError("step() on an empty event queue")
        self.drive(ceiling=self.events_processed + 1)

    def _ceiling(self, max_events: Optional[int]) -> float:
        return (_INF if max_events is None
                else self.events_processed + max_events)

    def run(self, until: Optional[float] = None, *,
            max_events: Optional[int] = None) -> float:
        """Run until the queue drains, ``until`` is reached, or the budget.

        Parameters
        ----------
        until:
            Stop once the clock would pass this time (the clock is left at
            ``until``).  ``None`` runs to queue exhaustion.  A time
            before ``now`` is an error: the clock never runs backwards.
        max_events:
            Per-call safety valve for runaway models; raises
            :class:`SimulationError` when this call has processed that
            many events.

        Returns
        -------
        float
            The virtual time at which the run stopped.
        """
        horizon = _INF
        if until is not None:
            if not until >= self._now:  # NaN-proof, as in call_at
                raise SimulationError(
                    f"cannot run until {until} before now={self._now}")
            horizon = until
        self.drive(horizon=horizon, ceiling=self._ceiling(max_events))
        queue = self._queue
        if queue and queue[0][0] <= horizon:
            raise SimulationError(
                f"exceeded max_events={max_events} (possible livelock)")
        if until is not None:
            self._now = until
        return self._now

    def run_until_complete(self, proc: Event, *,
                           max_events: Optional[int] = None) -> Any:
        """Run until ``proc`` finishes; return its value or raise its error.

        ``max_events`` is a per-call budget: the counter is snapshotted
        at entry, so driving several jobs back-to-back on one simulator
        gives each call the full budget rather than charging later calls
        for earlier ones.

        Raises :class:`DeadlockError` if the event queue drains while the
        process is still alive (it is blocked on something that can never
        happen).
        """
        self.drive(proc, ceiling=self._ceiling(max_events))
        if proc._value is PENDING:
            if self._queue:
                raise SimulationError(
                    f"exceeded max_events={max_events} waiting for"
                    f" {proc.name!r}")
            waiting = sorted(p.name for p in self._live_processes)
            raise DeadlockError(
                f"event queue drained but {proc.name!r} never finished;"
                f" live processes: {waiting[:20]}")
        if proc._ok:
            return proc._value
        raise proc._value

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"<Simulator t={self._now:.3f}us"
                f" pending={len(self._queue)}"
                f" live={len(self._live_processes)}>")
