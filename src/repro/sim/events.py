"""Event primitives for the discrete-event simulation kernel.

An :class:`Event` is a one-shot occurrence at a point in simulated time.
Processes (see :mod:`repro.sim.process`) suspend themselves by yielding an
event and are resumed by the kernel once that event has *triggered* --
either successfully, carrying a value, or with a failure, carrying an
exception that is re-raised inside every waiting process.

The design follows the classic SimPy architecture but is implemented from
scratch and trimmed to exactly what the SP machine model needs:

* :class:`Event` -- manually triggered via :meth:`Event.succeed` /
  :meth:`Event.fail`.
* :class:`Timeout` -- triggers after a fixed delay; the workhorse used by
  the machine model to represent latencies and occupancies.
* :class:`AllOf` -- triggers once every one of a set of events has.

A wait on whichever of several sources comes first is not an event
here: it is :func:`repro.sim.park.park`.

All times are in **microseconds** of virtual time, matching the units the
paper reports (latency tables in us, bandwidth in MB/s == bytes/us).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Iterable, Optional

from ..errors import SimulationError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .kernel import Simulator

__all__ = ["PENDING", "FLOAT_WAKE", "WakeAt", "Event", "Timeout", "AllOf"]


class _Pending:
    """Sentinel for the value of an event that has not triggered yet."""

    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return "<PENDING>"


#: Singleton sentinel distinguishing "no value yet" from ``None`` values.
PENDING = _Pending()


class _FloatWake:
    """Singleton trigger fed to a process resuming from a bare-float yield.

    Processes may yield a bare number instead of a :class:`Timeout` to
    sleep that many microseconds (the kernel's allocation-free sleep
    path).  This object mimics a successfully-triggered, valueless
    event: ``Process._resume`` only reads ``_ok`` and ``_value`` from
    its trigger, both class attributes here, so one immortal instance
    serves every float sleep in every simulator.
    """

    __slots__ = ()
    _ok = True
    _value = None

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return "<float-sleep wake>"


#: Shared trigger for all float-yield wakeups (see ``Process._resume``).
FLOAT_WAKE = _FloatWake()


class WakeAt:
    """Yielded by a process to sleep until the absolute instant ``when``.

    The absolute twin of the bare-float sleep: a float yield wakes at
    ``now + delay``, this wakes at exactly ``when`` -- a float the
    yielder accumulated itself (``((now + a) + b) + c`` for a chain of
    CPU bursts), so one wake-up lands on the very instant a sequence of
    relative sleeps would have reached.  Mutable and reusable: a process
    sleeps on at most one at a time, so its owner may keep a single
    instance and rewrite ``when`` before each yield.
    """

    __slots__ = ("when",)

    def __init__(self, when: float = 0.0) -> None:
        self.when = when

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<wake at {self.when}>"


class Event:
    """A one-shot occurrence in simulated time.

    Parameters
    ----------
    sim:
        The owning :class:`~repro.sim.kernel.Simulator`.
    name:
        Optional label used in traces and error messages.
    """

    __slots__ = ("sim", "callbacks", "_value", "_ok", "name")

    def __init__(self, sim: "Simulator", name: str = "") -> None:
        self.sim = sim
        self.name = name
        #: Callables invoked with this event when it is processed.
        self.callbacks: Optional[list[Callable[["Event"], None]]] = []
        self._value: Any = PENDING
        self._ok: Optional[bool] = None

    # ------------------------------------------------------------------
    # state inspection
    # ------------------------------------------------------------------
    @property
    def triggered(self) -> bool:
        """True once the event has an outcome (it may not be processed yet)."""
        return self._value is not PENDING

    @property
    def processed(self) -> bool:
        """True once callbacks have run and the event is finished."""
        return self.callbacks is None

    @property
    def ok(self) -> bool:
        """True if the event succeeded.  Only valid once :attr:`triggered`."""
        if self._ok is None:
            raise SimulationError(f"event {self!r} has not triggered yet")
        return self._ok

    @property
    def value(self) -> Any:
        """The event's outcome: its payload, or the failure exception."""
        if self._value is PENDING:
            raise SimulationError(f"event {self!r} has not triggered yet")
        return self._value

    # ------------------------------------------------------------------
    # triggering
    # ------------------------------------------------------------------
    @classmethod
    def completed(cls, sim: "Simulator", value: Any = None,
                  name: str = "") -> "Event":
        """Create an event that already succeeded *and* processed.

        The synchronous-completion fast path: a primitive whose wait is
        satisfiable immediately (an uncontended lock, a semaphore with
        credit, a channel with items queued) returns one of these
        instead of ``succeed()``-ing a fresh event through the kernel
        queue.  ``Process._resume`` consumes processed events inline, so
        the waiter continues in the same kernel step -- no event-queue
        round trip, no callbacks list.

        The model's own wait sites go one step further and call the
        primitive's ``try_`` form first (:meth:`SimLock.try_acquire
        <repro.sim.sync.SimLock.try_acquire>`, ``Semaphore.try_wait``,
        ``Channel.try_get``), so they build an event only to block and
        never one of these.
        """
        ev = cls.__new__(cls)
        ev.sim = sim
        ev.name = name
        ev.callbacks = None  # already processed
        ev._value = value
        ev._ok = True
        return ev

    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully with ``value`` as its payload."""
        if self._value is not PENDING:
            raise SimulationError(f"event {self!r} has already been triggered")
        self._ok = True
        self._value = value
        self.sim._enqueue_triggered(self)
        return self

    def fail(self, exc: BaseException) -> "Event":
        """Trigger the event as failed; ``exc`` propagates to waiters."""
        if not isinstance(exc, BaseException):
            raise TypeError(f"fail() needs an exception, got {exc!r}")
        if self._value is not PENDING:
            raise SimulationError(f"event {self!r} has already been triggered")
        self._ok = False
        self._value = exc
        self.sim._enqueue_triggered(self)
        return self

    def _label(self) -> str:
        return self.name or self.__class__.__name__

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "processed" if self.processed else (
            "triggered" if self.triggered else "pending")
        return f"<{self._label()} {state} at {id(self):#x}>"


class Timeout(Event):
    """An event that triggers ``delay`` microseconds after creation.

    Created through :meth:`repro.sim.kernel.Simulator.timeout`; the kernel
    schedules it immediately upon construction.
    """

    __slots__ = ("delay", "_pending_value")

    def __init__(self, sim: "Simulator", delay: float, value: Any = None,
                 name: str = "") -> None:
        if delay < 0:
            raise SimulationError(f"negative timeout delay: {delay}")
        # The default name is built lazily in _label: timeouts are the
        # single most-allocated object in a simulation, and untraced runs
        # must not pay for a format call per packet.
        super().__init__(sim, name=name)
        self.delay = delay
        # The payload is held aside and only becomes the event's value when
        # the kernel pops the timeout at its due time; until then the event
        # reports untriggered, which is what conditions and waiters expect.
        self._pending_value = value
        sim._schedule_at(sim.now + delay, self)

    def _label(self) -> str:
        return self.name or f"timeout({self.delay})"


class AllOf(Event):
    """Triggers once every one of the given events has triggered.

    Its value is a plain ``{event: value}`` dict in the order the events
    were given.  Events that already triggered are counted at
    construction, so a condition over finished events fires without
    waiting a tick; the first failure fails the condition with that
    event's exception.
    """

    __slots__ = ("_events", "_count")

    def __init__(self, sim: "Simulator", events: Iterable[Event]) -> None:
        super().__init__(sim, name="AllOf")
        self._events = list(events)
        self._count = 0
        for ev in self._events:
            if ev.sim is not sim:
                raise SimulationError(
                    "cannot mix events from different simulators")
        for ev in self._events:
            if ev.triggered:
                self._check(ev)
            else:
                ev.callbacks.append(self._check)
        if not self._events:
            self.succeed({})

    def _check(self, ev: Event) -> None:
        if self.triggered:
            return
        if not ev.ok:
            self.fail(ev.value)
            return
        self._count += 1
        if self._count == len(self._events):
            self.succeed({e: e.value for e in self._events})
