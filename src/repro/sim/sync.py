"""Synchronization primitives living in simulated time.

These are *model-level* primitives: a :class:`SimLock` held by one
simulated thread blocks other simulated threads in virtual time, with zero
host-Python concurrency involved.  They are used by the machine model
(CPU run queues), by LAPI internals, and by Global Arrays (the Pthread
mutex protecting atomic accumulate in section 5.3.3 of the paper).

All wait queues are FIFO within a priority class, which keeps every
simulation deterministic.
"""

from __future__ import annotations

import heapq
from typing import TYPE_CHECKING, Any, Callable, Optional

from ..errors import SimulationError
from .events import PENDING, Event

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .kernel import Simulator

__all__ = ["SimLock", "Semaphore", "WaitSet"]


class SimLock:
    """A mutex with a priority wait queue.

    ``acquire`` returns an :class:`Event` that fires when the caller holds
    the lock; lower ``priority`` values are served first, FIFO within a
    priority.  The lock records an opaque ``owner`` tag purely for
    debugging and error messages.
    """

    def __init__(self, sim: "Simulator", name: str = "lock") -> None:
        self.sim = sim
        self.name = name
        self._locked = False
        self._owner: Any = None
        self._waiters: list[tuple[int, int, Event, Any]] = []
        self._seq = 0
        # Formatted once: acquire() runs on every CPU grab (hot path).
        self._acquire_name = f"acquire:{name}"

    @property
    def locked(self) -> bool:
        return self._locked

    @property
    def owner(self) -> Any:
        return self._owner

    def acquire(self, owner: Any = None, priority: int = 0) -> Event:
        """Request the lock; the returned event fires once it is held.

        An uncontended acquire completes synchronously (the returned
        event is already processed and the waiter continues inline).
        Model code calls :meth:`try_acquire` first and comes here only
        to block, so no hot path builds that completed event; this form
        keeps the one-call contract for tests and outside callers.
        """
        if self.try_acquire(owner):
            return Event.completed(self.sim, self, name=self._acquire_name)
        ev = Event(self.sim, name=self._acquire_name)
        self._seq += 1
        heapq.heappush(self._waiters, (priority, self._seq, ev, owner))
        return ev

    def try_acquire(self, owner: Any = None) -> bool:
        """Take the lock now if it is free; True on success.

        The lock's twin of :meth:`Semaphore.try_wait`: the state change
        an uncontended :meth:`acquire` makes, with no event.  A held
        lock -- including one a release just handed to a queued waiter
        -- returns False and queues nothing; the caller then blocks
        through :meth:`acquire`.
        """
        if self._locked:
            return False
        self._locked = True
        self._owner = owner
        return True

    def release(self) -> None:
        """Release the lock, handing it to the best-priority waiter."""
        if not self._locked:
            raise SimulationError(f"release of unlocked {self.name!r}")
        if self._waiters:
            _, _, ev, owner = heapq.heappop(self._waiters)
            self._owner = owner
            ev.succeed(self)
        else:
            self._locked = False
            self._owner = None

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = f"held by {self._owner!r}" if self._locked else "free"
        return f"<SimLock {self.name} {state}, {len(self._waiters)} waiting>"


class Semaphore:
    """A counting semaphore with FIFO waiters."""

    def __init__(self, sim: "Simulator", value: int = 0,
                 name: str = "sem") -> None:
        if value < 0:
            raise SimulationError("semaphore initial value must be >= 0")
        self.sim = sim
        self.name = name
        self._value = value
        #: A list, not a deque: it holds at most a few waiters, and an
        #: empty list is a tenth of an empty deque's size.
        self._waiters: list[Event] = []
        # Formatted once: wait() runs per packet for credits/windows.
        self._wait_name = f"wait:{name}"

    @property
    def value(self) -> int:
        return self._value

    def post(self, count: int = 1) -> None:
        """Increment the semaphore, waking up to ``count`` waiters.

        A unit goes to the longest waiter.
        """
        if count <= 0:
            raise SimulationError("post count must be positive")
        for _ in range(count):
            if self._waiters:
                self._waiters.pop(0).succeed(None)
            else:
                self._value += 1

    def wait(self) -> Event:
        """Decrement; the returned event fires once a unit was taken.

        When a unit is available the wait completes synchronously (the
        returned event is already processed; see :meth:`SimLock.acquire`).
        Model code calls :meth:`try_wait` first and comes here only to
        block.
        """
        if self.try_wait():
            return Event.completed(self.sim, None, name=self._wait_name)
        ev = Event(self.sim, name=self._wait_name)
        self._waiters.append(ev)
        return ev

    def try_wait(self) -> bool:
        """Non-blocking decrement; True on success."""
        if self._value > 0:
            self._value -= 1
            return True
        return False


class WaitSet:
    """A broadcast wakeup point: many waiters, woken all at once.

    Used for condition-variable-like patterns ("wake everyone polling this
    counter").  Each :meth:`wait` returns a fresh event; :meth:`notify_all`
    fires every outstanding one with ``value`` -- except a *gated* one,
    registered with a predicate, which fires only once its predicate
    holds and otherwise stays registered, in its place, for the next
    notify.  An event may also be registered here *and* with another
    waker (:func:`repro.sim.park.park`): whichever fires first wins, the
    other skips it.
    """

    def __init__(self, sim: "Simulator", name: str = "waitset") -> None:
        self.sim = sim
        self.name = name
        #: ``(event, predicate)`` per registration; ``None`` = ungated.
        self._waiters: list[tuple[Event, Optional[Callable[[], bool]]]] = []
        self._wait_name = f"wait:{name}"

    def __len__(self) -> int:
        return len(self._waiters)

    def wait(self, predicate: Optional[Callable[[], bool]] = None) -> Event:
        """Register for the next notify; returns the event it fires.

        With ``predicate`` the registration is gated: a notify fires it
        only if ``predicate()`` is true then, and otherwise leaves it
        registered, with no kernel event and no wake.  The predicate
        runs in kernel context, inside whatever notified the set, so it
        must be a pure read of model state: it may not trigger events,
        block, or change anything.  The model's gates are
        ``Endpoint.wait_for``'s, and all read only: a request's
        ``complete``, an RMW's ``done``, a gfence token or dead peer, an
        outstanding-op or active-handler count, a matching unexpected
        MPL message, and the stack's progress mode.  Since the gate is
        read when the set is notified, not when the waiter resumes, a
        state change that can end a gated wait must come *before* the
        notify that announces it.  The caller yields the event at once:
        a gated registration nobody listens to is dropped.
        """
        ev = Event(self.sim, name=self._wait_name)
        self._waiters.append((ev, predicate))
        return ev

    def discard(self, ev: Event) -> None:
        """Withdraw ``ev`` if it is still registered (a notify since it
        was woken elsewhere may already have dropped it)."""
        waiters = self._waiters
        for i, (w, _) in enumerate(waiters):
            if w is ev:
                del waiters[i]
                return

    def clear(self) -> None:
        """Drop every registration without waking it: the processes
        waiting here are gone (their machine was dropped)."""
        self._waiters = []

    def ready(self) -> list[Callable[[], bool]]:
        """Gates of the live gated registrations whose predicate holds
        now: waiters the next notify would wake.  One still registered
        when a job stops means its state changed with no notify after
        it (a diagnostic read; it wakes nobody)."""
        return [gate for ev, gate in self._waiters
                if gate is not None and ev._value is PENDING
                and ev.callbacks and gate()]

    def notify_all(self, value: Optional[Any] = None) -> int:
        """Fire all pending waits whose gate (if any) holds; returns how
        many were woken.

        Registrations another waker already triggered are dropped
        without a second wake.  So is a gated registration nobody
        listens to any more (its waiting process was killed by a node
        crash), together with its predicate.
        """
        waiters = self._waiters
        if not waiters:
            return 0
        kept: list[tuple[Event, Optional[Callable[[], bool]]]] = []
        self._waiters = kept
        woken = 0
        for entry in waiters:
            ev, gate = entry
            if ev._value is not PENDING:
                continue
            if gate is not None:
                if not ev.callbacks:  # its process was killed
                    continue
                if not gate():
                    kept.append(entry)
                    continue
            ev.succeed(value)
            woken += 1
        return woken
