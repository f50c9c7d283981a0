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
from collections import deque
from typing import TYPE_CHECKING, Any, Optional

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
        self._waiters: deque[Event] = deque()
        # Formatted once: wait() runs per packet for credits/windows.
        self._wait_name = f"wait:{name}"

    @property
    def value(self) -> int:
        return self._value

    def post(self, count: int = 1) -> None:
        """Increment the semaphore, waking up to ``count`` waiters."""
        if count <= 0:
            raise SimulationError("post count must be positive")
        for _ in range(count):
            if self._waiters:
                self._waiters.popleft().succeed(None)
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
    fires every outstanding one with ``value``.  An event may also be
    registered here *and* with another waker (:func:`repro.sim.park.park`):
    whichever fires first wins, the other skips it.
    """

    def __init__(self, sim: "Simulator", name: str = "waitset") -> None:
        self.sim = sim
        self.name = name
        self._waiters: list[Event] = []
        self._wait_name = f"wait:{name}"

    def __len__(self) -> int:
        return len(self._waiters)

    def wait(self) -> Event:
        ev = Event(self.sim, name=self._wait_name)
        self._waiters.append(ev)
        return ev

    def discard(self, ev: Event) -> None:
        """Withdraw ``ev`` if it is still registered (a notify since it
        was woken elsewhere may already have dropped it)."""
        if ev in self._waiters:
            self._waiters.remove(ev)

    def notify_all(self, value: Optional[Any] = None) -> int:
        """Fire all pending waits; returns how many were woken.

        Registrations another waker already triggered are dropped
        without a second wake.
        """
        waiters = self._waiters
        if not waiters:
            return 0
        self._waiters = []
        woken = 0
        for ev in waiters:
            if ev._value is PENDING:
                ev.succeed(value)
                woken += 1
        return woken
