"""FIFO message channels in simulated time.

:class:`Channel` is the glue between asynchronous producers and consumers
inside the machine model -- e.g. the adapter's receive FIFO feeding the
LAPI dispatcher.  A channel may be bounded; a bounded channel *drops*
what it has no room for, which is how a real adapter FIFO behaves and
what exercises the retransmission path.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Any, Optional

from ..errors import SimulationError
from .events import PENDING, Event

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .kernel import Simulator

__all__ = ["Channel"]


class Channel:
    """A FIFO queue whose ``get`` blocks in virtual time.

    Parameters
    ----------
    sim:
        Owning simulator.
    capacity:
        Maximum queued items; ``None`` means unbounded.  ``put`` on a
        full channel discards the item and returns False.
    """

    def __init__(self, sim: "Simulator", name: str = "chan",
                 capacity: Optional[int] = None) -> None:
        if capacity is not None and capacity <= 0:
            raise SimulationError("channel capacity must be positive")
        self.sim = sim
        self.name = name
        self.capacity = capacity
        self._items: deque[Any] = deque()
        #: A list, not a deque: it holds at most a few getters, and an
        #: empty list is a tenth of an empty deque's size.
        self._getters: list[Event] = []
        # Formatted once: get() runs per packet on the hot path.
        self._get_name = f"get:{name}"

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._items)

    @property
    def empty(self) -> bool:
        return not self._items

    @property
    def full(self) -> bool:
        return self.capacity is not None and len(self._items) >= self.capacity

    # ------------------------------------------------------------------
    def put(self, item: Any) -> bool:
        """Enqueue ``item``; returns False if it was dropped.

        If a consumer is blocked in :meth:`get`, the item is handed to it
        directly (the queue never holds items while getters wait).  A
        parked getter (:func:`repro.sim.park.park`) that its wait set or
        deadline already woke stays this channel's consumer until its
        owner resumes and withdraws it: the item then replaces its
        empty wake value instead of waking it a second time.
        """
        if self._getters:
            getter = self._getters.pop(0)
            if getter._value is PENDING:
                getter.succeed(item)
            else:
                getter._value = item
            return True
        if self.full:
            return False
        self._items.append(item)
        return True

    def get(self) -> Event:
        """Return an event that fires with the next item.

        With items already queued the get completes synchronously (the
        returned event is already processed and a process yielding it
        continues inline; see :meth:`repro.sim.events.Event.completed`).
        """
        if self._items:
            return Event.completed(self.sim, self._items.popleft(),
                                   name=self._get_name)
        ev = Event(self.sim, name=self._get_name)
        self._getters.append(ev)
        return ev

    def cancel_get(self, getter: Event) -> None:
        """Withdraw a pending :meth:`get` (e.g. a timed-out wait).

        Without cancellation an abandoned getter would silently steal
        the next item.  A getter woken through its other registration
        is still registered here and is simply withdrawn; cancelling a
        getter that already received an item is an error.
        """
        try:
            self._getters.remove(getter)
        except ValueError:
            if getter.triggered:
                raise SimulationError(
                    f"cannot cancel a satisfied get on {self.name!r}")
            raise SimulationError(
                f"get event not pending on channel {self.name!r}")

    def try_get(self) -> tuple[bool, Any]:
        """Non-blocking get: ``(True, item)`` or ``(False, None)``."""
        if self._items:
            return True, self._items.popleft()
        return False, None

    def peek(self) -> Any:
        """Return the head item without removing it."""
        if not self._items:
            raise SimulationError(f"peek on empty channel {self.name!r}")
        return self._items[0]

    def drain(self) -> list[Any]:
        """Remove and return all queued items."""
        items = list(self._items)
        self._items.clear()
        return items

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"<Channel {self.name} {len(self._items)} queued,"
                f" {len(self._getters)} waiting>")
