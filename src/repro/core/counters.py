"""LAPI completion counters.

Section 2.3: LAPI signals communication progress through counters the
user associates with events.  A counter may be shared by many operations
("check their completion as a group"); ``LAPI_Waitcntr`` blocks until the
counter reaches a requested value and *decrements it by that value* on
return; ``LAPI_Getcntr`` reads without consuming.

The counter is an opaque object (the paper stresses users must go
through the API), registered in its context's table so remote completion
notifications can address it by id.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from ..errors import LapiError
from ..sim import Event

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..sim import Simulator

__all__ = ["LapiCounter"]


class LapiCounter:
    """An opaque LAPI completion counter.

    Create through :meth:`repro.core.api.Lapi.counter`, never directly,
    so the counter is registered for remote notification.
    """

    def __init__(self, sim: "Simulator", cid: int, name: str = "") -> None:
        self._sim = sim
        #: Context-local id; remote tasks address the counter by this.
        self.id = cid
        self.name = name or f"cntr{cid}"
        self._wait_name = f"waitcntr:{self.name}"
        self._value = 0
        #: FIFO waiters: (threshold, event).  Served strictly in order --
        #: a large-threshold waiter at the head blocks later small ones,
        #: matching the single-consumer pattern LAPI counters are used in.
        self._waiters: list[tuple[int, Event]] = []
        #: Total increments ever applied (monotonic; handy in tests).
        self.total = 0
        #: Hook fired after every value change; the owning context
        #: points it at its progress wait-set so polling loops wake on
        #: counter updates that arrive without a packet (adapter-level
        #: acknowledgements).
        self.on_change = None

    # ------------------------------------------------------------------
    @property
    def value(self) -> int:
        """Current (non-consuming) counter value."""
        return self._value

    def add(self, count: int = 1) -> None:
        """Increment the counter and serve any satisfiable waiters."""
        if count <= 0:
            raise LapiError(f"counter increment must be positive: {count}")
        self._value += count
        self.total += count
        self._serve()
        if self.on_change is not None:
            self.on_change()

    def set(self, value: int) -> None:
        """``LAPI_Setcntr``: overwrite the counter value."""
        if value < 0:
            raise LapiError(f"counter value must be >= 0: {value}")
        self._value = value
        self._serve()
        if self.on_change is not None:
            self.on_change()

    def _serve(self) -> None:
        while self._waiters and self._value >= self._waiters[0][0]:
            threshold, ev = self._waiters.pop(0)
            self._value -= threshold
            ev.succeed(self._value)

    # ------------------------------------------------------------------
    def wait_event(self, threshold: int) -> Event:
        """Event firing once the counter has absorbed ``threshold``.

        The decrement-on-return semantics of ``LAPI_Waitcntr`` happen at
        fire time.  Immediate satisfaction is checked synchronously.
        """
        if threshold <= 0:
            raise LapiError(f"wait threshold must be positive: {threshold}")
        ev = Event(self._sim, name=self._wait_name)
        self._waiters.append((threshold, ev))
        self._serve()
        return ev

    def try_consume(self, threshold: int) -> bool:
        """Non-blocking ``Waitcntr`` attempt (polling-mode fast path).

        Only valid when no event waiter is queued ahead (mixed use would
        break FIFO fairness); consumes and returns True when satisfied.
        """
        if threshold <= 0:
            raise LapiError(f"wait threshold must be positive: {threshold}")
        if self._waiters:
            raise LapiError(
                f"try_consume on {self.name} with queued waiters")
        if self._value >= threshold:
            self._value -= threshold
            return True
        return False

    @property
    def waiting(self) -> int:
        """Number of queued waiters (diagnostics)."""
        return len(self._waiters)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"<LapiCounter {self.name} value={self._value}"
                f" waiters={len(self._waiters)}>")
