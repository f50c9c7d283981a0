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

from ..errors import LapiError

__all__ = ["LapiCounter"]


class LapiCounter:
    """An opaque LAPI completion counter.

    Create through :meth:`repro.core.api.Lapi.counter`, never directly,
    so the counter is registered for remote notification.
    """

    def __init__(self, cid: int, name: str = "") -> None:
        #: Context-local id; remote tasks address the counter by this.
        self.id = cid
        self.name = name or f"cntr{cid}"
        self._value = 0
        #: Total increments ever applied (monotonic; handy in tests).
        self.total = 0
        #: Hook fired after every value change; the owning context
        #: points it at its progress wait-set, which is where
        #: ``LAPI_Waitcntr`` waits (and polling loops wake on counter
        #: updates that arrive without a packet: adapter-level
        #: acknowledgements).
        self.on_change = None

    # ------------------------------------------------------------------
    @property
    def value(self) -> int:
        """Current (non-consuming) counter value."""
        return self._value

    def add(self, count: int = 1) -> None:
        """Increment the counter and notify its waiters."""
        if count <= 0:
            raise LapiError(f"counter increment must be positive: {count}")
        self._value += count
        self.total += count
        if self.on_change is not None:
            self.on_change()

    def set(self, value: int) -> None:
        """``LAPI_Setcntr``: overwrite the counter value."""
        if value < 0:
            raise LapiError(f"counter value must be >= 0: {value}")
        self._value = value
        if self.on_change is not None:
            self.on_change()

    # ------------------------------------------------------------------
    def try_consume(self, threshold: int) -> bool:
        """Non-blocking ``Waitcntr`` attempt: consumes ``threshold``
        and returns True when the counter holds it."""
        if threshold <= 0:
            raise LapiError(f"wait threshold must be positive: {threshold}")
        if self._value >= threshold:
            self._value -= threshold
            return True
        return False

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<LapiCounter {self.name} value={self._value}>"
