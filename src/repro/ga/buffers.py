"""AM receive-buffer management for the GA-on-LAPI backend.

Section 5.3.1 is devoted to this problem: the LAPI header handler must
return a buffer immediately (it cannot block or return NULL), arrival
rate can exceed the completion handlers' consumption rate, and dynamic
allocation is therefore "not practical".  GA's answer -- reproduced
here -- is a **preallocated pool**: small slots sized to a single
packet for the pipelined ~900-byte protocol, plus a handful of large
slots for multi-packet accumulate messages.  Completion handlers return
slots to the pool as soon as the data is applied to the array.

The whole pool is **one slab** of simulated memory carved into slots at
interior offsets (small slots first, then large), so a node pays one
allocation at ``GA_Init`` and the host only faults in the slots traffic
actually lands in.  :meth:`AmBufferPool.close` gives the slab back at
``GA_Terminate``.

Pool exhaustion raises a hard error: it means the protocol's flow
control (the send window bounding in-flight chunks) has been violated,
which is a bug, not a runtime condition to paper over.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from ..errors import GaError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..machine.memory import Memory

__all__ = ["AmBufferPool"]


class AmBufferPool:
    """Preallocated receive slots in a node's simulated memory."""

    def __init__(self, memory: "Memory", *, small_size: int,
                 small_count: int, large_size: int,
                 large_count: int) -> None:
        if small_size <= 0 or large_size <= 0:
            raise GaError("buffer sizes must be positive")
        if small_count < 0 or large_count < 0 \
                or small_count + large_count == 0:
            raise GaError("buffer pool needs at least one slot")
        self.memory = memory
        self.small_size = small_size
        self.large_size = large_size
        small_bytes = small_count * small_size
        #: Base address of the slab; ``None`` once closed.
        self.slab: Optional[int] = memory.malloc(
            small_bytes + large_count * large_size)
        # Free lists are stacks (the last slot is handed out first).
        self._small_free = [self.slab + i * small_size
                            for i in range(small_count)]
        self._large_free = [self.slab + small_bytes + i * large_size
                            for i in range(large_count)]
        self._owner: dict[int, str] = {}
        # Statistics
        self.small_high_water = 0
        self.large_high_water = 0
        self._small_total = small_count
        self._large_total = large_count

    # ------------------------------------------------------------------
    def acquire(self, nbytes: int) -> int:
        """Take a slot able to hold ``nbytes``; must not block.

        Called from header handlers, which LAPI forbids from blocking
        or returning NULL -- hence the hard failure on exhaustion.
        """
        if nbytes <= self.small_size and self._small_free:
            addr = self._small_free.pop()
            self._owner[addr] = "small"
            used = self._small_total - len(self._small_free)
            self.small_high_water = max(self.small_high_water, used)
            return addr
        if nbytes <= self.large_size:
            if not self._large_free:
                raise GaError(
                    "GA AM buffer pool exhausted: flow control violated"
                    f" ({nbytes}-byte request, no large slot free)")
            addr = self._large_free.pop()
            self._owner[addr] = "large"
            used = self._large_total - len(self._large_free)
            self.large_high_water = max(self.large_high_water, used)
            return addr
        raise GaError(
            f"{nbytes}-byte AM exceeds the {self.large_size}-byte large"
            " slot; the sender-side protocol must have chunked this")

    def release(self, addr: int) -> None:
        """Return a slot (from a completion handler)."""
        kind = self._owner.pop(addr, None)
        if kind == "small":
            self._small_free.append(addr)
        elif kind == "large":
            self._large_free.append(addr)
        else:
            raise GaError(f"release of unknown pool slot {addr:#x}")

    def close(self) -> None:
        """Free the slab (``GA_Terminate``).  Idempotent; the occupancy
        statistics stay readable, and a slot handed out afterwards
        faults on first access."""
        if self.slab is not None:
            self.memory.free(self.slab)
            self.slab = None

    @property
    def small_free(self) -> int:
        return len(self._small_free)

    @property
    def large_free(self) -> int:
        return len(self._large_free)

    @property
    def in_use(self) -> int:
        return len(self._owner)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"<AmBufferPool small {self.small_free}/{self._small_total}"
                f" large {self.large_free}/{self._large_total} free>")
