"""Send-side request objects and per-task MPL state."""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from ..sim import Event, SimLock, WaitSet
from .matching import MatchEngine

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..sim import Simulator

__all__ = ["SendRequest", "MplStats", "MplContext"]


class SendRequest:
    """A non-blocking send in flight.

    ``complete`` means the user buffer is reusable (MPI semantics):
    immediately after the internal copy for buffered eager sends, when
    the endpoint's record of the message completes (:meth:`finish`)
    otherwise.
    """

    __slots__ = ("dst", "msg_seq", "nbytes", "complete", "cts_event",
                 "protocol")

    def __init__(self, dst: int, msg_seq: int, nbytes: int,
                 protocol: str) -> None:
        self.dst = dst
        self.msg_seq = msg_seq
        self.nbytes = nbytes
        #: "eager-buffered", "eager-direct", or "rendezvous".
        self.protocol = protocol
        self.complete = False
        self.cts_event: Optional[Event] = None

    def finish(self) -> None:
        """Every packet is acknowledged, or completed in error."""
        self.complete = True


@dataclass
class MplStats:
    """Operation counters for one MPL context."""

    sends: int = 0
    recvs: int = 0
    eager_buffered: int = 0
    eager_direct: int = 0
    rendezvous: int = 0
    rcvncalls_run: int = 0
    packets_processed: int = 0
    interrupts_taken: int = 0
    early_arrival_bytes: int = 0
    bytes_sent: int = 0
    bytes_received: int = 0


class MplContext:
    """Mutable state of one task's MPL instance."""

    def __init__(self, sim: "Simulator", rank: int, size: int) -> None:
        self.sim = sim
        self.rank = rank
        self.size = size
        self.match = MatchEngine(rank)
        # The matcher records unexpected/reorder wait spans; it needs
        # the clock (pure reads -- it never charges time itself).
        self.match.sim = sim
        #: (dst, msg_seq) -> sender-side rendezvous state awaiting CTS.
        self.rndv_waiting: dict[tuple[int, int], SendRequest] = {}
        self._next_seq: dict[int, int] = {}
        self.progress_ws = WaitSet(sim, name=f"mpl{rank}.progress")
        self.dispatch_lock = SimLock(sim, name=f"mpl{rank}.dispatch")
        self.active_handlers = 0
        self.stats = MplStats()

    def crash_reset(self) -> None:
        """Forget every in-flight message (fail-stop node restart):
        matching queues and rendezvous handshakes start empty."""
        self.rndv_waiting.clear()
        self.match.unexpected.clear()
        self.match.posted.clear()

    def next_seq(self, dst: int) -> int:
        seq = self._next_seq.get(dst, 0)
        self._next_seq[dst] = seq + 1
        return seq
