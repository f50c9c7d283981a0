"""Two-sided message matching with MPI ordering semantics.

The defining complexity of the send/receive model (and a chunk of the
overhead the paper's section 4 attributes to MPI): arriving messages
must be matched against posted receives by ``(source, tag)`` with
wildcards, **in send order per source**, even though the switch fabric
reorders packets.  This module owns:

* the posted-receive queue (FIFO; wildcard matching),
* the unexpected-message queue (messages that arrived before a matching
  receive; eager ones buffered in early-arrival storage -- the "extra
  copy"),
* per-source envelope sequencing that restores send order before any
  matching happens,
* ``rcvncall`` handler registration (MPL's interrupt-driven receive).

All state here is pure bookkeeping -- no simulated time; the dispatcher
and API charge the costs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

from ..core.endpoint import RecvRecord
from ..errors import MplError
from .constants import ANY_SOURCE, ANY_TAG, ReservedTag

__all__ = ["MessageState", "RecvRequest", "MatchEngine", "tag_matches"]


def tag_matches(want: int, tag: int) -> bool:
    """A receive or probe for ``want`` takes a message tagged ``tag``:
    the same tag, or ``ANY_TAG`` and a user tag.  The wildcard never
    takes a :class:`ReservedTag`, so no user receive swallows a
    collective's traffic."""
    return want == tag or (want == ANY_TAG and tag >= ReservedTag.USER_MIN)


class MessageState(RecvRecord):
    """MPL's receive record of one incoming message (eager or rndv),
    keyed by its sender and the sender's per-destination sequence
    number.  It is ready once its envelope (tag, total, protocol) has
    arrived: with the first data packet of an eager message, with the
    RTS of a rendezvous one."""

    op = "recv"

    __slots__ = ("tag", "is_rndv", "early_buffer", "used_early",
                 "recv_req", "rcvncall_fn", "rts_uid", "unexpected_at",
                 "parked_at")

    def __init__(self, src: int, msg_id: int, origin: Optional[int] = None,
                 stats=None) -> None:
        super().__init__((src, msg_id), -1, stats, origin)
        # Envelope fields; valid once ready.
        self.tag = -2
        self.is_rndv = False
        #: uid of the RTS packet that announced this message (rndv);
        #: echoed in the CTS ``reply_to`` field.
        self.rts_uid: Optional[int] = None
        #: Span-trace timestamps: when the message joined the
        #: unexpected queue / was parked behind a sequencing gap.
        self.unexpected_at: Optional[float] = None
        self.parked_at: Optional[float] = None
        #: Early-arrival storage for eager data that beat the receive.
        self.early_buffer: Optional[bytearray] = None
        #: True if any byte of this message passed through the early
        #: buffer (forces the extra copy at receive time).
        self.used_early = False
        #: The posted receive this message is bound to, if matched.
        self.recv_req: Optional["RecvRequest"] = None
        #: rcvncall handler bound to this message, if any.
        self.rcvncall_fn: Optional[Callable] = None

    def set_envelope(self, tag: int, total: int, is_rndv: bool) -> None:
        self.tag = tag
        self.total = total
        self.is_rndv = is_rndv
        self.ready = True


class RecvRequest:
    """A posted receive."""

    __slots__ = ("src", "tag", "addr", "maxlen", "complete", "message",
                 "received_len", "received_src", "received_tag", "sink",
                 "data")

    def __init__(self, src: int, tag: int, addr: Optional[int],
                 maxlen: int) -> None:
        self.src = src
        self.tag = tag
        #: Destination in simulated memory, or None for bytes mode (the
        #: payload is handed back as ``data``).
        self.addr = addr
        self.maxlen = maxlen
        self.complete = False
        self.message: Optional[MessageState] = None
        self.received_len = 0
        self.received_src = -1
        self.received_tag = -1
        #: Assembly area for bytes mode.
        self.sink: Optional[bytearray] = None
        #: Final payload in bytes mode (valid once complete).
        self.data: Optional[bytes] = None

    def matches(self, src: int, tag: int) -> bool:
        return ((self.src == ANY_SOURCE or self.src == src)
                and tag_matches(self.tag, tag))


@dataclass
class _SourceStream:
    """Per-source envelope sequencing state."""

    next_seq: int = 0
    #: Envelopes that arrived ahead of a gap, keyed by message id.
    parked: dict[int, MessageState] = field(default_factory=dict)


class MatchEngine:
    """Posted/unexpected queues + in-order envelope admission."""

    def __init__(self, rank: int) -> None:
        self.rank = rank
        #: Simulator handle, installed by the owning context; used only
        #: to read the clock when span tracing is armed.
        self.sim = None
        self.posted: list[RecvRequest] = []
        self.unexpected: list[MessageState] = []
        self._streams: dict[int, _SourceStream] = {}
        #: tag -> persistent rcvncall handler.
        self.rcvncall_handlers: dict[int, Callable] = {}
        # Statistics
        self.matched_posted = 0
        self.matched_unexpected = 0
        self.envelopes_parked = 0

    def _stream(self, src: int) -> _SourceStream:
        st = self._streams.get(src)
        if st is None:
            st = _SourceStream()
            self._streams[src] = st
        return st

    # ------------------------------------------------------------------
    # envelope admission (called on the first packet / RTS of a message)
    # ------------------------------------------------------------------
    def admit_envelope(self, msg: MessageState) -> list[MessageState]:
        """Admit an arriving envelope, enforcing per-source send order.

        Returns the list of envelopes that became *matchable* (in send
        order) -- possibly empty if this envelope arrived ahead of a
        gap, possibly several if it filled one.
        """
        stream = self._stream(msg.src)
        if msg.msg_id < stream.next_seq or msg.msg_id in stream.parked:
            raise MplError(
                f"rank {self.rank}: duplicate envelope {msg.src}:"
                f"{msg.msg_id} escaped transport dedup")
        stream.parked[msg.msg_id] = msg
        sp = self.sim.spans if self.sim is not None else None
        if msg.msg_id != stream.next_seq:
            self.envelopes_parked += 1
            if sp is not None:
                msg.parked_at = self.sim.now
        ready = []
        while stream.next_seq in stream.parked:
            admitted = stream.parked.pop(stream.next_seq)
            if sp is not None and admitted.parked_at is not None:
                sp.emit(self.rank, "mpl", "recv", "reorder_wait",
                        admitted.parked_at, self.sim.now,
                        parent=admitted.origin, bytes=admitted.total,
                        src=admitted.src)
            ready.append(admitted)
            stream.next_seq += 1
        return ready

    # ------------------------------------------------------------------
    # matching proper
    # ------------------------------------------------------------------
    def match_arrival(self, msg: MessageState) -> Optional[RecvRequest]:
        """Match an admitted envelope against posted receives.

        On a hit the request is bound and removed from the posted queue;
        on a miss the message checks rcvncall handlers and otherwise
        joins the unexpected queue.  Returns the bound request, if any.
        """
        for i, req in enumerate(self.posted):
            if req.matches(msg.src, msg.tag):
                del self.posted[i]
                self._bind(msg, req)
                self.matched_posted += 1
                return req
        handler = self.rcvncall_handlers.get(msg.tag)
        if handler is not None:
            msg.rcvncall_fn = handler
            return None
        if self.sim is not None and self.sim.spans is not None:
            msg.unexpected_at = self.sim.now
        self.unexpected.append(msg)
        return None

    def post_recv(self, req: RecvRequest) -> Optional[MessageState]:
        """Post a receive; returns the unexpected message it matched."""
        for i, msg in enumerate(self.unexpected):
            if req.matches(msg.src, msg.tag):
                del self.unexpected[i]
                self._bind(msg, req)
                self.matched_unexpected += 1
                sp = self.sim.spans if self.sim is not None else None
                if sp is not None and msg.unexpected_at is not None:
                    sp.emit(self.rank, "mpl", "recv", "unexpected_wait",
                            msg.unexpected_at, self.sim.now,
                            parent=msg.origin, bytes=msg.total, src=msg.src)
                return msg
        self.posted.append(req)
        return None

    def _bind(self, msg: MessageState, req: RecvRequest) -> None:
        if msg.total > req.maxlen:
            raise MplError(
                f"rank {self.rank}: message of {msg.total} bytes"
                f" overflows a {req.maxlen}-byte receive (truncation is"
                " an error, as in MPI)")
        msg.recv_req = req
        req.message = msg
        req.received_len = msg.total
        req.received_src = msg.src
        req.received_tag = msg.tag

    # ------------------------------------------------------------------
    def register_rcvncall(self, tag: int, handler: Callable) -> None:
        """Install a persistent interrupt-receive handler for ``tag``."""
        if tag in self.rcvncall_handlers:
            raise MplError(f"rcvncall already registered for tag {tag}")
        self.rcvncall_handlers[tag] = handler

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"<MatchEngine rank={self.rank} posted={len(self.posted)}"
                f" unexpected={len(self.unexpected)}>")
