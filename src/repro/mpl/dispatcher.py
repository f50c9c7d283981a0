"""The MPL/MPI receive-side protocol engine.

Handles arriving packets for the two-sided stack: envelope admission in
send order, matching against posted receives, early-arrival buffering
(the "extra copy" of section 4), rendezvous handshakes, and ``rcvncall``
handler dispatch with its AIX context-creation cost (section 5.2).

The receive loop -- an interrupt-priority thread in interrupt mode,
inline from blocked MPL calls in polling mode -- is the one LAPI uses,
:class:`repro.core.endpoint.EndpointDispatcher`; it never blocks on
flow control.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Generator, Optional

from ..core.endpoint import EndpointDispatcher, user_steps
from ..errors import MplError
from .constants import MplPacketKind
from .matching import MessageState
from .protocol import cts_packet

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..machine.cpu import Thread
    from ..machine.packet import Packet
    from .api import Mpl

__all__ = ["MplDispatcher"]


class MplDispatcher(EndpointDispatcher):
    """Receive-side engine of one MPL context."""

    def __init__(self, mpl: "Mpl") -> None:
        super().__init__(mpl)
        self.mpl = mpl

    def _handle(self, thread: "Thread", pkt: "Packet") -> Generator:
        kind = pkt.kind
        if kind == MplPacketKind.DATA:
            yield from self._data(thread, pkt)
        elif kind == MplPacketKind.RTS:
            yield from self._rts(thread, pkt)
        elif kind == MplPacketKind.CTS:
            self._cts(pkt)
        else:
            raise MplError(f"MPL dispatcher: unknown kind {kind!r}")

    # ------------------------------------------------------------------
    # message state helpers
    # ------------------------------------------------------------------
    def _open(self, key: tuple, pkt: "Packet",
              origin: Optional[int]) -> MessageState:
        """A message's first packet to arrive opens its record."""
        return MessageState(*key, origin, self.ctx.stats)

    def _admit_and_match(self, thread: "Thread",
                         msg: MessageState) -> Generator:
        """Run in-order envelope admission, then matching, for every
        envelope the arrival unblocked."""
        cfg = self.config
        sp = self.spans
        for env in self.ctx.match.admit_envelope(msg):
            if sp is not None:
                t_m = thread.sim.now
            yield from thread.execute(cfg.mpl_match_cost)
            if sp is not None:
                sp.emit(self.ctx.rank, "mpl", "recv", "match", t_m,
                        thread.sim.now, parent=env.origin,
                        bytes=env.total, src=env.src)
            req = self.ctx.match.match_arrival(env)
            if req is not None:
                yield from self._bound(thread, env)
            elif env.rcvncall_fn is not None and env.is_rndv:
                # rcvncall accepts rendezvous traffic into early storage.
                self._send_cts(env)
            yield from self._maybe_complete(thread, env)

    def _send_cts(self, msg: MessageState) -> None:
        cts = cts_packet(self.config, self.ctx.rank, msg.src, msg.msg_id,
                         reply_to=msg.rts_uid)
        sp = self.spans
        if sp is not None:
            sp.bind_packet(cts, msg.origin, "cts")
        self.mpl.transport.send_control(cts)

    def _bound(self, thread: "Thread", msg: MessageState) -> Generator:
        """A receive is bound to ``msg``: flush the packets stashed
        before its envelope into it, then clear a rendezvous sender."""
        yield from self.flush(thread, msg)
        if msg.is_rndv:
            self._send_cts(msg)

    def _land(self, msg: MessageState, offset: int, payload: bytes) -> None:
        """Land one copied chunk wherever this message currently goes."""
        req = msg.recv_req
        if req is not None and not msg.used_early:
            # Direct path: one copy, straight to the receiver's buffer.
            if req.addr is not None:
                self.mpl.memory.write(req.addr + offset, payload)
            else:
                if req.sink is None:
                    req.sink = bytearray(msg.total)
                req.sink[offset:offset + len(payload)] = payload
        else:
            # Early-arrival path: assemble internally; the extra copy to
            # the user happens at delivery.
            if msg.early_buffer is None:
                msg.early_buffer = bytearray(msg.total)
            msg.early_buffer[offset:offset + len(payload)] = payload
            msg.used_early = True
            self.ctx.stats.early_arrival_bytes += len(payload)
        msg.placed(len(payload))

    def _maybe_complete(self, thread: "Thread",
                        msg: MessageState) -> Generator:
        if not msg.complete:
            return
        if msg.recv_req is not None:
            yield from self.deliver(thread, msg)
        elif msg.rcvncall_fn is not None:
            self._spawn_rcvncall(msg)
            del self.recvs[msg.key]
        # else: unexpected and complete; waits for a receive to post.

    def deliver(self, thread: "Thread", msg: MessageState) -> Generator:
        """Final delivery of a complete, bound message."""
        req = msg.recv_req
        if msg.used_early:
            # The extra copy: early-arrival buffer -> user destination.
            yield from self.copy(thread, msg, msg.total, early_arrival=True)
            blob = bytes(msg.early_buffer[:msg.total])
            if req.addr is not None:
                self.mpl.memory.write(req.addr, blob)
            else:
                req.data = blob
        elif req.addr is None:
            req.data = bytes(req.sink[:msg.total]) if req.sink else b""
        # The payload now lives once, in ``req.data`` or user memory;
        # the request keeps ``message`` but nothing points back at it.
        req.sink = None
        msg.early_buffer = None
        msg.recv_req = None
        req.complete = True
        self.recvs.pop(msg.key, None)
        self.ctx.progress_ws.notify_all()

    def _spawn_rcvncall(self, msg: MessageState) -> None:
        """Run an MPL rcvncall handler: AIX creates a handler context
        (expensive, section 5.2), then the user function executes."""
        mpl = self.mpl
        cfg = self.config
        blob = bytes(msg.early_buffer[:msg.total]) if msg.early_buffer \
            else b""
        sp = self.spans

        def body(hthread):
            cs_sid = None
            if sp is not None:
                cs_sid = sp.open(mpl.ctx.rank, "mpl", "rcvncall",
                                 hthread.sim.now, phase="cmpl_handler",
                                 parent=msg.origin, bytes=msg.total,
                                 tag=msg.tag)
                hthread.span_parent = cs_sid
            try:
                yield from hthread.execute(cfg.rcvncall_context_cost)
                mpl.ctx.stats.rcvncalls_run += 1
                yield from user_steps(
                    msg.rcvncall_fn(mpl.task, msg.src, msg.tag, blob))
            finally:
                if sp is not None:
                    sp.close(cs_sid, hthread.sim.now)

        mpl.run_handler("rcvncall", body)

    # ------------------------------------------------------------------
    # packet kinds
    # ------------------------------------------------------------------
    def _data(self, thread: "Thread", pkt: "Packet") -> Generator:
        msg = self.record((pkt.src, pkt.info["msg_seq"]), pkt)
        if pkt.info.get("is_first") and not msg.ready:
            # For rendezvous traffic the RTS already delivered the
            # envelope; only admit it once.
            msg.set_envelope(pkt.info["tag"], pkt.info["total"],
                             pkt.info.get("is_rndv", False))
            yield from self._admit_and_match(thread, msg)
        if pkt.payload:
            yield from self.accept(thread, msg, pkt.info["offset"],
                                   pkt.payload)
            # A data-less message completed (if at all) when its
            # envelope was matched above.
            yield from self._maybe_complete(thread, msg)

    def _rts(self, thread: "Thread", pkt: "Packet") -> Generator:
        msg = self.record((pkt.src, pkt.info["msg_seq"]), pkt)
        msg.rts_uid = pkt.uid
        msg.set_envelope(pkt.info["tag"], pkt.info["total"], True)
        yield from self._admit_and_match(thread, msg)

    def _cts(self, pkt: "Packet") -> None:
        req = self.ctx.rndv_waiting.pop((pkt.src, pkt.info["msg_seq"]),
                                        None)
        if req is None:
            raise MplError(
                f"rank {self.ctx.rank}: CTS for unknown rendezvous"
                f" {pkt.info['msg_seq']}")
        req.cts_event.succeed(None)
