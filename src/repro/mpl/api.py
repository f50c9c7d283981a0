"""The public MPL/MPI interface -- the paper's baseline stack.

One :class:`Mpl` object per task provides the two-sided message-passing
surface the paper compares LAPI against:

* blocking and non-blocking ``send``/``recv`` with tag + source
  matching (wildcards supported) and per-source in-order delivery;
* the **eager** protocol below ``MP_EAGER_LIMIT`` (buffered sends
  return after an internal copy; early arrivals cost an extra copy at
  the receiver) and the **rendezvous** protocol above it (RTS/CTS
  round trip, then a single-copy transfer);
* ``rcvncall`` -- MPL's interrupt-driven receive used by the old GA
  implementation, paying the AIX handler-context-creation cost;
* ``lockrnc`` -- MPL's interrupt disable/enable, the atomicity tool of
  the MPL-based GA (section 5.2);
* collectives (barrier / bcast / reduce) built from point-to-point.

All communication methods are generator coroutines run on a node CPU
thread, exactly like the LAPI API.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Generator, Optional, Union

from ..core.endpoint import Endpoint, SendRecord
from ..errors import MplError, PeerUnreachableError
from ..machine.cpu import HANDLER
from ..machine.packet import packet_count
from . import collectives
from .constants import ANY_SOURCE, ANY_TAG, ReservedTag
from .dispatcher import MplDispatcher
from .matching import MessageState, RecvRequest, tag_matches
from .protocol import PROTO, data_packets, rts_packet
from .requests import MplContext, SendRequest

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..machine.cluster import Task

__all__ = ["Mpl", "ANY_SOURCE", "ANY_TAG"]


class Mpl(Endpoint):
    """MPL/MPI communication handle of one task."""

    PROTO = PROTO
    PREFIX = "mpl"
    LAYER = "mpl"
    Error = MplError
    MISUSE = ("MPL used before init", "MPL used after term",
              "MPL init called twice")
    Context = MplContext
    Dispatcher = MplDispatcher

    def __init__(self, task: "Task", interrupt_mode: bool = True,
                 eager_limit: Optional[int] = None) -> None:
        config = task.node.config
        if eager_limit is None:
            eager_limit = config.mpl_eager_limit
        if eager_limit > config.mpl_eager_limit_max:
            raise MplError(
                f"MP_EAGER_LIMIT {eager_limit} exceeds the maximum"
                f" {config.mpl_eager_limit_max}")
        super().__init__(task, interrupt_mode)
        #: Effective MP_EAGER_LIMIT for this task.
        self.eager_limit = eager_limit

    def unlink(self) -> None:
        super().unlink()
        # User code, which may hold the task.
        self.ctx.match.rcvncall_handlers.clear()

    def _register_metrics(self) -> None:
        super()._register_metrics()
        self.task.cluster.metrics.register_collector(
            "mpl.matching", self._matching_metrics, node=self.ctx.rank)

    def _matching_metrics(self) -> dict:
        m = self.ctx.match
        s = self.ctx.stats
        return {
            "matched_posted": m.matched_posted,
            "matched_unexpected": m.matched_unexpected,
            "envelopes_parked": m.envelopes_parked,
            "unexpected_pending": len(m.unexpected),
            "eager_buffered": s.eager_buffered,
            "eager_direct": s.eager_direct,
            "early_arrival_bytes": s.early_arrival_bytes,
            "rendezvous_round_trips": s.rendezvous,
            "rcvncalls_run": s.rcvncalls_run,
        }

    # ------------------------------------------------------------------
    # completion
    # ------------------------------------------------------------------
    def wait(self, request: Union[SendRequest, RecvRequest]) -> Generator:
        """Block until a send or receive request completes."""
        self._check_live()
        return self.wait_for(lambda: request.complete)

    def waitall(self, requests) -> Generator:
        """Block until every request in the iterable completes."""
        self._check_live()
        reqs = list(requests)
        return self.wait_for(lambda: all(r.complete for r in reqs))

    def waitany(self, requests) -> Generator:
        """Block until at least one request completes; returns the
        index of the first complete one."""
        self._check_live()
        reqs = list(requests)
        if not reqs:
            raise MplError("waitany on an empty request list")
        yield from self.wait_for(
            lambda: any(r.complete for r in reqs))
        for i, r in enumerate(reqs):
            if r.complete:
                return i

    # ------------------------------------------------------------------
    # lockrnc: MPL's interrupt disable (atomicity tool of GA-on-MPL)
    # ------------------------------------------------------------------
    def lockrnc(self, disable: bool) -> None:
        """Disable (True) / re-enable (False) communication interrupts.

        Masking notifies the progress wait set after raising the depth:
        an interrupt-mode wait's gate reads it, and a masked waiter must
        go on polling."""
        self._check_live()
        if disable:
            self._mask_depth += 1
            self.client.interrupts_enabled = False
            self.ctx.progress_ws.notify_all()
        else:
            if self._mask_depth == 0:
                raise MplError("lockrnc unlock without lock")
            self._mask_depth -= 1
            if self._mask_depth == 0 and self.interrupt_mode:
                self.client.interrupts_enabled = True
                self.client.arm_interrupt()

    # ------------------------------------------------------------------
    # sends
    # ------------------------------------------------------------------
    def isend(self, dst: int, source: Union[int, bytes], nbytes: int,
              tag: int) -> Generator:
        """Non-blocking send; returns a :class:`SendRequest`.

        ``source`` is a local memory address or a ``bytes`` payload
        (internal staging, used by collectives and packing layers).
        """
        self._check_live()
        return self._isend(dst, source, nbytes, tag)

    def _isend(self, dst: int, source: Union[int, bytes], nbytes: int,
               tag: int) -> Generator:
        """The body of :meth:`isend`; a barrier replay sends through it
        after ``term`` too."""
        cfg = self.config
        ctx = self.ctx
        thread = self.current_thread()
        if not (0 <= dst < ctx.size):
            raise MplError(f"destination {dst} outside job of {ctx.size}")
        if nbytes < 0:
            raise MplError(f"negative send length {nbytes}")
        sp = self.spans
        op_sid = None
        t_call = self.sim.now
        if sp is not None:
            op_sid = sp.open(ctx.rank, "mpl", "send", t_call,
                             parent=getattr(thread, "span_parent", None),
                             dst=dst, bytes=nbytes, tag=tag)
        eager = dst != ctx.rank and nbytes <= self.eager_limit
        if eager:
            # Call overhead, the copy into MPL's internal send buffer
            # (the user buffer is reusable once it is done -- the
            # generous buffering section 5.4 credits for the 1-20 KB
            # band) and the first packet's send cost run back to back:
            # one wake-up.
            buffered = nbytes <= cfg.mpl_send_buffer_limit
            if buffered:
                yield from thread.execute(cfg.mpl_call_overhead,
                                          cfg.copy_cost(nbytes),
                                          cfg.mpl_pkt_send_cost)
            else:
                yield from thread.execute(cfg.mpl_call_overhead,
                                          cfg.mpl_pkt_send_cost)
            if sp is not None:
                ends = thread.burst_ends
                sp.emit(ctx.rank, "mpl", "send", "call", t_call, ends[0],
                        parent=op_sid, bytes=nbytes)
                if buffered:
                    sp.emit(ctx.rank, "mpl", "send", "copy", ends[0],
                            ends[1], parent=op_sid, bytes=nbytes)
        else:
            yield from thread.execute(cfg.mpl_call_overhead)
            if sp is not None:
                sp.emit(ctx.rank, "mpl", "send", "call", t_call,
                        self.sim.now, parent=op_sid, bytes=nbytes)
        ctx.stats.sends += 1
        ctx.stats.bytes_sent += nbytes

        if isinstance(source, (bytes, bytearray, memoryview)):
            data = bytes(source[:nbytes])
            if len(data) != nbytes:
                raise MplError(
                    f"payload holds {len(data)} bytes, expected {nbytes}")
        else:
            data = self.memory.read(source, nbytes) if nbytes else b""

        if dst == ctx.rank:
            req = yield from self._local_send(thread, data, tag, op_sid)
            if sp is not None:
                sp.close(op_sid, self.sim.now, local=True)
            return req

        msg_seq = ctx.next_seq(dst)
        if eager:
            req = SendRequest(dst, msg_seq, nbytes,
                              "eager-buffered" if buffered
                              else "eager-direct")
            npkts = packet_count(nbytes, cfg.mpl_payload)
            uid = self.reserve_message(npkts, op_sid, "send", nbytes)
            if buffered:
                # Complete already: its record completes nothing, but
                # packets the breaker clears still count in error.
                req.complete = True
                ctx.stats.eager_buffered += 1
                record = SendRecord(npkts)
            else:
                ctx.stats.eager_direct += 1
                record = SendRecord(npkts, req.finish)
            # The call's chain above already charged the first packet's
            # send cost.
            yield from self.send_packets(
                thread, data_packets(ctx.rank, dst, msg_seq, tag, data,
                                     False, cfg, uid),
                record=record, chained=True)
        else:
            req = yield from self._send_rndv(thread, dst, msg_seq, tag,
                                             data, op_sid)
        if sp is not None:
            sp.close(op_sid, self.sim.now)
        return req

    def _send_rndv(self, thread, dst: int, msg_seq: int, tag: int,
                   data: bytes, op_sid=None) -> Generator:
        """Rendezvous: RTS now; a service thread streams after CTS.

        From RTS to CTS the message holds only its data snapshot and
        its reserved uids; packets are cut as the streamer sends them.
        """
        cfg = self.config
        ctx = self.ctx
        yield from thread.execute(cfg.mpl_rendezvous_ctrl_cost)
        # An open breaker would suppress the RTS without a word, and
        # the request would wait for a CTS that never comes: refuse the
        # send here, as an eager send's first packet is refused.
        self.transport.check_reachable(dst)
        ctx.stats.rendezvous += 1
        req = SendRequest(dst, msg_seq, len(data), "rendezvous")
        req.cts_event = self.sim.event(name=f"cts:{dst}:{msg_seq}")
        ctx.rndv_waiting[(dst, msg_seq)] = req
        sp = self.spans
        rts = rts_packet(cfg, ctx.rank, dst, msg_seq, tag, len(data))
        if sp is not None:
            sp.bind_packet(rts, op_sid, "send", len(data))
        self.transport.send_control(rts)
        npkts = packet_count(len(data), cfg.mpl_payload)
        uid = self.reserve_message(npkts, op_sid, "send", len(data))
        record = SendRecord(npkts, req.finish)

        def streamer(sthread):
            if sp is not None:
                t_w = sthread.sim.now
            yield from sthread.wait(req.cts_event)
            if sp is not None:
                sp.emit(ctx.rank, "mpl", "send", "rndv_wait", t_w,
                        sthread.sim.now, parent=op_sid, bytes=len(data))
            yield from sthread.execute(cfg.mpl_rendezvous_ctrl_cost)
            yield from self.send_packets(
                sthread, data_packets(ctx.rank, dst, msg_seq, tag, data,
                                      True, cfg, uid),
                record=record)

        self.task.node.cpu.spawn(streamer,
                                 name=f"mpl{ctx.rank}.rndv{msg_seq}",
                                 priority=HANDLER)
        return req

    def _local_send(self, thread, data: bytes, tag: int,
                    op_sid=None) -> Generator:
        """Send to self: goes through the matching engine locally."""
        cfg = self.config
        ctx = self.ctx
        msg = MessageState(ctx.rank, ctx.next_seq(ctx.rank), op_sid,
                           ctx.stats)
        msg.set_envelope(tag, len(data), False)
        yield from thread.execute(cfg.copy_cost(len(data)))
        req = SendRequest(ctx.rank, msg.msg_id, len(data),
                          "eager-buffered")
        req.complete = True
        for env in ctx.match.admit_envelope(msg):
            bound = ctx.match.match_arrival(env)
            env.early_buffer = bytearray(data)
            env.used_early = True
            env.placed(len(data))
            if bound is not None:
                yield from self.dispatcher.deliver(thread, env)
            else:
                self.recvs[env.key] = env
                yield from self.dispatcher._maybe_complete(thread, env)
        return req

    def send(self, dst: int, source: Union[int, bytes], nbytes: int,
             tag: int) -> Generator:
        """Blocking send (returns when the user buffer is reusable)."""
        req = yield from self.isend(dst, source, nbytes, tag)
        yield from self.wait(req)

    # ------------------------------------------------------------------
    # receives
    # ------------------------------------------------------------------
    def irecv(self, src: int, tag: int, addr: Optional[int],
              maxlen: int) -> Generator:
        """Non-blocking receive; returns a :class:`RecvRequest`.

        ``addr=None`` receives into internal storage; the payload is
        available as ``request.data`` once complete.
        """
        self._check_live()
        cfg = self.config
        ctx = self.ctx
        thread = self.current_thread()
        sp = self.spans
        op_sid = None
        if sp is not None:
            t_call = self.sim.now
            op_sid = sp.open(ctx.rank, "mpl", "recv", t_call,
                             parent=getattr(thread, "span_parent", None),
                             src=src, tag=tag)
        yield from thread.execute(cfg.mpl_call_overhead
                                  + cfg.mpl_post_recv_cost)
        if sp is not None:
            sp.emit(ctx.rank, "mpl", "recv", "call", t_call,
                    self.sim.now, parent=op_sid)
        ctx.stats.recvs += 1
        req = RecvRequest(src, tag, addr, maxlen)
        msg = ctx.match.post_recv(req)
        if msg is not None:
            if sp is not None:
                t_m = self.sim.now
            yield from thread.execute(cfg.mpl_match_cost)
            if sp is not None:
                sp.emit(ctx.rank, "mpl", "recv", "match", t_m,
                        self.sim.now, parent=op_sid, unexpected=True)
            yield from self.dispatcher._bound(thread, msg)
            yield from self.dispatcher._maybe_complete(thread, msg)
        if sp is not None:
            sp.close(op_sid, self.sim.now)
        return req

    def recv(self, src: int, tag: int, addr: Optional[int],
             maxlen: int) -> Generator:
        """Blocking receive; returns the completed request."""
        req = yield from self.irecv(src, tag, addr, maxlen)
        yield from self.wait(req)
        return req

    def recv_bytes(self, src: int, tag: int,
                   maxlen: int = 1 << 30) -> Generator:
        """Blocking receive into internal storage; returns the bytes."""
        req = yield from self.recv(src, tag, None, maxlen)
        return req.data if req.data is not None else b""

    # ------------------------------------------------------------------
    # probe
    # ------------------------------------------------------------------
    def iprobe(self, src: int, tag: int) -> Generator:
        """Non-blocking probe: ``(src, tag, nbytes)`` of the first
        matching unexpected message, or None.

        Drives progress in polling mode (like any MPL call).
        """
        self._check_live()
        thread = self.current_thread()
        yield from thread.execute(self.config.mpl_call_overhead * 0.5)
        if (not self.interrupt_mode or self._mask_depth > 0) \
                and self.client.pending > 0:
            yield from self.dispatcher.drain(thread)
        return self._match_unexpected(src, tag)

    def probe(self, src: int, tag: int) -> Generator:
        """Blocking probe: waits until a matching message is available
        (without receiving it); returns ``(src, tag, nbytes)``."""
        self._check_live()
        thread = self.current_thread()
        yield from thread.execute(self.config.mpl_call_overhead * 0.5)
        yield from self.wait_for(
            lambda: self._match_unexpected(src, tag) is not None)
        return self._match_unexpected(src, tag)

    def _match_unexpected(self, src: int, tag: int):
        for msg in self.ctx.match.unexpected:
            if ((src == ANY_SOURCE or src == msg.src)
                    and tag_matches(tag, msg.tag)):
                return (msg.src, msg.tag, msg.total)
        return None

    # ------------------------------------------------------------------
    # rcvncall
    # ------------------------------------------------------------------
    def rcvncall(self, tag: int, handler: Callable) -> None:
        """Register a persistent interrupt-receive handler for ``tag``.

        ``handler(task, src, tag, data)`` runs on a handler thread after
        the AIX context-creation cost; it may be a plain function or a
        generator (it can issue MPL calls, as GA's request servers do).
        """
        self._check_live()
        self.ctx.match.register_rcvncall(tag, handler)

    # ------------------------------------------------------------------
    # collectives (see collectives.py for the algorithms)
    # ------------------------------------------------------------------
    def barrier(self) -> Generator:
        """Dissemination barrier over the survivors
        (:meth:`~repro.core.endpoint.Endpoint.dissemination`)."""
        self._check_live()
        return self.dissemination()

    def _barrier_token(self, thread, epoch: int, view: int, rnd: int,
                       to: int, frm: Optional[int],
                       moved: Optional[Callable[[], bool]]) -> Generator:
        """MPL's barrier round: post the receive of ``frm``'s token, send
        ours -- 0 bytes -- to ``to``, wait.  With no rank dead every
        token is tagged ``ReservedTag.BARRIER`` (per-source order keeps
        epochs apart); a view with a dead rank has a tag of its own per
        epoch, below every other reserved tag."""
        tag = (ReservedTag.BARRIER if view == 0
               else ReservedTag.REDUCE - (epoch << self.ctx.size | view))
        if frm is not None:
            req = yield from self.irecv(frm, tag, None, 0)
        try:
            # A 0-byte send is buffered: complete when the call returns.
            yield from self._isend(to, b"", 0, tag)
        except PeerUnreachableError:
            pass  # ``to`` was lost since the view was taken: moved()
        if frm is None:
            return False
        yield from self.wait_for(lambda: req.complete or moved())
        if req.message is None:
            self.ctx.match.posted.remove(req)
            return False
        return True

    def bcast(self, data: Optional[bytes], root: int = 0) -> Generator:
        self._check_live()
        return collectives.bcast(self, data, root)

    def reduce(self, values, op: Callable, root: int = 0) -> Generator:
        self._check_live()
        return collectives.reduce(self, values, op, root)

    def allreduce(self, values, op: Callable) -> Generator:
        self._check_live()
        return collectives.allreduce(self, values, op)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        mode = "interrupt" if self.interrupt_mode else "polling"
        return (f"<Mpl rank={self.rank}/{self.size} {mode}"
                f" eager={self.eager_limit}>")
