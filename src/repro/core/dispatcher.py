"""The LAPI dispatcher: target-side protocol engine.

Section 2.1 describes the dispatcher as "a part of the LAPI layer that
deals with the arrival of messages and invocation of handlers".  This
module implements it:

* packets are pulled from the adapter client's RX FIFO and processed
  under the context's dispatch lock, which enforces the paper's rule
  that **at most one header handler executes at a time** per context;
* completion handlers run on their own HANDLER-priority threads and may
  execute concurrently (the paper permits multiple completion handlers;
  synchronization between them is the user's job);
* arriving data is copied straight into the address the header handler
  names -- no intermediate buffering beyond the stash for packets that
  outrace their active message's first packet;
* put and get-reply packets are self-describing, so one routine
  (:meth:`Dispatcher._place`) lands both, at base + offset or run by
  run, and completes the message: a put at its target (target counter,
  CMPL notice to the origin), a get's reply at its origin (origin
  counter, fence retirement);
* the dispatcher itself never blocks on flow control: everything it
  emits (ACKs, completions, RMW replies) rides the control path, and
  get requests are served by spawned threads, which stream the reply
  through the origin side's one sender;
* control packets bypass the send window, so completion notices pace
  themselves: at most one per (origin, counter) is unacknowledged, and
  completions meanwhile ride the next one (:meth:`Dispatcher._send_cmpl`).

The receive loop itself -- interrupt and polling modes, the dispatch
lock, duplicate suppression -- is shared with MPL
(:class:`repro.core.endpoint.EndpointDispatcher`); this module is
LAPI's per-packet-kind handling.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Generator, Optional

from ..errors import LapiError
from ..machine.cpu import HANDLER
from ..machine.packet import packet_count
from .constants import PacketKind
from .context import RecvAssembly
from .endpoint import EndpointDispatcher, user_steps
from .protocol import (control_packet, data_packets, read_runs, split_runs,
                       strided_packet_count, write_runs)
from .putget import send_message
from .reliability import UNREACHABLE

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..machine.cpu import Thread
    from ..machine.packet import Packet
    from .api import Lapi

__all__ = ["Dispatcher"]

#: Mask to 64 bits, matching the hardware word LAPI_Rmw operates on.
_U64 = (1 << 64) - 1

#: Message type -> operation label for target-side span attribution.
_MTYPE_OP = {PacketKind.MSG_PUT: "put", PacketKind.MSG_AM: "amsend",
             PacketKind.MSG_GET_REP: "get"}


def _to_signed(v: int) -> int:
    v &= _U64
    return v - (1 << 64) if v >= (1 << 63) else v


class Dispatcher(EndpointDispatcher):
    """Receive-side engine of one LAPI context."""

    def __init__(self, lapi: "Lapi") -> None:
        super().__init__(lapi)
        self.lapi = lapi
        #: Optional :class:`repro.obs.Histogram` observing the stash
        #: depth whenever a packet outraces its message's first packet
        #: (reassembly out-of-order depth).  Installed by Lapi.init.
        self.ooo_depth = None

    def _trace(self, trace, thread: "Thread", pkt: "Packet") -> None:
        if trace.wants():
            trace.log(thread.sim.now, f"lapi{self.ctx.rank}", "lapi",
                      f"dispatch {pkt!r}", **pkt.trace_fields())

    def _handle(self, thread: "Thread", pkt: "Packet") -> Generator:
        ctx = self.ctx
        kind = pkt.kind
        if kind == PacketKind.DATA:
            mtype = pkt.info["mtype"]
            if mtype == PacketKind.MSG_AM:
                yield from self._am_data(thread, pkt)
            elif mtype in (PacketKind.MSG_PUT, PacketKind.MSG_GET_REP):
                yield from self._place(thread, pkt)
            else:
                raise LapiError(f"dispatcher: unknown data mtype {mtype!r}")
        elif kind == PacketKind.GET_REQ:
            self._get_request(pkt)
        elif kind == PacketKind.CMPL:
            sp = self.lapi.spans
            if sp is not None:
                t_cu = thread.sim.now
            yield from thread.execute(self.config.lapi_counter_update)
            if sp is not None:
                sp.emit(ctx.rank, "lapi", "cmpl", "counter_update", t_cu,
                        thread.sim.now, parent=sp.origin_of(pkt))
            ctx.counter_by_id(pkt.info["cntr_id"]).add(pkt.info["count"])
        elif kind == PacketKind.RMW_REQ:
            yield from self._rmw_request(thread, pkt)
        elif kind == PacketKind.RMW_REP:
            yield from self._rmw_reply(thread, pkt)
        elif kind == PacketKind.BARRIER:
            info = pkt.info
            ctx.barrier_tokens.add(
                (info["epoch"], info["view"], info["round"]))
            ctx.progress_ws.notify_all()
        else:
            raise LapiError(f"dispatcher: unknown packet kind {kind!r}")

    # ------------------------------------------------------------------
    # DATA packets: put / am / get replies
    # ------------------------------------------------------------------
    def _open(self, key: tuple, pkt: "Packet",
              origin: Optional[int]) -> RecvAssembly:
        """A put or active message's first packet to arrive opens its
        record.  A get reply's was opened when the get was issued."""
        src, msg_id, mtype = key
        if mtype == PacketKind.MSG_GET_REP:
            raise LapiError(
                f"task {self.ctx.rank}: get reply for unknown msg {msg_id}")
        info = pkt.info
        return RecvAssembly(src, msg_id, mtype, info["total"],
                            self.ctx.stats, buf_addr=info.get("tgt_addr"),
                            tgt_cntr_id=info["tgt_cntr_id"],
                            cmpl_cntr_id=info["cmpl_cntr_id"], origin=origin)

    def _place(self, thread: "Thread", pkt: "Packet") -> Generator:
        """Put and get-reply packets are self-describing: place each as
        it arrives, at base + offset or, for a strided message, run by
        run."""
        cfg = self.config
        ctx = self.ctx
        info = pkt.info
        asm = self.record((pkt.src, info["msg_id"], info["mtype"]), pkt)
        payload = pkt.payload
        counted = False
        if payload:
            n = len(payload)
            # The copy that completes a message runs straight into its
            # counter update: one wake-up for both bursts.
            counted = ((asm.tgt_cntr_id is not None
                        or asm.org_cntr is not None)
                       and asm.received + n >= asm.total)
            sp = self.lapi.spans
            if sp is not None:
                t_cp = thread.sim.now
            if counted:
                yield from thread.execute(cfg.copy_cost(n),
                                          cfg.lapi_counter_update)
            else:
                yield from thread.execute(cfg.copy_cost(n))
            if sp is not None:
                sp.emit(ctx.rank, "lapi", _MTYPE_OP[asm.mtype], "copy",
                        t_cp, thread.burst_ends[0] if counted
                        else thread.sim.now, parent=asm.origin, bytes=n)
            runs = info.get("runs")
            if runs is None:
                self.lapi.memory.write(asm.buf_addr + info["offset"],
                                       payload)
            else:
                write_runs(self.lapi.memory, runs, payload)
            asm.placed(n)
        if asm.complete:
            del self.recvs[asm.key]
            yield from self._signal_completion(thread, asm, counted)

    def _am_data(self, thread: "Thread", pkt: "Packet") -> Generator:
        cfg = self.config
        ctx = self.ctx
        sp = self.lapi.spans
        asm = self.record((pkt.src, pkt.info["msg_id"], PacketKind.MSG_AM),
                          pkt)
        if pkt.info.get("is_first"):
            if asm.ready:
                raise LapiError("duplicate first packet escaped dedup")
            asm.ready = True
            if sp is not None:
                t_hh = thread.sim.now
            asm.buf_addr, asm.cmpl_fn, asm.user_info = yield from \
                self.header_handler(thread, pkt.src, pkt.info["handler_id"],
                                    pkt.info["uhdr"], asm.total)
            if sp is not None:
                sp.emit(ctx.rank, "lapi", "amsend", "hdr_handler", t_hh,
                        thread.sim.now, parent=asm.origin, bytes=asm.total)
            # Flush any data that outraced the first packet out of the
            # stash (second copy -- the price of early arrival).
            if asm.stash:
                t_fl = thread.sim.now
                for offset, payload in asm.stash:
                    yield from thread.execute(cfg.copy_cost(len(payload)))
                    self.lapi.memory.write(asm.buf_addr + offset, payload)
                    asm.placed(len(payload))
                if sp is not None:
                    sp.emit(ctx.rank, "lapi", "amsend", "copy", t_fl,
                            thread.sim.now, parent=asm.origin,
                            bytes=sum(len(p) for _, p in asm.stash),
                            stash_flush=True)
                asm.stash.clear()

        payload = pkt.payload
        if payload:
            if sp is not None:
                t_cp = thread.sim.now
            yield from thread.execute(cfg.copy_cost(len(payload)))
            if sp is not None:
                sp.emit(ctx.rank, "lapi", "amsend", "copy", t_cp,
                        thread.sim.now, parent=sp.origin_of(pkt),
                        bytes=len(payload))
            if asm.ready:
                self.lapi.memory.write(asm.buf_addr + pkt.info["offset"],
                                       payload)
                asm.placed(len(payload))
            else:
                # Outran the first packet: hold in LAPI-internal buffers
                # (the copy above is the stash copy).
                asm.stash.append((pkt.info["offset"], payload))
                if self.ooo_depth is not None:
                    self.ooo_depth.observe(float(len(asm.stash)))
        if asm.complete:
            del self.recvs[asm.key]
            yield from self._message_complete(thread, asm)

    def header_handler(self, thread: "Thread", src: int, handler_id: int,
                       uhdr: bytes, total_len: int) -> Generator:
        """Run header handler ``handler_id`` for an active message of
        ``total_len`` bytes from ``src`` (or from this task, on its own
        thread); returns its checked ``(buf_addr, cmpl_fn, user_info)``."""
        yield from thread.execute(self.config.lapi_hdr_handler_cost)
        self.ctx.stats.hdr_handlers_run += 1
        handler = self.ctx.handler_by_id(handler_id)
        reply = handler(self.lapi.task, src, uhdr, total_len)
        if not (isinstance(reply, tuple) and len(reply) == 3):
            raise LapiError(
                "header handler must return (buf_addr, completion_handler,"
                f" user_info); got {reply!r}")
        buf_addr, cmpl_fn, user_info = reply
        if total_len > 0 and buf_addr is None:
            # Section 5.3.1: the header handler cannot block or return a
            # NULL pointer when the message carries data.
            raise LapiError(
                "header handler returned no buffer for a message carrying"
                f" {total_len} bytes of user data")
        return buf_addr, cmpl_fn, user_info

    def _message_complete(self, thread: "Thread",
                          asm: RecvAssembly) -> Generator:
        """All bytes of an active message are in place at the target."""
        if asm.cmpl_fn is None:
            yield from self._signal_completion(thread, asm)
            return
        sp = self.lapi.spans
        cs_sid = None
        if sp is not None:
            cs_sid = sp.open(self.ctx.rank, "lapi", "amsend",
                             thread.sim.now, phase="cmpl_handler",
                             parent=asm.origin, bytes=asm.total)
        yield from thread.execute(self.config.lapi_cmpl_handler_cost)

        def body(hthread):
            if sp is not None:
                # Nested operations issued from the handler (e.g. GA
                # reply puts) parent under the handler span.
                hthread.span_parent = cs_sid
            return user_steps(asm.cmpl_fn(self.lapi.task, asm.user_info))

        def then(hthread):
            self.ctx.stats.cmpl_handlers_run += 1
            if sp is not None:
                sp.close(cs_sid, hthread.sim.now)
            return self._signal_completion(hthread, asm)

        self.lapi.run_handler("cmpl", body, then)

    def _signal_completion(self, thread: "Thread", asm: RecvAssembly,
                           counted: bool = False) -> Generator:
        """A message is in place: bump the counter it names (a put or
        AM's target counter, a get's origin counter), then notify a put
        or AM's origin (its cmpl counter) or retire a get at its origin.

        ``counted``: the counter update was already charged, on the
        tail of the copy that completed the message.
        """
        cfg = self.config
        ctx = self.ctx
        sp = self.lapi.spans
        cntr = asm.org_cntr
        if cntr is not None or asm.tgt_cntr_id is not None:
            if counted:
                t_cu = thread.burst_ends[0]
            else:
                t_cu = thread.sim.now
                yield from thread.execute(cfg.lapi_counter_update)
            if sp is not None:
                sp.emit(ctx.rank, "lapi", _MTYPE_OP[asm.mtype],
                        "counter_update", t_cu, thread.sim.now,
                        parent=asm.origin)
            if cntr is None:
                cntr = ctx.counter_by_id(asm.tgt_cntr_id)
            cntr.add(1)
        if asm.cmpl_cntr_id is not None:
            yield from thread.execute(cfg.lapi_ack_cost)
            held = ctx.cmpl_held.get((asm.src, asm.cmpl_cntr_id))
            if held is None:
                self._send_cmpl(asm.src, asm.cmpl_cntr_id, 1, asm.origin)
            else:
                if held[0] == 0:
                    held[1] = asm.origin
                held[0] += 1
        if asm.mtype == PacketKind.MSG_GET_REP:
            ctx.op_completed(asm.src)

    def _send_cmpl(self, origin: int, cid: int, count: int,
                   span: Optional[int]) -> None:
        """Notify ``origin`` that ``count`` messages naming its counter
        ``cid`` completed here.  Until the notice is acknowledged, later
        completions for the pair are held (:attr:`LapiContext.cmpl_held`),
        and its acknowledgement sends one notice carrying them all, so
        at most one notice per pair is ever in flight.  Held counts die
        with the origin (its breaker opens) or with this node's restart.
        """
        ctx = self.ctx
        key = (origin, cid)
        held = [0, None]
        transport = self.lapi.transport
        if transport.peer_health(origin) != UNREACHABLE:
            # A suppressed notice is never acknowledged: hold nothing.
            ctx.cmpl_held[key] = held

        def acked() -> None:
            del ctx.cmpl_held[key]
            if held[0] and transport.peer_health(origin) != UNREACHABLE:
                self._send_cmpl(origin, cid, held[0], held[1])

        cmpl = control_packet(self.config, ctx.rank, origin,
                              PacketKind.CMPL, cntr_id=cid, count=count)
        sp = self.lapi.spans
        if sp is not None:
            sp.bind_packet(cmpl, span, "cmpl")
        transport.send_control(cmpl, on_ack=acked)

    # ------------------------------------------------------------------
    # GET servicing
    # ------------------------------------------------------------------
    def _get_request(self, pkt: "Packet") -> None:
        """Spawn a service thread to stream the requested data back.

        The dispatcher itself must not block on the send window, so the
        (window-limited) reply stream runs on a HANDLER-priority thread.
        """
        lapi = self.lapi
        cfg = self.config
        info = dict(pkt.info)
        src = pkt.src
        sp = lapi.spans
        origin = sp.origin_of(pkt) if sp is not None else None

        def body(thread):
            length = info["length"]
            runs = info.get("runs")
            # The reply's bytes are one snapshot, read when the request
            # is serviced; each packet is cut from it as it is sent.
            if runs is None:
                dest = None
                data = lapi.memory.read(info["tgt_addr"], length)
                npkts = packet_count(length, cfg.lapi_payload)
            else:
                # A strided request's runs land straight in the
                # origin's final addresses.
                source, dest = split_runs(runs)
                data = read_runs(lapi.memory, source)
                npkts = strided_packet_count(dest, cfg)
            yield from send_message(
                lapi, thread, src, npkts,
                lambda uid: data_packets(lapi.ctx.rank, src, info["msg_id"],
                                         PacketKind.MSG_GET_REP, data, cfg,
                                         uid, dest),
                "get", origin, length)
            # Target counter: data has been copied out of target memory
            # (its update notifies progress waiters).
            if info.get("tgt_cntr_id") is not None:
                yield from thread.execute(cfg.lapi_counter_update)
                lapi.ctx.counter_by_id(info["tgt_cntr_id"]).add(1)

        lapi.task.node.cpu.spawn(body, name=f"lapi{self.ctx.rank}.getsvc",
                                 priority=HANDLER)

    # ------------------------------------------------------------------
    # RMW
    # ------------------------------------------------------------------
    def _rmw_request(self, thread: "Thread", pkt: "Packet") -> Generator:
        """Apply an atomic op to target memory; reply with the old value.

        Atomicity holds because all RMWs at a target are applied by its
        dispatcher under the dispatch lock.
        """
        from .rmw import apply_rmw_local

        cfg = self.config
        info = pkt.info
        yield from thread.execute(cfg.mutex_cost + 0.5)
        prev = apply_rmw_local(self.lapi.memory, info["op"],
                               info["tgt_addr"], info["in_val"],
                               info.get("cmp_val"))
        self.lapi.transport.send_control(control_packet(
            cfg, self.ctx.rank, pkt.src, PacketKind.RMW_REP,
            req_id=info["req_id"], prev_value=prev))

    def _rmw_reply(self, thread: "Thread", pkt: "Packet") -> Generator:
        cfg = self.config
        pending = self.ctx.pending_rmws.pop(pkt.info["req_id"], None)
        if pending is None:
            raise LapiError(
                f"task {self.ctx.rank}: RMW reply for unknown request"
                f" {pkt.info['req_id']}")
        pending.prev_value = pkt.info["prev_value"]
        pending.done = True
        if pending.prev_addr is not None:
            yield from thread.execute(cfg.copy_cost(8))
            self.lapi.memory.write_i64(pending.prev_addr,
                                       pending.prev_value)
        if pending.org_cntr is not None:
            yield from thread.execute(cfg.lapi_counter_update)
            pending.org_cntr.add(1)
        self.ctx.op_completed(pending.target)
