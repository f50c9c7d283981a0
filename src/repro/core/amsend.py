"""Origin-side implementation of LAPI_Amsend.

The active-message primitive of section 2.1: ships a user header and
optional user data to the target, where a registered *header handler*
names the receive buffer and an optional *completion handler* runs once
all packets have landed.  Origin-side mechanics mirror put (same
internal-copy / acknowledgement counter semantics); what differs is the
first packet, which carries the uhdr and the handler id.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Generator, Optional, Union

from ..errors import LapiError
from ..machine.packet import packet_count, reserve_uids
from .context import SendState
from .protocol import am_first_room, am_packet
from .putget import _make_send_complete, _origin_bursts

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .api import Lapi
    from .counters import LapiCounter

__all__ = ["do_amsend"]


def do_amsend(lapi: "Lapi", target: int, handler_id: int, uhdr: bytes,
              udata: Union[int, bytes, None], udata_len: int,
              tgt_cntr: Optional[int],
              org_cntr: Optional["LapiCounter"],
              cmpl_cntr: Optional["LapiCounter"]) -> Generator:
    """LAPI_Amsend: send ``uhdr`` (+ ``udata_len`` bytes of data) to the
    header handler ``handler_id`` registered at ``target``.

    ``udata`` may be a local memory address (the faithful interface) or
    a ``bytes`` object (convenience for tests and internal protocols);
    ``None`` sends a data-less active message.
    """
    cfg = lapi.config
    ctx = lapi.ctx
    thread = lapi.current_thread()
    if not (0 <= target < ctx.size):
        raise LapiError(
            f"target {target} outside job of {ctx.size} tasks")
    if udata_len < 0:
        raise LapiError(f"negative udata_len {udata_len}")
    sp = lapi.spans
    op_sid = None
    t_call = lapi.sim.now
    if sp is not None:
        op_sid = sp.open(ctx.rank, "lapi", "amsend", t_call,
                         parent=getattr(thread, "span_parent", None),
                         dst=target, bytes=udata_len, handler=handler_id)
    local = target == ctx.rank
    small = udata_len <= cfg.lapi_retrans_copy_limit
    if local:
        yield from thread.execute(cfg.lapi_call_overhead)
        if sp is not None:
            sp.emit(ctx.rank, "lapi", "amsend", "call", t_call,
                    lapi.sim.now, parent=op_sid, bytes=udata_len)
    else:
        yield from _origin_bursts(
            lapi, thread, "amsend", op_sid, t_call, udata_len,
            cfg.copy_cost(udata_len + len(uhdr)) if small else None,
            org_cntr)
    ctx.stats.amsends += 1
    ctx.stats.bytes_sent += udata_len

    if udata is None:
        if udata_len:
            raise LapiError("udata_len nonzero but no udata supplied")
        data = b""
    elif isinstance(udata, (bytes, bytearray, memoryview)):
        data = bytes(udata[:udata_len])
        if len(data) != udata_len:
            raise LapiError(
                f"udata holds {len(data)} bytes, expected {udata_len}")
    else:
        data = lapi.memory.read(udata, udata_len) if udata_len else b""

    if local:
        yield from _local_amsend(lapi, thread, handler_id, bytes(uhdr),
                                 data, tgt_cntr, org_cntr, cmpl_cntr)
        if sp is not None:
            sp.close(op_sid, lapi.sim.now, local=True)
        return

    msg_id = ctx.new_msg_id()
    cmpl_id = cmpl_cntr.id if cmpl_cntr is not None else None
    uhdr = bytes(uhdr)
    first_room = am_first_room(cfg, uhdr)
    chunk = cfg.lapi_payload
    header = cfg.lapi_header
    send_cost = cfg.lapi_pkt_send_cost
    npkts = packet_count(len(uhdr) + udata_len, chunk)
    uid0 = reserve_uids(npkts)
    if sp is not None:
        sp.bind_packets(uid0, npkts, op_sid, "amsend", udata_len,
                        msg_key=("lapi", ctx.rank, msg_id))

    state = SendState(msg_id, target, total_packets=npkts,
                      org_cntr=None if small else org_cntr,
                      org_counted=small)
    ctx.send_msgs[msg_id] = state
    ctx.op_issued(target)
    state.on_complete = _make_send_complete(lapi, state)
    # The first packet's send cost rode the origin chain unless an
    # origin-counter update ended it (see ``_origin_bursts``).
    charged = not (small and org_cntr is not None)
    if not charged:
        org_cntr.add(1)
    rank = ctx.rank
    send_data = lapi.transport.send_data
    on_ack = state.ack_one
    for i in range(npkts):
        if charged:
            charged = False
        else:
            yield from thread.execute(send_cost)
        yield from send_data(thread, am_packet(
            rank, target, msg_id, handler_id, uhdr, data, tgt_cntr,
            cmpl_id, chunk, header, first_room, i, uid0 + i),
            on_ack=on_ack)
    if sp is not None:
        sp.close(op_sid, lapi.sim.now, packets=npkts)


def _local_amsend(lapi: "Lapi", thread, handler_id: int, uhdr: bytes,
                  data: bytes, tgt_cntr: Optional[int],
                  org_cntr: Optional["LapiCounter"],
                  cmpl_cntr: Optional["LapiCounter"]) -> Generator:
    """Active message to self: handlers run locally, in order."""
    from ..machine.cpu import HANDLER

    cfg = lapi.config
    ctx = lapi.ctx
    ctx.stats.local_fastpaths += 1
    yield from thread.execute(cfg.lapi_hdr_handler_cost)
    ctx.stats.hdr_handlers_run += 1
    handler = ctx.handler_by_id(handler_id)
    reply = handler(lapi.task, ctx.rank, uhdr, len(data))
    from .dispatcher import Dispatcher
    buf_addr, cmpl_fn, user_info = Dispatcher._check_hh_reply(
        reply, len(data))
    if data:
        yield from thread.execute(cfg.copy_cost(len(data)))
        lapi.memory.write(buf_addr, data)

    if org_cntr is not None:
        org_cntr.add(1)

    def finish(hthread):
        if cmpl_fn is not None:
            ctx.stats.cmpl_handlers_run += 1
            result = cmpl_fn(lapi.task, user_info)
            if result is not None and hasattr(result, "send"):
                yield from result
            else:
                yield from hthread.execute(0.0)
        if tgt_cntr is not None:
            ctx.counter_by_id(tgt_cntr).add(1)
        if cmpl_cntr is not None:
            cmpl_cntr.add(1)

    ctx.active_handlers += 1

    def wrapped(hthread):
        try:
            yield from finish(hthread)
        finally:
            ctx.active_handlers -= 1
        # After the count drops: a gated ``term`` waits for zero.
        ctx.progress_ws.notify_all()

    thread.cpu.spawn(wrapped, name=f"lapi{ctx.rank}.localcmpl",
                     priority=HANDLER)
