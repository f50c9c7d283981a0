"""Origin-side implementation of LAPI_Amsend.

The active-message primitive of section 2.1: ships a user header and
optional user data to the target, where a registered *header handler*
names the receive buffer and an optional *completion handler* runs once
all packets have landed.  A remote active message is a put on the wire:
the same origin chain, internal-copy / acknowledgement counter
semantics and sender (:func:`repro.core.putget.send_message`); what
differs is the first packet, which carries the uhdr and the handler id.
Every argument is checked before anything is charged.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Generator, Optional, Union

from ..errors import LapiError
from ..machine.packet import packet_count
from .endpoint import user_steps
from .protocol import am_first_room, am_packets
from .putget import _origin_bursts, send_message

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
    uhdr = bytes(uhdr)
    first_room = am_first_room(cfg, uhdr)
    if udata is None:
        if udata_len:
            raise LapiError("udata_len nonzero but no udata supplied")
    elif isinstance(udata, (bytes, bytearray, memoryview)):
        if len(udata) < udata_len:
            raise LapiError(
                f"udata holds {len(udata)} bytes, expected {udata_len}")
    sp = lapi.spans
    op_sid = None
    t_call = lapi.sim.now
    if sp is not None:
        op_sid = sp.open(ctx.rank, "lapi", "amsend", t_call,
                         parent=getattr(thread, "span_parent", None),
                         dst=target, bytes=udata_len, handler=handler_id)
    local = target == ctx.rank
    if local:
        yield from thread.execute(cfg.lapi_call_overhead)
        if sp is not None:
            sp.emit(ctx.rank, "lapi", "amsend", "call", t_call,
                    lapi.sim.now, parent=op_sid, bytes=udata_len)
    else:
        small = udata_len <= cfg.lapi_retrans_copy_limit
        chained = yield from _origin_bursts(
            lapi, thread, "amsend", op_sid, t_call, udata_len,
            cfg.copy_cost(udata_len + len(uhdr)) if small else None,
            org_cntr)
    ctx.stats.amsends += 1
    ctx.stats.bytes_sent += udata_len

    if udata is None:
        data = b""
    elif isinstance(udata, (bytes, bytearray, memoryview)):
        data = bytes(udata[:udata_len])
    else:
        data = lapi.memory.read(udata, udata_len) if udata_len else b""

    if local:
        yield from _local_amsend(lapi, thread, handler_id, uhdr, data,
                                 tgt_cntr, org_cntr, cmpl_cntr)
        if sp is not None:
            sp.close(op_sid, lapi.sim.now, local=True)
        return

    msg_id = ctx.new_msg_id()
    rank = ctx.rank
    cmpl_id = cmpl_cntr.id if cmpl_cntr is not None else None
    yield from send_message(
        lapi, thread, target,
        packet_count(len(uhdr) + udata_len, cfg.lapi_payload),
        lambda uid: am_packets(rank, target, msg_id, handler_id, uhdr,
                               data, first_room, cfg, uid,
                               tgt_cntr_id=tgt_cntr, cmpl_cntr_id=cmpl_id),
        "amsend", op_sid, udata_len, tracked=True, org_cntr=org_cntr,
        chained=chained)


def _local_amsend(lapi: "Lapi", thread, handler_id: int, uhdr: bytes,
                  data: bytes, tgt_cntr: Optional[int],
                  org_cntr: Optional["LapiCounter"],
                  cmpl_cntr: Optional["LapiCounter"]) -> Generator:
    """Active message to self: handlers run locally, in order."""
    ctx = lapi.ctx
    ctx.stats.local_fastpaths += 1
    buf_addr, cmpl_fn, user_info = yield from lapi.dispatcher.header_handler(
        thread, ctx.rank, handler_id, uhdr, len(data))
    if data:
        yield from thread.execute(lapi.config.copy_cost(len(data)))
        lapi.memory.write(buf_addr, data)
        ctx.stats.bytes_received += len(data)

    if org_cntr is not None:
        org_cntr.add(1)

    def body(hthread):
        if cmpl_fn is not None:
            ctx.stats.cmpl_handlers_run += 1
            yield from user_steps(cmpl_fn(lapi.task, user_info))
        if tgt_cntr is not None:
            ctx.counter_by_id(tgt_cntr).add(1)
        if cmpl_cntr is not None:
            cmpl_cntr.add(1)

    lapi.run_handler("localcmpl", body)
