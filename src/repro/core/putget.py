"""Origin-side implementation of LAPI_Put and LAPI_Get.

Put and Get are the remote-memory-copy (RMC) primitives of section 2.2:
unilateral, non-blocking, unordered.  Putv and Getv, the non-contiguous
interface section 6 proposes, are the same calls with a run list: one
message whose packets carry the runs they land in.  The origin-side
work is: charge
the call overhead, snapshot the data and reserve its packet uids (for
put; each packet is cut from the snapshot just before it is sent) or
issue a request (for get), register fence/counter bookkeeping, and hand
packets to the reliable transport.  Target-side placement happens in
the dispatcher.

Origin-counter semantics (section 2.3): for a put no larger than the
internal-retransmit-copy limit, LAPI copies the data into its own
buffers and the origin counter fires before the call returns ("data is
safely stored away"); for larger puts the user buffer must survive until
every packet is acknowledged, so the origin counter fires on the last
ack.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Generator, Optional, Sequence

from ..errors import LapiError
from ..machine.packet import packet_count, reserve_uids
from .constants import PacketKind
from .context import GetPending, SendState
from .protocol import (GETV_RUNS_PER_PACKET, control_packet, put_packet,
                       read_runs, split_runs, strided_packet_count,
                       strided_packets, write_runs)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .api import Lapi
    from .counters import LapiCounter

__all__ = ["do_put", "do_get", "do_putv", "do_getv"]

#: A run list: ``(tgt_addr, org_addr, nbytes)`` triples.
Runs = Sequence[tuple[int, int, int]]


def _validate_common(lapi: "Lapi", target: int, length: int) -> None:
    if not (0 <= target < lapi.ctx.size):
        raise LapiError(
            f"target {target} outside job of {lapi.ctx.size} tasks")
    if length < 0:
        raise LapiError(f"negative transfer length {length}")


def _run_total(runs: Runs) -> int:
    """Bytes a Putv/Getv moves; an empty or non-positive run is an
    error."""
    if not runs:
        raise LapiError("vector operation needs at least one run")
    for run in runs:
        if run[-1] <= 0:
            raise LapiError(f"vector run with non-positive length:"
                            f" {run}")
    return sum(run[-1] for run in runs)


def do_put(lapi: "Lapi", target: int, length: int, tgt_addr: int,
           org_addr: int, tgt_cntr: Optional[int],
           org_cntr: Optional["LapiCounter"],
           cmpl_cntr: Optional["LapiCounter"],
           runs: Optional[Runs] = None) -> Generator:
    """LAPI_Put: copy ``length`` bytes from local ``org_addr`` to
    ``tgt_addr`` in ``target``'s address space (or, given ``runs``, the
    runs of a :func:`do_putv`).  Non-blocking: returns after the
    message is staged/queued (the "pipeline latency" of section 4)."""
    cfg = lapi.config
    ctx = lapi.ctx
    thread = lapi.current_thread()
    _validate_common(lapi, target, length)
    sp = lapi.spans
    op_sid = None
    t_call = lapi.sim.now
    if sp is not None:
        op_sid = sp.open(ctx.rank, "lapi", "put", t_call,
                         parent=getattr(thread, "span_parent", None),
                         dst=target, bytes=length)

    if target == ctx.rank:
        yield from thread.execute(cfg.lapi_call_overhead)
        if sp is not None:
            sp.emit(ctx.rank, "lapi", "put", "call", t_call, lapi.sim.now,
                    parent=op_sid, bytes=length)
        ctx.stats.puts += 1
        ctx.stats.bytes_sent += length
        dest = None
        if runs is not None:
            dest, source = split_runs(runs)
            data = read_runs(lapi.memory, source)
        else:
            data = lapi.memory.read(org_addr, length) if length else b""
        yield from _local_put(lapi, thread, data, tgt_addr, dest,
                              tgt_cntr, org_cntr, cmpl_cntr)
        if sp is not None:
            sp.close(op_sid, lapi.sim.now, local=True)
        return

    small = length <= cfg.lapi_retrans_copy_limit
    # A small message's origin counter fires once the copy is done; a
    # strided put's fires uncharged, so its chain still ends with the
    # first packet's send cost.
    counted = small and org_cntr is not None
    yield from _origin_bursts(lapi, thread, "put", op_sid, t_call, length,
                              cfg.copy_cost(length) if small else None,
                              org_cntr if runs is None else None)
    ctx.stats.puts += 1
    ctx.stats.bytes_sent += length
    msg_id = ctx.new_msg_id()
    cmpl_id = cmpl_cntr.id if cmpl_cntr is not None else None
    chunk = cfg.lapi_payload
    header = cfg.lapi_header
    send_cost = cfg.lapi_pkt_send_cost
    rank = ctx.rank
    packets = None
    if runs is None:
        data = lapi.memory.read(org_addr, length) if length else b""
        npkts = packet_count(length, chunk)
        uid0 = reserve_uids(npkts)
    else:
        dest, source = split_runs(runs)
        npkts = strided_packet_count(dest, cfg)
        uid0 = reserve_uids(npkts)
        packets = strided_packets(
            rank, target, msg_id, PacketKind.MSG_PUT,
            read_runs(lapi.memory, source), dest, cfg, uid0,
            tgt_cntr_id=tgt_cntr, cmpl_cntr_id=cmpl_id)
    if sp is not None:
        sp.bind_packets(uid0, npkts, op_sid, "put", length,
                        msg_key=("lapi", ctx.rank, msg_id))
    state = SendState(msg_id, target, total_packets=npkts,
                      org_cntr=None if small else org_cntr,
                      org_counted=small)
    ctx.send_msgs[msg_id] = state
    ctx.op_issued(target)
    state.on_complete = _make_send_complete(lapi, state)
    # The first packet's send cost rode the origin chain unless an
    # origin-counter update ended it.
    charged = not (counted and runs is None)
    if counted:
        org_cntr.add(1)
    send_data = lapi.transport.send_data
    on_ack = state.ack_one
    for i in range(npkts):
        if charged:
            charged = False
        else:
            yield from thread.execute(send_cost)
        yield from send_data(thread, put_packet(
            rank, target, msg_id, data, tgt_addr, tgt_cntr, cmpl_id,
            chunk, header, i, uid0 + i) if packets is None
            else next(packets), on_ack=on_ack)
    if sp is not None:
        sp.close(op_sid, lapi.sim.now, packets=npkts)


def _origin_bursts(lapi: "Lapi", thread, op: str, op_sid, t_call: float,
                   nbytes: int, copy_cost: Optional[float],
                   org_cntr: Optional["LapiCounter"]) -> Generator:
    """Charge a remote put/amsend up to its first packet: one wake-up.

    Call overhead, the copy into LAPI's internal (retransmission)
    buffers for a small message (``copy_cost``; the user buffer is
    reusable once it is done) and the first packet's send cost run back
    to back with nothing observable in between, so they chain.  An
    origin counter breaks the chain: its update burst ends it, and the
    caller charges the first packet's send cost with the others.
    """
    cfg = lapi.config
    costs = [cfg.lapi_call_overhead]
    if copy_cost is not None:
        costs.append(copy_cost)
    counted = copy_cost is not None and org_cntr is not None
    costs.append(cfg.lapi_counter_update if counted
                 else cfg.lapi_pkt_send_cost)
    yield from thread.execute(*costs)
    sp = lapi.spans
    if sp is not None:
        rank = lapi.ctx.rank
        ends = thread.burst_ends
        sp.emit(rank, "lapi", op, "call", t_call, ends[0], parent=op_sid,
                bytes=nbytes)
        if copy_cost is not None:
            sp.emit(rank, "lapi", op, "copy", ends[0], ends[1],
                    parent=op_sid, bytes=nbytes)
        if counted:
            sp.emit(rank, "lapi", op, "counter_update", ends[1], ends[2],
                    parent=op_sid)


def _make_send_complete(lapi: "Lapi", state: SendState):
    def on_complete() -> None:
        del lapi.ctx.send_msgs[state.msg_id]
        if state.org_cntr is not None:
            state.org_cntr.add(1)
        lapi.ctx.op_completed(state.dst)
    return on_complete


def _local_put(lapi: "Lapi", thread, data: bytes, tgt_addr: int,
               dest: Optional[list[tuple[int, int]]],
               tgt_cntr: Optional[int],
               org_cntr: Optional["LapiCounter"],
               cmpl_cntr: Optional["LapiCounter"]) -> Generator:
    """Put to self: one memcpy (into ``tgt_addr``, or run by run into
    the ``dest`` runs of a strided put), all three counters fire
    locally."""
    cfg = lapi.config
    ctx = lapi.ctx
    ctx.stats.local_fastpaths += 1
    if data:
        yield from thread.execute(cfg.copy_cost(len(data)))
        if dest is None:
            lapi.memory.write(tgt_addr, data)
        else:
            write_runs(lapi.memory, dest, data)
    for cntr in (org_cntr, cmpl_cntr):
        if cntr is not None:
            cntr.add(1)
    if tgt_cntr is not None:
        ctx.counter_by_id(tgt_cntr).add(1)
    ctx.progress_ws.notify_all()


def do_get(lapi: "Lapi", target: int, length: int, tgt_addr: int,
           org_addr: int, tgt_cntr: Optional[int],
           org_cntr: Optional["LapiCounter"],
           runs: Optional[Runs] = None) -> Generator:
    """LAPI_Get: pull ``length`` bytes from ``tgt_addr`` at ``target``
    into local ``org_addr`` (or, given ``runs``, the runs of a
    :func:`do_getv`).  Non-blocking: returns once the request is
    queued; ``org_cntr`` fires when the data has arrived."""
    cfg = lapi.config
    ctx = lapi.ctx
    thread = lapi.current_thread()
    _validate_common(lapi, target, length)
    sp = lapi.spans
    op_sid = None
    t_call = lapi.sim.now
    if sp is not None:
        op_sid = sp.open(ctx.rank, "lapi", "get", t_call,
                         parent=getattr(thread, "span_parent", None),
                         src=target, bytes=length)
    call_cost = cfg.lapi_call_overhead + cfg.lapi_get_extra

    if target == ctx.rank:
        yield from thread.execute(call_cost)
        if sp is not None:
            sp.emit(ctx.rank, "lapi", "get", "call", t_call, lapi.sim.now,
                    parent=op_sid, bytes=length)
        ctx.stats.gets += 1
        ctx.stats.local_fastpaths += 1
        if runs is not None:
            source, dest = split_runs(runs)
            data = read_runs(lapi.memory, source)
            yield from thread.execute(cfg.copy_cost(length))
            write_runs(lapi.memory, dest, data)
        elif length:
            data = lapi.memory.read(tgt_addr, length)
            yield from thread.execute(cfg.copy_cost(length))
            lapi.memory.write(org_addr, data)
        if org_cntr is not None:
            org_cntr.add(1)
        if tgt_cntr is not None:
            ctx.counter_by_id(tgt_cntr).add(1)
        ctx.progress_ws.notify_all()
        if sp is not None:
            sp.close(op_sid, lapi.sim.now, local=True)
        return

    # Call overhead and the request packet's send cost: one wake-up.
    yield from thread.execute(call_cost, cfg.lapi_pkt_send_cost)
    if sp is not None:
        sp.emit(ctx.rank, "lapi", "get", "call", t_call,
                thread.burst_ends[0], parent=op_sid, bytes=length)
    ctx.stats.gets += 1
    msg_id = ctx.new_msg_id()
    ctx.pending_gets[msg_id] = GetPending(msg_id, target, org_addr,
                                          length, org_cntr)
    ctx.op_issued(target)
    if runs is None:
        req = control_packet(
            cfg, ctx.rank, target, PacketKind.GET_REQ,
            msg_id=msg_id, tgt_addr=tgt_addr, length=length,
            tgt_cntr_id=tgt_cntr)
        if sp is not None:
            sp.bind_packet(req, op_sid, "get", length)
            sp.close(op_sid, lapi.sim.now)
        lapi.transport.send_control(req)
        return
    # The run list travels GETV_RUNS_PER_PACKET runs to a request; the
    # target serves each request as a reply stream of its own.
    for i in range(0, len(runs), GETV_RUNS_PER_PACKET):
        if i:
            yield from thread.execute(cfg.lapi_pkt_send_cost)
        group = list(runs[i:i + GETV_RUNS_PER_PACKET])
        nbytes = sum(n for _, _, n in group)
        req = control_packet(cfg, ctx.rank, target, PacketKind.GET_REQ,
                             runs=group, msg_id=msg_id, length=nbytes)
        if sp is not None:
            sp.bind_packet(req, op_sid, "get", nbytes)
        lapi.transport.send_control(req)
    if sp is not None:
        sp.close(op_sid, lapi.sim.now)


def do_putv(lapi: "Lapi", target: int, runs: Runs,
            tgt_cntr: Optional[int], org_cntr: Optional["LapiCounter"],
            cmpl_cntr: Optional["LapiCounter"]) -> Generator:
    """LAPI_Putv: one put of the ``(tgt_addr, org_addr, nbytes)`` runs,
    with neither a call per run nor a pack/unpack copy."""
    return do_put(lapi, target, _run_total(runs), None, None, tgt_cntr,
                  org_cntr, cmpl_cntr, runs)


def do_getv(lapi: "Lapi", target: int, runs: Runs,
            org_cntr: Optional["LapiCounter"]) -> Generator:
    """LAPI_Getv: one get of the ``(tgt_addr, org_addr, nbytes)`` runs,
    each landing straight in its origin address."""
    return do_get(lapi, target, _run_total(runs), None, None, None,
                  org_cntr, runs)
