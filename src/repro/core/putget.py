"""Origin side of LAPI's data messages: Put, Get, and the one sender.

Put and Get are the remote-memory-copy (RMC) primitives of section 2.2:
unilateral, non-blocking, unordered.  Putv and Getv, the non-contiguous
interface section 6 proposes, are the same calls with a run list.  A
put, a get's reply and an active message (``amsend.py``) are each a
stream of self-describing packets cut from one data snapshot, sent by
:func:`send_message`; a put or get to self is one local copy.
Target-side placement happens in the dispatcher.

Origin-counter semantics (section 2.3): for a put no larger than the
internal-retransmit-copy limit, LAPI copies the data into its own
buffers and the origin counter fires before the call returns ("data is
safely stored away"); for larger puts the user buffer must survive until
every packet is acknowledged, so the origin counter fires on the last
ack.
"""

from __future__ import annotations

from typing import (TYPE_CHECKING, Callable, Generator, Iterator, Optional,
                    Sequence)

from ..errors import LapiError
from ..machine.packet import packet_count
from .constants import PacketKind
from .context import RecvAssembly
from .endpoint import SendRecord
from .protocol import (GETV_RUNS_PER_PACKET, control_packet, data_packets,
                       read_runs, split_runs, strided_packet_count,
                       write_runs)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..machine.packet import Packet
    from .api import Lapi
    from .counters import LapiCounter

__all__ = ["do_put", "do_get", "send_message"]

#: A run list: ``(tgt_addr, org_addr, nbytes)`` triples.
Runs = Sequence[tuple[int, int, int]]


def _length(lapi: "Lapi", target: int, length: int,
            runs: Optional[Runs]) -> int:
    """Bytes a put or get moves: ``length``, or the total of a Putv or
    Getv's ``runs``.  Rejects a target outside the job, a negative
    length, and an empty run list or a non-positive run."""
    if not (0 <= target < lapi.ctx.size):
        raise LapiError(
            f"target {target} outside job of {lapi.ctx.size} tasks")
    if runs is None:
        if length < 0:
            raise LapiError(f"negative transfer length {length}")
        return length
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
    ``tgt_addr`` in ``target``'s address space -- or, for LAPI_Putv,
    each ``(tgt_addr, org_addr, nbytes)`` run of ``runs``, with neither
    a call per run nor a pack/unpack copy.  Non-blocking: returns after
    the message is staged/queued (the "pipeline latency" of section
    4)."""
    cfg = lapi.config
    ctx = lapi.ctx
    thread = lapi.current_thread()
    length = _length(lapi, target, length, runs)
    sp = lapi.spans
    op_sid = None
    t_call = lapi.sim.now
    if sp is not None:
        op_sid = sp.open(ctx.rank, "lapi", "put", t_call,
                         parent=getattr(thread, "span_parent", None),
                         dst=target, bytes=length)

    if target == ctx.rank:
        yield from _local_copy(lapi, thread, "put", op_sid, t_call,
                               cfg.lapi_call_overhead, length, tgt_addr,
                               org_addr, runs, tgt_cntr, org_cntr,
                               cmpl_cntr)
        return

    small = length <= cfg.lapi_retrans_copy_limit
    chained = yield from _origin_bursts(
        lapi, thread, "put", op_sid, t_call, length,
        cfg.copy_cost(length) if small else None, org_cntr,
        strided=runs is not None)
    ctx.stats.puts += 1
    ctx.stats.bytes_sent += length
    msg_id = ctx.new_msg_id()
    if runs is None:
        dest = None
        data = lapi.memory.read(org_addr, length) if length else b""
        npkts = packet_count(length, cfg.lapi_payload)
    else:
        dest, source = split_runs(runs)
        data = read_runs(lapi.memory, source)
        npkts = strided_packet_count(dest, cfg)
    rank = ctx.rank
    cmpl_id = cmpl_cntr.id if cmpl_cntr is not None else None
    yield from send_message(
        lapi, thread, target, npkts,
        lambda uid: data_packets(rank, target, msg_id, PacketKind.MSG_PUT,
                                 data, cfg, uid, dest, tgt_addr=tgt_addr,
                                 tgt_cntr_id=tgt_cntr,
                                 cmpl_cntr_id=cmpl_id),
        "put", op_sid, length, tracked=True, org_cntr=org_cntr,
        chained=chained)


def _origin_bursts(lapi: "Lapi", thread, op: str, op_sid, t_call: float,
                   nbytes: int, copy_cost: Optional[float],
                   org_cntr: Optional["LapiCounter"],
                   strided: bool = False) -> Generator:
    """Charge a remote put/amsend up to its first packet: one wake-up.

    Call overhead, the copy into LAPI's internal (retransmission)
    buffers for a small message (``copy_cost``; the user buffer is
    reusable once it is done) and the first packet's send cost run back
    to back with nothing observable in between, so they chain.  The
    update burst of a small message's origin counter ends the chain
    instead.  Returns whether the first packet's send cost rode it.
    """
    cfg = lapi.config
    # A strided put's origin counter fires uncharged, with no update
    # burst: a term or a bug, an open question (ROADMAP item 3).
    update = (copy_cost is not None and org_cntr is not None
              and not strided)
    costs = [cfg.lapi_call_overhead]
    if copy_cost is not None:
        costs.append(copy_cost)
    costs.append(cfg.lapi_counter_update if update
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
        if update:
            sp.emit(rank, "lapi", op, "counter_update", ends[1], ends[2],
                    parent=op_sid)
    return not update


def send_message(lapi: "Lapi", thread, dst: int, npkts: int,
                 packets: Callable[[int], Iterator["Packet"]], op: str,
                 parent: Optional[int], nbytes: int, *,
                 tracked: bool = False,
                 org_cntr: Optional["LapiCounter"] = None,
                 chained: bool = False) -> Generator:
    """Send one data message: a put, an active message or a get reply.

    ``packets(uid)`` yields its ``npkts`` packets under the uids
    reserved here, bound to span ``parent`` as ``op`` moving ``nbytes``;
    the endpoint's sender (:meth:`Endpoint.send_packets
    <repro.core.endpoint.Endpoint.send_packets>`) streams them, the
    first without a send cost if it rode the caller's origin chain
    (``chained``).  A put or amsend is ``tracked``: its
    :class:`~repro.core.endpoint.SendRecord` keeps it outstanding for
    fence until its last packet is acknowledged or completed in error,
    and ``org_cntr`` fires then -- or now, for a small message already
    copied.  A get reply only streams; a small one is charged its copy
    into the retransmission buffers here.
    """
    cfg = lapi.config
    ctx = lapi.ctx
    small = nbytes <= cfg.lapi_retrans_copy_limit
    uid = lapi.reserve_message(npkts, parent, op, nbytes)
    record = None
    if not tracked:
        if small:
            yield from thread.execute(cfg.copy_cost(nbytes))
    else:
        owed = None if small else org_cntr

        def on_complete() -> None:
            if owed is not None:
                owed.add(1)
            ctx.op_completed(dst)

        record = SendRecord(npkts, on_complete)
        ctx.op_issued(dst)
        if small and org_cntr is not None:
            org_cntr.add(1)
    yield from lapi.send_packets(thread, packets(uid), record=record,
                                 chained=chained)
    if tracked and lapi.spans is not None:
        lapi.spans.close(parent, lapi.sim.now, packets=npkts)


def _local_copy(lapi: "Lapi", thread, op: str, op_sid, t_call: float,
                call_cost: float, length: int, tgt_addr: int,
                org_addr: int, runs: Optional[Runs],
                tgt_cntr: Optional[int], org_cntr: Optional["LapiCounter"],
                cmpl_cntr: Optional["LapiCounter"] = None) -> Generator:
    """A put or get to self: after the call overhead, one memcpy from
    the origin to the target address (a put) or back (a get), run by
    run for Putv/Getv; every counter of the call fires locally."""
    ctx = lapi.ctx
    yield from thread.execute(call_cost)
    sp = lapi.spans
    if sp is not None:
        sp.emit(ctx.rank, "lapi", op, "call", t_call, lapi.sim.now,
                parent=op_sid, bytes=length)
    if runs is None:
        runs = [(tgt_addr, org_addr, length)] if length else []
    dest, source = split_runs(runs)
    if op == "put":
        ctx.stats.puts += 1
        ctx.stats.bytes_sent += length
    else:
        ctx.stats.gets += 1
        source, dest = dest, source
    ctx.stats.local_fastpaths += 1
    data = read_runs(lapi.memory, source)
    if data:
        yield from thread.execute(lapi.config.copy_cost(len(data)))
        write_runs(lapi.memory, dest, data)
    for cntr in (org_cntr, cmpl_cntr):
        if cntr is not None:
            cntr.add(1)
    if tgt_cntr is not None:
        ctx.counter_by_id(tgt_cntr).add(1)
    ctx.progress_ws.notify_all()
    if sp is not None:
        sp.close(op_sid, lapi.sim.now, local=True)


def do_get(lapi: "Lapi", target: int, length: int, tgt_addr: int,
           org_addr: int, tgt_cntr: Optional[int],
           org_cntr: Optional["LapiCounter"],
           runs: Optional[Runs] = None) -> Generator:
    """LAPI_Get: pull ``length`` bytes from ``tgt_addr`` at ``target``
    into local ``org_addr`` -- or, for LAPI_Getv, each ``(tgt_addr,
    org_addr, nbytes)`` run of ``runs``, straight into its origin
    address.  Non-blocking: returns once the request is queued;
    ``org_cntr`` fires when the data has arrived."""
    cfg = lapi.config
    ctx = lapi.ctx
    thread = lapi.current_thread()
    length = _length(lapi, target, length, runs)
    sp = lapi.spans
    op_sid = None
    t_call = lapi.sim.now
    if sp is not None:
        op_sid = sp.open(ctx.rank, "lapi", "get", t_call,
                         parent=getattr(thread, "span_parent", None),
                         src=target, bytes=length)
    call_cost = cfg.lapi_call_overhead + cfg.lapi_get_extra

    if target == ctx.rank:
        yield from _local_copy(lapi, thread, "get", op_sid, t_call,
                               call_cost, length, tgt_addr, org_addr, runs,
                               tgt_cntr, org_cntr)
        return

    # Call overhead and the request packet's send cost: one wake-up.
    yield from thread.execute(call_cost, cfg.lapi_pkt_send_cost)
    if sp is not None:
        sp.emit(ctx.rank, "lapi", "get", "call", t_call,
                thread.burst_ends[0], parent=op_sid, bytes=length)
    ctx.stats.gets += 1
    msg_id = ctx.new_msg_id()
    # The reply is placed here like a put at its target; keyed by its
    # message type, it shares no entry with a put from the same peer.
    asm = RecvAssembly(target, msg_id, PacketKind.MSG_GET_REP, length,
                       ctx.stats, buf_addr=org_addr, org_cntr=org_cntr,
                       origin=op_sid)
    lapi.recvs[asm.key] = asm
    ctx.op_issued(target)
    # A Getv's run list travels GETV_RUNS_PER_PACKET runs to a request;
    # the target serves each request as a reply stream of its own.
    groups = [None] if runs is None else [
        list(runs[i:i + GETV_RUNS_PER_PACKET])
        for i in range(0, len(runs), GETV_RUNS_PER_PACKET)]
    for i, group in enumerate(groups):
        if i:
            yield from thread.execute(cfg.lapi_pkt_send_cost)
        if group is None:
            req = control_packet(cfg, ctx.rank, target, PacketKind.GET_REQ,
                                 msg_id=msg_id, tgt_addr=tgt_addr,
                                 length=length, tgt_cntr_id=tgt_cntr)
        else:
            req = control_packet(cfg, ctx.rank, target, PacketKind.GET_REQ,
                                 runs=group, msg_id=msg_id,
                                 length=sum(n for _, _, n in group))
        if sp is not None:
            sp.bind_packet(req, op_sid, "get", req.info["length"])
        lapi.transport.send_control(req)
    if sp is not None:
        sp.close(op_sid, lapi.sim.now)
