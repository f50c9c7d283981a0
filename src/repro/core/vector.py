"""Vector (non-contiguous) remote memory copy: LAPI_Putv / LAPI_Getv.

Section 6's first future-work item: "Providing a non-contiguous
interface to LAPI_Put and LAPI_Get to help applications like GA ...
by removing the overhead associated with multiple requests or the copy
overhead in the AM-based implementations."  This module implements that
proposed extension so the ablation benchmarks can quantify exactly what
the authors anticipated:

* ``putv``: one call, one message; packets pack multiple address/length
  *runs* densely (each run costs a 16-byte sub-header on the wire), so
  a strided section moves with neither per-column call overhead nor
  pack/unpack copies;
* ``getv``: the request ships the run list (chunked over as many
  request packets as needed); the target streams vector reply packets
  whose runs land directly in the origin's final addresses.

Counter semantics mirror put/get: ``org_cntr`` when the source buffers
are reusable, ``tgt_cntr`` at the target on completion, ``cmpl_cntr``
back at the origin.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Generator, Optional, Sequence

from ..errors import LapiError
from .constants import PacketKind
from .context import SendState
from .protocol import _mk
from .putget import _make_send_complete

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .api import Lapi
    from .counters import LapiCounter

__all__ = ["do_putv", "do_getv", "VECTOR_SUBHEADER", "MSG_PUTV",
           "MSG_GETV_REP", "GETV_REQ"]

#: Wire bytes per vector run descriptor (address + length).
VECTOR_SUBHEADER = 16
#: Run descriptors per getv request packet.
GETV_RUNS_PER_PACKET = 40

MSG_PUTV = "putv"
MSG_GETV_REP = "getv_rep"
GETV_REQ = "getv_req"


def pack_vector_packets(config, src: int, dst: int, msg_id: int,
                        mtype: str, runs, read_run, *,
                        extra_info: Optional[dict] = None) -> list:
    """Split (addr, nbytes) ``runs`` into densely packed packets.

    ``read_run(run_index, offset, length) -> bytes`` supplies the data.
    Each packet's ``info['runs']`` lists ``(dest_addr, length)`` pairs
    describing consecutive payload slices; a long run may straddle
    packets as two sub-runs with adjusted addresses.
    """
    total = sum(n for _, n in runs)
    packets = []
    cur_runs: list[tuple[int, int]] = []
    cur_chunks: list[bytes] = []
    room = config.packet_size - config.lapi_header
    sent = 0

    def flush():
        nonlocal cur_runs, cur_chunks, room
        info = {"mtype": mtype, "msg_id": msg_id, "total": total,
                "runs": list(cur_runs)}
        if extra_info:
            info.update(extra_info)
        header = config.lapi_header + VECTOR_SUBHEADER * len(cur_runs)
        packets.append(_mk(src, dst, PacketKind.DATA, header,
                           b"".join(cur_chunks), info))
        cur_runs = []
        cur_chunks = []
        room = config.packet_size - config.lapi_header

    for ridx, (addr, nbytes) in enumerate(runs):
        off = 0
        while off < nbytes:
            if room <= VECTOR_SUBHEADER:
                flush()
            take = min(nbytes - off, room - VECTOR_SUBHEADER)
            cur_runs.append((addr + off, take))
            cur_chunks.append(read_run(ridx, off, take))
            room -= VECTOR_SUBHEADER + take
            sent += take
            off += take
    if cur_runs or not packets:
        flush()
    assert sent == total
    return packets


def _check_runs(lapi: "Lapi", target: int,
                runs: Sequence[tuple]) -> None:
    if not (0 <= target < lapi.ctx.size):
        raise LapiError(
            f"target {target} outside job of {lapi.ctx.size} tasks")
    if not runs:
        raise LapiError("vector operation needs at least one run")
    for run in runs:
        if run[-1] <= 0:
            raise LapiError(f"vector run with non-positive length:"
                            f" {run}")


def do_putv(lapi: "Lapi", target: int,
            runs: Sequence[tuple[int, int, int]],
            tgt_cntr: Optional[int],
            org_cntr: Optional["LapiCounter"],
            cmpl_cntr: Optional["LapiCounter"]) -> Generator:
    """LAPI_Putv: one-call scatter of ``(tgt_addr, org_addr, nbytes)``
    runs into the target's address space."""
    cfg = lapi.config
    ctx = lapi.ctx
    thread = lapi.current_thread()
    _check_runs(lapi, target, runs)
    yield from thread.execute(cfg.lapi_call_overhead)
    ctx.stats.puts += 1
    total = sum(n for _, _, n in runs)
    ctx.stats.bytes_sent += total

    if target == ctx.rank:
        ctx.stats.local_fastpaths += 1
        yield from thread.execute(cfg.copy_cost(total))
        for tgt_addr, org_addr, nbytes in runs:
            lapi.memory.write(tgt_addr, lapi.memory.read(org_addr,
                                                         nbytes))
        for cntr in (org_cntr, cmpl_cntr):
            if cntr is not None:
                cntr.add(1)
        if tgt_cntr is not None:
            ctx.counter_by_id(tgt_cntr).add(1)
        ctx.progress_ws.notify_all()
        return

    msg_id = ctx.new_msg_id()
    cmpl_id = cmpl_cntr.id if cmpl_cntr is not None else None
    dest_runs = [(t, n) for t, _, n in runs]
    srcs = [(o, n) for _, o, n in runs]

    def read_run(ridx: int, off: int, length: int) -> bytes:
        org_addr, _ = srcs[ridx]
        return lapi.memory.read(org_addr + off, length)

    packets = pack_vector_packets(
        cfg, ctx.rank, target, msg_id, MSG_PUTV, dest_runs, read_run,
        extra_info={"tgt_cntr_id": tgt_cntr, "cmpl_cntr_id": cmpl_id})

    small = total <= cfg.lapi_retrans_copy_limit
    state = SendState(msg_id, target, total_packets=len(packets),
                      org_cntr=None if small else org_cntr,
                      org_counted=small)
    ctx.send_msgs[msg_id] = state
    ctx.op_issued(target)
    state.on_complete = _make_send_complete(lapi, state)
    if small:
        yield from thread.execute(cfg.copy_cost(total))
        if org_cntr is not None:
            org_cntr.add(1)
    for pkt in packets:
        yield from thread.execute(cfg.lapi_pkt_send_cost)
        yield from lapi.transport.send_data(thread, pkt,
                                            on_ack=state.ack_one)


def do_getv(lapi: "Lapi", target: int,
            runs: Sequence[tuple[int, int, int]],
            org_cntr: Optional["LapiCounter"]) -> Generator:
    """LAPI_Getv: one-call gather of ``(tgt_addr, org_addr, nbytes)``
    runs from the target into local addresses."""
    from .context import GetPending

    cfg = lapi.config
    ctx = lapi.ctx
    thread = lapi.current_thread()
    _check_runs(lapi, target, runs)
    yield from thread.execute(cfg.lapi_call_overhead
                              + cfg.lapi_get_extra)
    ctx.stats.gets += 1
    total = sum(n for _, _, n in runs)

    if target == ctx.rank:
        ctx.stats.local_fastpaths += 1
        yield from thread.execute(cfg.copy_cost(total))
        for tgt_addr, org_addr, nbytes in runs:
            lapi.memory.write(org_addr, lapi.memory.read(tgt_addr,
                                                         nbytes))
        if org_cntr is not None:
            org_cntr.add(1)
        ctx.progress_ws.notify_all()
        return

    msg_id = ctx.new_msg_id()
    pending = GetPending(msg_id, target, org_addr=0, length=total,
                         org_cntr=org_cntr)
    ctx.pending_gets[msg_id] = pending
    ctx.op_issued(target)
    # Ship the run list in as many request packets as needed; each run
    # names both its target source and its origin destination, so reply
    # packets can land directly in the final addresses.
    triples = [tuple(r) for r in runs]
    for i in range(0, len(triples), GETV_RUNS_PER_PACKET):
        group = triples[i:i + GETV_RUNS_PER_PACKET]
        yield from thread.execute(cfg.lapi_pkt_send_cost)
        header = cfg.lapi_header + VECTOR_SUBHEADER * len(group)
        if header > cfg.packet_size:
            raise LapiError("getv run group exceeds a packet")
        lapi.transport.send_control(_mk(
            ctx.rank, target, GETV_REQ, header, b"",
            {"msg_id": msg_id, "runs": group,
             "final": i + GETV_RUNS_PER_PACKET >= len(triples)}))
