"""Origin-side implementation of LAPI_Rmw.

Section 3: LAPI's mutual-exclusion story is four atomic primitives on a
64-bit word in the target's address space -- Swap, Compare-and-Swap,
Fetch-and-Add, Fetch-and-Or -- far simpler than MPI-2's three-mechanism
synchronization.  The op executes atomically inside the target's
dispatcher; the previous value returns to the origin, landing at
``prev_addr`` and/or waking ``org_cntr``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Generator, Optional

from ..errors import LapiError
from .constants import PacketKind, RmwOp
from .context import RmwPending
from .protocol import control_packet

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .api import Lapi
    from .counters import LapiCounter

__all__ = ["do_rmw", "apply_rmw_local"]


def do_rmw(lapi: "Lapi", op: RmwOp, target: int, tgt_addr: int,
           in_val: int, cmp_val: Optional[int],
           prev_addr: Optional[int],
           org_cntr: Optional["LapiCounter"]) -> Generator:
    """LAPI_Rmw: non-blocking atomic op; returns the pending handle.

    For :data:`RmwOp.COMPARE_AND_SWAP`, ``cmp_val`` is the comparand and
    ``in_val`` the replacement.  The handle's ``done``/``prev_value``
    fields resolve when the reply arrives (use
    :meth:`repro.core.api.Lapi.rmw_sync` to block).
    """
    cfg = lapi.config
    ctx = lapi.ctx
    thread = lapi.current_thread()
    if not (0 <= target < ctx.size):
        raise LapiError(
            f"target {target} outside job of {ctx.size} tasks")
    if op is RmwOp.COMPARE_AND_SWAP and cmp_val is None:
        raise LapiError("COMPARE_AND_SWAP requires cmp_val")
    if op is not RmwOp.COMPARE_AND_SWAP and cmp_val is not None:
        raise LapiError(f"cmp_val is only meaningful for CAS, not {op}")
    yield from thread.execute(cfg.lapi_call_overhead)
    ctx.stats.rmws += 1

    pending = RmwPending(ctx.new_req_id(), target, prev_addr, org_cntr)

    if target == ctx.rank:
        ctx.stats.local_fastpaths += 1
        yield from thread.execute(cfg.mutex_cost + 0.5)
        prev = apply_rmw_local(lapi.memory, op, tgt_addr, in_val, cmp_val)
        pending.prev_value = prev
        pending.done = True
        if prev_addr is not None:
            lapi.memory.write_i64(prev_addr, prev)
        if org_cntr is not None:
            org_cntr.add(1)
        ctx.progress_ws.notify_all()
        return pending

    # As a get: refused while the breaker is open, before it registers.
    lapi.transport.check_reachable(target)
    ctx.pending_rmws[pending.req_id] = pending
    ctx.op_issued(target)
    yield from thread.execute(cfg.lapi_pkt_send_cost)
    lapi.transport.send_control(control_packet(
        cfg, ctx.rank, target, PacketKind.RMW_REQ,
        req_id=pending.req_id, op=op, tgt_addr=tgt_addr,
        in_val=in_val, cmp_val=cmp_val))
    return pending


def apply_rmw_local(memory, op: RmwOp, addr: int, in_val: int,
                    cmp_val: Optional[int]) -> int:
    """Apply an RMW op to local memory; returns the previous value."""
    from .dispatcher import _to_signed
    prev = memory.read_i64(addr)
    if op is RmwOp.SWAP:
        memory.write_i64(addr, _to_signed(in_val))
    elif op is RmwOp.COMPARE_AND_SWAP:
        if prev == cmp_val:
            memory.write_i64(addr, _to_signed(in_val))
    elif op is RmwOp.FETCH_AND_ADD:
        memory.write_i64(addr, _to_signed(prev + in_val))
    elif op is RmwOp.FETCH_AND_OR:
        memory.write_i64(addr, _to_signed(prev | in_val))
    else:  # pragma: no cover - enum exhausts
        raise LapiError(f"unknown RMW op {op!r}")
    return prev
