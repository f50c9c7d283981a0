"""LAPI_Fence and LAPI_Gfence.

Section 5.3.2: a fence waits until every data transfer this task
initiated has *arrived in the remote user buffers*, and says nothing of
completion handlers.  Arrival is observed through acknowledgements,
which the target sends when its dispatcher takes a packet, *before*
placing its bytes (``EndpointDispatcher.process``), so a fence can
return while the last packet is still being copied (strict xfail
``test_fence_returns_after_the_data_is_placed``).

``LAPI_Gfence`` is the collective version: a local fence followed by a
dissemination barrier (log2(N) rounds of point-to-point tokens over the
switch -- no magic global operation).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Generator, Optional

from ..errors import LapiError
from .constants import PacketKind
from .protocol import control_packet

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .api import Lapi

__all__ = ["do_fence", "do_gfence"]


def do_fence(lapi: "Lapi", target: Optional[int] = None) -> Generator:
    """Block until data transfers to ``target`` (or everyone) complete.

    Completion here is the data-transfer level of section 5.3.2: packets
    acknowledged / replies received; completion-handler execution status
    remains unknown to a fence, as in real LAPI.
    """
    cfg = lapi.config
    ctx = lapi.ctx
    thread = lapi.current_thread()
    if target is not None and not (0 <= target < ctx.size):
        raise LapiError(f"fence target {target} outside job")
    sp = lapi.spans
    op_sid = None
    if sp is not None:
        t_call = lapi.sim.now
        op_sid = sp.open(ctx.rank, "lapi", "fence", t_call,
                         parent=getattr(thread, "span_parent", None))
    yield from thread.execute(cfg.lapi_call_overhead)
    if sp is not None:
        sp.emit(ctx.rank, "lapi", "fence", "call", t_call, lapi.sim.now,
                parent=op_sid)
    ctx.stats.fences += 1
    yield from lapi.wait_for(lambda: ctx.outstanding_to(target) == 0)
    if sp is not None:
        sp.close(op_sid, lapi.sim.now)


def do_gfence(lapi: "Lapi") -> Generator:
    """Collective fence: local fence + dissemination barrier."""
    ctx = lapi.ctx
    cfg = lapi.config
    thread = lapi.current_thread()
    ctx.stats.gfences += 1
    sp = lapi.spans
    op_sid = None
    if sp is not None:
        op_sid = sp.open(ctx.rank, "lapi", "gfence", lapi.sim.now,
                         parent=getattr(thread, "span_parent", None))
        prev_parent = getattr(thread, "span_parent", None)
        thread.span_parent = op_sid
    try:
        yield from do_fence(lapi, None)
    finally:
        if sp is not None:
            thread.span_parent = prev_parent

    size = ctx.size
    if size == 1:
        if sp is not None:
            sp.close(op_sid, lapi.sim.now)
        return
    epoch = ctx.barrier_epoch
    ctx.barrier_epoch += 1
    rounds = 0
    span = 1
    while span < size:
        rounds += 1
        span <<= 1
    for r in range(rounds):
        dist = 1 << r
        peer = (ctx.rank + dist) % size
        yield from thread.execute(cfg.lapi_pkt_send_cost)
        token = control_packet(
            cfg, ctx.rank, peer, PacketKind.BARRIER,
            epoch=epoch, round=r)
        if sp is not None:
            sp.bind_packet(token, op_sid, "gfence")
        lapi.transport.send_control(token)
        # A round's token comes from (rank - dist) mod size; a lost
        # peer (convicted, or out of retries) will never send it, so a
        # dead sender satisfies the wait (degraded-mode barrier:
        # survivors synchronize among themselves instead of hanging).
        src_peer = (ctx.rank - dist) % size
        yield from lapi.wait_for(
            lambda e=epoch, rr=r, src=src_peer:
            (e, rr) in ctx.barrier_tokens or src in lapi.task.dead_peers)
    # Tokens of this epoch are consumed; drop them to bound memory.
    ctx.barrier_tokens = {(e, r) for (e, r) in ctx.barrier_tokens
                          if e != epoch}
    if sp is not None:
        sp.close(op_sid, lapi.sim.now, epoch=epoch)
