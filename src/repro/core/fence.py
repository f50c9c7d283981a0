"""LAPI_Fence and LAPI_Gfence.

Section 5.3.2: a fence waits until every data transfer this task
initiated has *arrived in the remote user buffers*, and says nothing of
completion handlers.  Arrival is observed through acknowledgements,
which the target sends when its dispatcher takes a packet, *before*
placing its bytes (``EndpointDispatcher.process``), so a fence can
return while the last packet is still being copied (strict xfail
``test_fence_returns_after_the_data_is_placed``).

``LAPI_Gfence`` is the collective version: a local fence followed by
the barrier both stacks share, ``Endpoint.dissemination`` (log2(N)
rounds of point-to-point tokens over the switch -- no magic global
operation -- among the ranks still alive).  This module keeps only
LAPI's token: a BARRIER control packet (:func:`gfence_token`).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Generator, Optional

from ..errors import LapiError
from .constants import PacketKind
from .protocol import control_packet

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .api import Lapi

__all__ = ["do_fence", "do_gfence", "gfence_token"]


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
    """Collective fence: local fence + the endpoint's barrier schedule
    (:meth:`~repro.core.endpoint.Endpoint.dissemination`)."""
    ctx = lapi.ctx
    thread = lapi.current_thread()
    ctx.stats.gfences += 1
    sp = lapi.spans
    op_sid = None
    if sp is not None:
        prev_parent = getattr(thread, "span_parent", None)
        op_sid = sp.open(ctx.rank, "lapi", "gfence", lapi.sim.now,
                         parent=prev_parent)
        # The fence and the barrier tokens belong to the gfence.
        thread.span_parent = op_sid
    try:
        yield from do_fence(lapi, None)
        if ctx.size == 1:
            if sp is not None:
                sp.close(op_sid, lapi.sim.now)
            return
        epoch = yield from lapi.dissemination()
    finally:
        if sp is not None:
            thread.span_parent = prev_parent
    # Tokens of this epoch, and of any before it, are spent.
    ctx.barrier_tokens = {k for k in ctx.barrier_tokens if k[0] > epoch}
    if sp is not None:
        sp.close(op_sid, lapi.sim.now, epoch=epoch)


def gfence_token(lapi: "Lapi", thread, epoch: int, view: int, rnd: int,
                 to: int, frm: Optional[int],
                 moved: Optional[Callable[[], bool]]) -> Generator:
    """LAPI's barrier round (``Lapi._barrier_token``): a BARRIER control
    packet to ``to``, one send cost; the target's dispatcher records it
    in ``ctx.barrier_tokens`` as ``(epoch, view, round)``."""
    cfg = lapi.config
    ctx = lapi.ctx
    yield from thread.execute(cfg.lapi_pkt_send_cost)
    pkt = control_packet(cfg, ctx.rank, to, PacketKind.BARRIER,
                         epoch=epoch, view=view, round=rnd)
    sp = lapi.spans
    if sp is not None:
        sp.bind_packet(pkt, getattr(thread, "span_parent", None), "gfence")
    lapi.transport.send_control(pkt)
    if frm is None:
        return False
    key = (epoch, view, rnd)
    tokens = ctx.barrier_tokens
    yield from lapi.wait_for(lambda: key in tokens or moved())
    return key in tokens
