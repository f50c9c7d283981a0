"""Per-task LAPI state.

Everything a LAPI instance tracks between calls lives in a
:class:`LapiContext`: the counter and handler tables, pending RMWs,
fence accounting, barrier tokens, and statistics.  A message's records
(:class:`repro.core.endpoint.SendRecord`, :class:`RecvAssembly`) are
the endpoint's.  Keeping it in one object (separate from the API
facade) makes the dispatcher/API split clean and the state inspectable
from tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import count
from typing import TYPE_CHECKING, Any, Callable, Optional

from ..errors import LapiError
from ..sim import SimLock, WaitSet
from .constants import PacketKind
from .counters import LapiCounter
from .endpoint import RecvRecord

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..sim import Event, Simulator

__all__ = ["LapiContext", "LapiStats", "RecvAssembly", "RmwPending"]


@dataclass
class LapiStats:
    """Operation and packet counters for one LAPI context."""

    puts: int = 0
    gets: int = 0
    amsends: int = 0
    rmws: int = 0
    fences: int = 0
    gfences: int = 0
    packets_processed: int = 0
    interrupts_taken: int = 0
    hdr_handlers_run: int = 0
    cmpl_handlers_run: int = 0
    bytes_sent: int = 0
    bytes_received: int = 0
    local_fastpaths: int = 0


class RecvAssembly(RecvRecord):
    """LAPI's receive record of one data message: a put or active
    message at its target, a get's reply at its origin, in any packet
    arrival order.  Put and get-reply packets are self-describing, so
    their record is ready when it opens; an active message's is ready
    once its header handler has supplied the buffer.  The key keeps the
    message type: a put numbers its message at its sender, a get reply
    at this task, so the two may share a message id.
    """

    __slots__ = ("mtype", "buf_addr", "cmpl_fn", "user_info",
                 "tgt_cntr_id", "cmpl_cntr_id", "org_cntr")

    def __init__(self, src: int, msg_id: int, mtype: str, total: int,
                 stats, *, buf_addr: Optional[int] = None,
                 tgt_cntr_id: Optional[int] = None,
                 cmpl_cntr_id: Optional[int] = None,
                 org_cntr: Optional[LapiCounter] = None,
                 origin: Optional[int] = None) -> None:
        super().__init__((src, msg_id, mtype), total, stats, origin,
                         ready=mtype != PacketKind.MSG_AM)
        self.mtype = mtype
        #: Destination base address (known at once for a put or get;
        #: supplied by the header handler for an active message).
        self.buf_addr = buf_addr
        self.cmpl_fn: Optional[Callable] = None
        self.user_info: Any = None
        #: Counters the completed message bumps: a put or AM's target
        #: counter (by id) and origin's completion counter (by id, with
        #: a CMPL packet), a get's origin counter.
        self.tgt_cntr_id = tgt_cntr_id
        self.cmpl_cntr_id = cmpl_cntr_id
        self.org_cntr = org_cntr


class RmwPending:
    """Origin-side state of one outstanding LAPI_Rmw."""

    __slots__ = ("req_id", "target", "prev_addr", "org_cntr", "done",
                 "prev_value")

    def __init__(self, req_id: int, target: int, prev_addr: Optional[int],
                 org_cntr: Optional[LapiCounter]) -> None:
        self.req_id = req_id
        self.target = target
        self.prev_addr = prev_addr
        self.org_cntr = org_cntr
        self.done = False
        self.prev_value: Optional[int] = None


class LapiContext:
    """Mutable state of one task's LAPI instance."""

    def __init__(self, sim: "Simulator", rank: int, size: int) -> None:
        self.sim = sim
        self.rank = rank
        self.size = size
        # -- counters ---------------------------------------------------
        self._counter_ids = count()
        #: Ids of counters registered for one call (-1 is a local one).
        self._scoped_ids = count(-2, -1)
        self.counters: dict[int, LapiCounter] = {}
        # -- active message handlers ------------------------------------
        self.handlers: list[Callable] = []
        # -- in-flight state --------------------------------------------
        self._next_msg_id = 0
        self._next_req_id = 0
        self.pending_rmws: dict[int, RmwPending] = {}
        #: ``(origin, cmpl counter id)`` -> ``[count, span]`` while that
        #: pair's one CMPL notice is unacknowledged: the completions
        #: held for the next notice and the origin span of the first.
        self.cmpl_held: dict[tuple[int, int], list] = {}
        # -- fence accounting -------------------------------------------
        #: Data-bearing operations issued to each target and not yet
        #: known complete at the data-transfer level (section 5.3.2).
        self.outstanding: dict[int, int] = {}
        # -- barrier (gfence) -------------------------------------------
        #: ``(epoch, view, round)`` of each token arrived.
        self.barrier_tokens: set[tuple[int, int, int]] = set()
        # -- progress signalling ----------------------------------------
        #: Notified after every dispatcher batch and local completion;
        #: predicate waits (fence, rmw_sync, polling loops) hang off it.
        self.progress_ws = WaitSet(sim, name=f"lapi{rank}.progress")
        #: Serializes per-packet dispatch: guarantees at most one header
        #: handler executes at a time per context (section 2.1).
        self.dispatch_lock = SimLock(sim, name=f"lapi{rank}.dispatch")
        #: Live completion-handler threads (LAPI_Term waits for them).
        self.active_handlers = 0
        self.stats = LapiStats()

    def crash_reset(self) -> None:
        """Forget every in-flight transfer (fail-stop node restart)."""
        self.pending_rmws.clear()
        self.cmpl_held.clear()
        self.outstanding.clear()
        self.barrier_tokens.clear()

    # ------------------------------------------------------------------
    def new_counter(self, name: str = "", *,
                    scoped: bool = False) -> LapiCounter:
        """Create and register a counter.  A ``scoped`` one serves one
        call, which unregisters it; its id is outside the user's
        sequence, so SPMD counter ids stay symmetric."""
        cid = next(self._scoped_ids if scoped else self._counter_ids)
        cntr = LapiCounter(cid, name=name)
        cntr.on_change = self.progress_ws.notify_all
        self.counters[cid] = cntr
        return cntr

    def counter_by_id(self, cid: int) -> LapiCounter:
        cntr = self.counters.get(cid)
        if cntr is None:
            raise LapiError(
                f"task {self.rank}: unknown counter id {cid} (remote"
                " completion for a counter that was never created)")
        return cntr

    def new_msg_id(self) -> int:
        self._next_msg_id += 1
        return self._next_msg_id

    def new_req_id(self) -> int:
        self._next_req_id += 1
        return self._next_req_id

    def handler_by_id(self, hid: int) -> Callable:
        if not (0 <= hid < len(self.handlers)):
            raise LapiError(
                f"task {self.rank}: unknown AM handler id {hid}")
        return self.handlers[hid]

    # -- fence bookkeeping ---------------------------------------------
    def op_issued(self, target: int) -> None:
        self.outstanding[target] = self.outstanding.get(target, 0) + 1

    def op_completed(self, target: int) -> None:
        n = self.outstanding.get(target, 0)
        if n <= 0:
            raise LapiError(
                f"task {self.rank}: completion underflow for target"
                f" {target}")
        self.outstanding[target] = n - 1
        self.progress_ws.notify_all()

    def outstanding_to(self, target: Optional[int] = None) -> int:
        if target is not None:
            return self.outstanding.get(target, 0)
        return sum(self.outstanding.values())
