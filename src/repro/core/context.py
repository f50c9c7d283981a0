"""Per-task LAPI state.

Everything a LAPI instance tracks between calls lives in a
:class:`LapiContext`: the counter and handler tables, in-flight send
message states, receive-side reassembly buffers, pending gets and RMWs,
fence accounting, barrier tokens, and statistics.  Keeping it in one
object (separate from the API facade) makes the dispatcher/API split
clean and the state inspectable from tests.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Optional

from ..errors import LapiError
from ..sim import SimLock, WaitSet
from .counters import LapiCounter

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..sim import Event, Simulator

__all__ = ["LapiContext", "LapiStats", "SendState", "RecvAssembly",
           "GetPending", "RmwPending"]


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


class SendState:
    """Origin-side tracking of one outgoing data message."""

    __slots__ = ("msg_id", "dst", "total_packets", "acked_packets",
                 "org_cntr", "org_counted", "on_complete")

    def __init__(self, msg_id: int, dst: int, total_packets: int,
                 org_cntr: Optional[LapiCounter],
                 org_counted: bool) -> None:
        self.msg_id = msg_id
        self.dst = dst
        self.total_packets = total_packets
        self.acked_packets = 0
        #: Origin counter still owed an increment when the message is
        #: fully acknowledged (None if it fired at send time -- the
        #: small-message internal-copy case).
        self.org_cntr = org_cntr
        self.org_counted = org_counted
        #: Hook run when the last packet is acknowledged.
        self.on_complete: Optional[Callable[[], None]] = None

    @property
    def complete(self) -> bool:
        return self.acked_packets >= self.total_packets

    def ack_one(self) -> None:
        """Record one packet acknowledgement; fires ``on_complete`` when
        the whole message has been acknowledged."""
        self.acked_packets += 1
        if self.complete and self.on_complete is not None:
            self.on_complete()


class RecvAssembly:
    """Target-side reassembly of one multi-packet message.

    Tolerates arbitrary packet arrival order: packets that land before
    the message's first packet (which carries the AM user header) are
    stashed in LAPI-internal buffers and flushed once the header handler
    has supplied the destination buffer.
    """

    __slots__ = ("src", "msg_id", "mtype", "total_len", "received",
                 "buf_addr", "stash", "hdr_seen", "cmpl_fn", "user_info",
                 "tgt_cntr_id", "cmpl_cntr_id", "tgt_addr")

    def __init__(self, src: int, msg_id: int, mtype: str,
                 total_len: int) -> None:
        self.src = src
        self.msg_id = msg_id
        self.mtype = mtype
        self.total_len = total_len
        self.received = 0
        #: Destination base address (known immediately for put; supplied
        #: by the header handler for active messages).
        self.buf_addr: Optional[int] = None
        #: Early packets awaiting the buffer address: (offset, payload).
        self.stash: list[tuple[int, bytes]] = []
        self.hdr_seen = False
        self.cmpl_fn: Optional[Callable] = None
        self.user_info: Any = None
        self.tgt_cntr_id: Optional[int] = None
        self.cmpl_cntr_id: Optional[int] = None
        self.tgt_addr: Optional[int] = None

    @property
    def complete(self) -> bool:
        return self.hdr_seen and self.received >= self.total_len


class GetPending:
    """Origin-side state of one outstanding LAPI_Get."""

    __slots__ = ("msg_id", "target", "org_addr", "length", "received",
                 "org_cntr")

    def __init__(self, msg_id: int, target: int, org_addr: int,
                 length: int, org_cntr: Optional[LapiCounter]) -> None:
        self.msg_id = msg_id
        self.target = target
        self.org_addr = org_addr
        self.length = length
        self.received = 0
        self.org_cntr = org_cntr

    @property
    def complete(self) -> bool:
        return self.received >= self.length


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
        self._next_counter_id = 0
        self.counters: dict[int, LapiCounter] = {}
        # -- active message handlers ------------------------------------
        self.handlers: list[Callable] = []
        # -- in-flight state --------------------------------------------
        self._next_msg_id = 0
        self._next_req_id = 0
        self.send_msgs: dict[int, SendState] = {}
        self.recv_asm: dict[tuple[int, int], RecvAssembly] = {}
        self.pending_gets: dict[int, GetPending] = {}
        self.pending_rmws: dict[int, RmwPending] = {}
        # -- fence accounting -------------------------------------------
        #: Data-bearing operations issued to each target and not yet
        #: known complete at the data-transfer level (section 5.3.2).
        self.outstanding: dict[int, int] = {}
        # -- barrier (gfence) -------------------------------------------
        self.barrier_epoch = 0
        self.barrier_tokens: set[tuple[int, int]] = set()
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
        self.send_msgs.clear()
        self.recv_asm.clear()
        self.pending_gets.clear()
        self.pending_rmws.clear()
        self.outstanding.clear()
        self.barrier_tokens.clear()

    # ------------------------------------------------------------------
    def new_counter(self, name: str = "") -> LapiCounter:
        cid = self._next_counter_id
        self._next_counter_id += 1
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
