"""The public LAPI interface.

One :class:`Lapi` object per task implements the full function set of
the paper's Table 1:

=======================  =====================================
Paper function           Method here
=======================  =====================================
LAPI_Init / LAPI_Term    :meth:`Lapi.init` / :meth:`Lapi.term`
LAPI_Amsend              :meth:`Lapi.amsend`
LAPI_Put / LAPI_Get      :meth:`Lapi.put` / :meth:`Lapi.get`
LAPI_Rmw                 :meth:`Lapi.rmw` (+ :meth:`Lapi.rmw_sync`)
LAPI_Setcntr             :meth:`Lapi.setcntr`
LAPI_Waitcntr            :meth:`Lapi.waitcntr`
LAPI_Getcntr             :meth:`Lapi.getcntr`
LAPI_Fence / LAPI_Gfence :meth:`Lapi.fence` / :meth:`Lapi.gfence`
LAPI_Address_init        :meth:`Lapi.address_init`
LAPI_Qenv / LAPI_Senv    :meth:`Lapi.qenv` / :meth:`Lapi.senv`
LAPI_Probe               :meth:`Lapi.probe`
=======================  =====================================

All communication methods return generator coroutines: call them with
``yield from`` on a node CPU thread (the pure delegations hand back the
implementing generator itself, so no wrapper frame sits on every
resume beneath them; misuse still raises at the call).  Data-transfer
calls are non-blocking (they return once the operation is queued -- the
paper's "unordered pipelining"); completion is observed through
counters.
Blocking convenience wrappers (``put_sync`` etc.) pair each call with
an immediate Waitcntr, exactly the "simple extension" section 3 notes.
"""

from __future__ import annotations

from typing import (TYPE_CHECKING, Any, Callable, Generator, Optional,
                    Union)

from ..errors import LapiError
from .amsend import do_amsend
from .constants import QenvKey, RmwOp, SenvKey
from .context import LapiContext, RmwPending
from .counters import LapiCounter
from .dispatcher import Dispatcher
from .endpoint import Endpoint
from .env import do_qenv, do_senv
from .fence import do_fence, do_gfence
from .protocol import PROTO
from .putget import do_get, do_put
from .rmw import do_rmw

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..machine.cluster import Task

__all__ = ["Lapi"]


class Lapi(Endpoint):
    """LAPI communication handle of one task.

    Constructed by :meth:`repro.machine.cluster.Cluster.run_job`; user
    code reaches it as ``task.lapi``.
    """

    PROTO = PROTO
    PREFIX = "lapi"
    LAYER = "core"
    Error = LapiError
    MISUSE = ("LAPI used before LAPI_Init", "LAPI used after LAPI_Term",
              "LAPI_Init called twice")
    Context = LapiContext
    Dispatcher = Dispatcher

    def __init__(self, task: "Task", interrupt_mode: bool = True,
                 error_handler: Optional[Callable] = None) -> None:
        super().__init__(task, interrupt_mode)
        self.register_error_handler(error_handler)

    def _register_metrics(self) -> None:
        from ..obs import DEPTH_BUCKETS
        super()._register_metrics()
        metrics = self.task.cluster.metrics
        rank = self.ctx.rank
        self.dispatcher.ooo_depth = metrics.histogram(
            "core.dispatcher", "reassembly_ooo_depth", node=rank,
            buckets=DEPTH_BUCKETS)
        metrics.register_collector("core.dispatcher",
                                   self._dispatcher_metrics, node=rank)

    def _dispatcher_metrics(self) -> dict:
        s = self.ctx.stats
        return {
            "packets_processed": s.packets_processed,
            "interrupts_taken": s.interrupts_taken,
            "hdr_handlers_run": s.hdr_handlers_run,
            "cmpl_handlers_run": s.cmpl_handlers_run,
            "bytes_sent": s.bytes_sent,
            "bytes_received": s.bytes_received,
            "local_fastpaths": s.local_fastpaths,
        }

    def register_error_handler(self, fn: Optional[Callable]) -> None:
        """Register (or clear) the LAPI error handler.

        ``LAPI_Init`` semantics: ``fn(err)`` is invoked when the
        transport hits a terminal failure (peer unreachable after
        exhausting retransmissions).  Returning a truthy value marks
        the error handled and the run continues; otherwise -- or with
        no handler registered -- the run terminates cleanly through
        :meth:`repro.machine.cluster.Cluster.fail_run` with the error's
        node/peer/attempt context intact.

        The handler must be callable (validated here, at registration,
        so a bad handler fails loudly at ``LAPI_Init`` instead of
        silently at first-failure time deep in a kernel callback).
        """
        if fn is not None and not callable(fn):
            raise LapiError(
                f"LAPI error handler must be callable, got"
                f" {type(fn).__name__}")
        self._error_handler = fn

    def unlink(self) -> None:
        super().unlink()
        self.ctx.handlers.clear()  # user code, which may hold the task

    def set_interrupt_mode(self, enabled: bool) -> None:
        """Switch between interrupt (True) and polling (False) modes.

        Waits sleeping in interrupt mode are notified after the switch:
        their gates read the mode, and on leaving it they must go on
        polling."""
        self._check_live()
        self.interrupt_mode = enabled
        self.client.interrupts_enabled = enabled
        if enabled:
            self.client.arm_interrupt()
        self.ctx.progress_ws.notify_all()

    # ------------------------------------------------------------------
    # counters
    # ------------------------------------------------------------------
    def counter(self, name: str = "") -> LapiCounter:
        """Create a completion counter (registered for remote updates).

        Counters are identified across tasks by creation order, so SPMD
        code that creates them symmetrically can pass ``cntr.id`` as a
        ``tgt_cntr`` argument.
        """
        self._check_live()
        return self.ctx.new_counter(name=name)

    def local_counter(self) -> LapiCounter:
        """Create a counter only this task updates, for an ``org_cntr``:
        unregistered, so it cannot be named as a ``tgt_cntr`` or
        ``cmpl_cntr`` (both travel by id)."""
        self._check_live()
        cntr = LapiCounter(-1, name="local")
        cntr.on_change = self.ctx.progress_ws.notify_all
        return cntr

    def setcntr(self, cntr: LapiCounter, value: int) -> None:
        """LAPI_Setcntr."""
        self._check_live()
        cntr.set(value)

    def getcntr(self, cntr: LapiCounter) -> Generator:
        """LAPI_Getcntr: read a counter; drives progress when polling."""
        self._check_live()
        thread = self.current_thread()
        yield from thread.execute(self.config.lapi_call_overhead * 0.5)
        if not self.interrupt_mode and self.client.pending > 0:
            yield from self.dispatcher.drain(thread)
        return cntr.value

    def waitcntr(self, cntr: LapiCounter, value: int = 1) -> Generator:
        """LAPI_Waitcntr: block until ``cntr`` reaches ``value``; the
        counter is decremented by ``value`` on return (section 2.3)."""
        self._check_live()
        thread = self.current_thread()
        yield from thread.execute(self.config.lapi_call_overhead * 0.5)
        # ``wait_for`` returns in the step its predicate holds, so the
        # second ``try_consume`` takes the value before any other
        # thread runs.
        while not cntr.try_consume(value):
            yield from self.wait_for(lambda: cntr.value >= value)

    def probe(self) -> Generator:
        """LAPI_Probe: explicitly drive progress (polling mode)."""
        self._check_live()
        thread = self.current_thread()
        yield from thread.execute(self.config.poll_check_cost)
        if self.client.pending > 0:
            yield from self.dispatcher.drain(thread)

    # ------------------------------------------------------------------
    # data transfer
    # ------------------------------------------------------------------
    def put(self, target: int, length: int, tgt_addr: int, org_addr: int,
            tgt_cntr: Optional[int] = None,
            org_cntr: Optional[LapiCounter] = None,
            cmpl_cntr: Optional[LapiCounter] = None) -> Generator:
        """LAPI_Put (non-blocking remote write).  ``tgt_cntr`` is the
        *target task's* counter id; ``org_cntr``/``cmpl_cntr`` are local
        counter objects."""
        self._check_live()
        return do_put(self, target, length, tgt_addr, org_addr,
                      tgt_cntr, org_cntr, cmpl_cntr)

    def get(self, target: int, length: int, tgt_addr: int, org_addr: int,
            tgt_cntr: Optional[int] = None,
            org_cntr: Optional[LapiCounter] = None) -> Generator:
        """LAPI_Get (non-blocking remote read into ``org_addr``)."""
        self._check_live()
        return do_get(self, target, length, tgt_addr, org_addr,
                      tgt_cntr, org_cntr)

    def amsend(self, target: int, handler_id: int, uhdr: bytes,
               udata: Union[int, bytes, None] = None, udata_len: int = 0,
               tgt_cntr: Optional[int] = None,
               org_cntr: Optional[LapiCounter] = None,
               cmpl_cntr: Optional[LapiCounter] = None) -> Generator:
        """LAPI_Amsend (non-blocking active message)."""
        self._check_live()
        return do_amsend(self, target, handler_id, uhdr, udata,
                         udata_len, tgt_cntr, org_cntr, cmpl_cntr)

    def putv(self, target: int, runs, tgt_cntr: Optional[int] = None,
             org_cntr: Optional[LapiCounter] = None,
             cmpl_cntr: Optional[LapiCounter] = None) -> Generator:
        """LAPI_Putv -- the non-contiguous put of section 6's future
        work: one call scatters ``(tgt_addr, org_addr, nbytes)`` runs."""
        self._check_live()
        return do_put(self, target, None, None, None, tgt_cntr, org_cntr,
                      cmpl_cntr, runs)

    def getv(self, target: int, runs,
             org_cntr: Optional[LapiCounter] = None) -> Generator:
        """LAPI_Getv -- the non-contiguous get of section 6's future
        work: one call gathers ``(tgt_addr, org_addr, nbytes)`` runs."""
        self._check_live()
        return do_get(self, target, None, None, None, None, org_cntr,
                      runs)

    def rmw(self, op: RmwOp, target: int, tgt_addr: int, in_val: int,
            cmp_val: Optional[int] = None,
            prev_addr: Optional[int] = None,
            org_cntr: Optional[LapiCounter] = None) -> Generator:
        """LAPI_Rmw (non-blocking atomic op); returns a pending handle."""
        self._check_live()
        return do_rmw(self, op, target, tgt_addr, in_val, cmp_val,
                      prev_addr, org_cntr)

    # ------------------------------------------------------------------
    # blocking conveniences ("a simple extension", section 3)
    # ------------------------------------------------------------------
    def put_sync(self, target: int, length: int, tgt_addr: int,
                 org_addr: int, tgt_cntr: Optional[int] = None) -> Generator:
        """Put and wait until the data has completed at the target.

        The target addresses the completion counter by id, so it is
        registered, but only for the call and outside the user's id
        sequence: counters created after it keep their SPMD ids."""
        cmpl = self.ctx.new_counter(scoped=True)
        try:
            yield from self.put(target, length, tgt_addr, org_addr,
                                tgt_cntr=tgt_cntr, cmpl_cntr=cmpl)
            yield from self.waitcntr(cmpl, 1)
        finally:
            del self.ctx.counters[cmpl.id]

    def get_sync(self, target: int, length: int, tgt_addr: int,
                 org_addr: int) -> Generator:
        """Get and wait until the data has arrived locally."""
        org = self.local_counter()
        yield from self.get(target, length, tgt_addr, org_addr,
                            org_cntr=org)
        yield from self.waitcntr(org, 1)

    def rmw_sync(self, op: RmwOp, target: int, tgt_addr: int, in_val: int,
                 cmp_val: Optional[int] = None) -> Generator:
        """Rmw and wait; returns the previous value of the target word."""
        pending: RmwPending = yield from self.rmw(
            op, target, tgt_addr, in_val, cmp_val=cmp_val)
        yield from self.wait_for(lambda: pending.done)
        return pending.prev_value

    # ------------------------------------------------------------------
    # ordering
    # ------------------------------------------------------------------
    def fence(self, target: Optional[int] = None) -> Generator:
        """LAPI_Fence: wait for this task's data transfers to complete."""
        self._check_live()
        return do_fence(self, target)

    def gfence(self) -> Generator:
        """LAPI_Gfence: collective fence + barrier."""
        self._check_live()
        return do_gfence(self)

    barrier = gfence

    # ------------------------------------------------------------------
    # addresses, handlers, environment
    # ------------------------------------------------------------------
    def register_handler(self, fn: Callable) -> int:
        """Register an AM header handler; returns its id.

        SPMD programs registering handlers in the same order on every
        task obtain matching ids (the analogue of identical function
        addresses in identically linked executables).
        """
        self._check_live()
        self.ctx.handlers.append(fn)
        return len(self.ctx.handlers) - 1

    def address_init(self, value: Any) -> Generator:
        """LAPI_Address_init: collective exchange of one value per task.

        Returns the list indexed by rank.  The exchange itself rides the
        service network (out of band), as address setup did on real SP
        systems; the trailing gfence synchronizes through the switch.
        """
        self._check_live()
        thread = self.current_thread()
        yield from thread.execute(self.config.lapi_call_overhead)
        key = f"lapi.addr.{self.ctx.barrier_epoch}.{id(self.task.cluster)}"
        table = self.task.cluster.oob_allgather(key, self.rank, value,
                                                self.size)
        yield from self.gfence()
        return [table[r] for r in range(self.size)]

    def qenv(self, key: QenvKey) -> int:
        """LAPI_Qenv."""
        self._check_live()
        return do_qenv(self, key)

    def senv(self, key: SenvKey, value: int) -> None:
        """LAPI_Senv."""
        self._check_live()
        do_senv(self, key, value)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        mode = "interrupt" if self.interrupt_mode else "polling"
        return f"<Lapi rank={self.rank}/{self.size} {mode}>"
