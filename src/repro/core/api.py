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
from ..machine.cpu import INTERRUPT
from .amsend import do_amsend
from .constants import PacketKind, QenvKey, RmwOp, SenvKey
from .context import LapiContext, RmwPending
from .counters import LapiCounter
from .dispatcher import Dispatcher
from .env import do_qenv, do_senv
from .fence import do_fence, do_gfence
from .protocol import PROTO
from .putget import do_get, do_put
from .reliability import ReliableTransport
from .rmw import do_rmw

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..machine.cluster import Task
    from ..machine.cpu import Thread

__all__ = ["Lapi"]


class Lapi:
    """LAPI communication handle of one task.

    Constructed by :meth:`repro.machine.cluster.Cluster.run_job`; user
    code reaches it as ``task.lapi``.
    """

    def __init__(self, task: "Task", interrupt_mode: bool = True,
                 error_handler: Optional[Callable] = None) -> None:
        self.task = task
        self.config = task.node.config
        cluster = task.cluster
        #: The cluster's simulator, span recorder (None when tracing is
        #: off) and tracer, taken once here so no operation goes
        #: through the task's weak cluster reference.
        self.sim = cluster.sim
        self.spans = self.sim.spans
        self.trace = cluster.trace
        self.ctx = LapiContext(self.sim, task.rank, task.size)
        self.interrupt_mode = interrupt_mode
        self.client = None
        self.transport: Optional[ReliableTransport] = None
        self.dispatcher: Optional[Dispatcher] = None
        self._initialized = False
        self._terminated = False
        #: User error handler (the ``LAPI_Init`` registration): called
        #: with the terminal error when the transport declares a peer
        #: unreachable.  A truthy return suppresses the failure (the
        #: handler recovered); otherwise the run terminates cleanly
        #: through ``Cluster.fail_run``.
        self._error_handler: Optional[Callable] = None
        self.register_error_handler(error_handler)

    # convenient shorthands ------------------------------------------------
    @property
    def memory(self):
        return self.task.node.memory

    @property
    def rank(self) -> int:
        return self.ctx.rank

    @property
    def size(self) -> int:
        return self.ctx.size

    @property
    def stats(self):
        return self.ctx.stats

    def current_thread(self) -> "Thread":
        """The CPU thread executing the current call."""
        return self.task.node.cpu.current_thread()

    def _check_live(self) -> None:
        if not self._initialized:
            raise LapiError("LAPI used before LAPI_Init")
        if self._terminated:
            raise LapiError("LAPI used after LAPI_Term")

    # ------------------------------------------------------------------
    # setup
    # ------------------------------------------------------------------
    def init(self) -> Generator:
        """LAPI_Init: attach to the adapter and start progress engines."""
        if self._initialized:
            raise LapiError("LAPI_Init called twice")
        thread = self.current_thread()
        yield from thread.execute(self.config.lapi_call_overhead)
        adapter = self.task.node.adapter
        self.client = adapter.attach_client(PROTO)
        cfg = self.config
        # adaptive_rto=None means auto: Jacobson/Karels timing exactly
        # when a fault schedule is installed, fixed-timeout arithmetic
        # (and its bit-exact virtual-time trajectory) otherwise.
        adaptive = (cfg.adaptive_rto if cfg.adaptive_rto is not None
                    else self.task.cluster.faults is not None)
        self.transport = ReliableTransport(
            self.sim, adapter, PROTO,
            window=cfg.lapi_window,
            timeout=cfg.lapi_retrans_timeout,
            adaptive=adaptive, rto_min=cfg.rto_min,
            rto_max=cfg.rto_max, backoff=cfg.rto_backoff,
            degraded_after=cfg.peer_degraded_after,
            retry_budget=cfg.retry_budget)
        self.dispatcher = Dispatcher(self)
        self.transport.wait_credit = self._wait_credit
        self.transport.on_progress = self.ctx.progress_ws.notify_all
        self.transport.on_fatal = self._transport_fatal
        self.client.delivery_filter = self._ack_fast_path
        self.client.on_arrival = self._spawn_interrupt_dispatcher
        self.client.interrupts_enabled = self.interrupt_mode
        self._register_metrics()
        resilience = self.task.cluster.resilience
        if resilience is not None:
            resilience.attach_stack(self.task.node.node_id, self)
        self._initialized = True

    def _register_metrics(self) -> None:
        """Wire this stack into the cluster's observability registry."""
        from ..obs import DEPTH_BUCKETS
        metrics = self.task.cluster.metrics
        rank = self.ctx.rank
        self.transport.ack_rtt = metrics.histogram(
            "core.reliability", "ack_rtt_us", node=rank)
        metrics.register_collector("core.reliability",
                                   self.transport.metrics, node=rank)
        telemetry = self.task.cluster.telemetry
        if telemetry is not None:
            # Timeline-only goodput stream: a per-window curve with
            # no end-of-run metric, so the registry's snapshots/renders
            # stay identical armed or disarmed.
            tl = telemetry.timeline
            self.transport.rx_goodput_bytes = tl.stream_counter(
                "telemetry.transport", "rx_payload_bytes", node=rank)
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

    def _wait_credit(self, thread, event) -> Generator:
        """Block on a send-window credit, driving progress if polling."""
        if self.interrupt_mode:
            yield from thread.wait(event)
        else:
            while not event.triggered:
                yield from self.dispatcher.poll_step(thread)

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

    def _transport_fatal(self, err) -> None:
        """Terminal transport failure: user handler, then fail_run.

        The handler runs inside a bare kernel timer callback (the
        retransmit timer) or a detector conviction, so an exception it
        raises must not escape: it is captured, chained to the original
        transport error (``__cause__``), and routed through
        ``Cluster.fail_run`` like the failure it was handling.
        """
        handler = self._error_handler
        if handler is not None:
            try:
                if handler(err):
                    return
            except BaseException as handler_exc:
                handler_exc.__cause__ = err
                self.task.cluster.fail_run(handler_exc)
                return
        self.task.cluster.fail_run(err)

    # ------------------------------------------------------------------
    # failure-detector integration (called by repro.resilience)
    # ------------------------------------------------------------------
    def peer_unreachable(self, peer: int, err) -> None:
        """The failure detector convicted ``peer``.

        Crash-aware cleanup first (always): the peer joins
        ``ctx.dead_peers`` (gfence rounds stop waiting for its token),
        the transport's circuit breaker opens and in-flight operations
        toward it complete in error (counters fire, credits post), and
        progress waiters are notified so blocked predicates re-check.
        Then policy: under ``on_peer_failure="fail"`` the error routes
        through the registered handler and ``Cluster.fail_run``; under
        ``"continue"`` the survivors keep running degraded.
        """
        self.ctx.dead_peers.add(peer)
        self.transport.peer_down(peer)
        self.ctx.progress_ws.notify_all()
        if self.task.cluster.on_peer_failure == "fail":
            self._transport_fatal(err)

    def peer_absolved(self, peer: int) -> None:
        """The detector heard from a convicted peer again (machine
        restart): close the breaker.  The peer's *task* stays dead, so
        it remains in ``dead_peers`` -- reachability is not
        resurrection."""
        self.transport.breaker_close(peer)

    def crash_reset(self) -> None:
        """This stack's own node restarted after a fail-stop crash:
        clear all protocol state (the restarted machine has no memory
        of in-flight transfers)."""
        self.transport._tx.clear()
        self.transport._rx.clear()
        ctx = self.ctx
        ctx.send_msgs.clear()
        ctx.recv_asm.clear()
        ctx.pending_gets.clear()
        ctx.pending_rmws.clear()
        ctx.outstanding.clear()
        ctx.barrier_tokens.clear()

    def _ack_fast_path(self, packet) -> bool:
        """Adapter-level handling of transport acknowledgements.

        Window bookkeeping is adapter-assisted: ACKs neither occupy the
        RX FIFO nor raise interrupts, so pure ack traffic never
        perturbs dispatcher scheduling (and cannot mask data-packet
        interrupts).
        """
        if packet.kind == PacketKind.ACK:
            self.transport.on_ack(packet)
            return True
        return False

    def term(self) -> Generator:
        """LAPI_Term: quiesce (collective) and detach."""
        self._check_live()
        yield from self.gfence()
        yield from self.wait_for(lambda: self.ctx.active_handlers == 0)
        # All peers have passed the gfence: nothing further will arrive.
        self._terminated = True
        self.client.interrupts_enabled = False

    def _spawn_interrupt_dispatcher(self) -> None:
        """Adapter arrival hook: run the dispatcher at interrupt priority."""
        self.task.node.cpu.spawn(
            self.dispatcher.interrupt_service,
            name=f"lapi{self.rank}.irq", priority=INTERRUPT)

    def set_interrupt_mode(self, enabled: bool) -> None:
        """Switch between interrupt (True) and polling (False) modes."""
        self.interrupt_mode = enabled
        if self.client is not None:
            self.client.interrupts_enabled = enabled
            if enabled:
                self.client.arm_interrupt()

    # ------------------------------------------------------------------
    # counters
    # ------------------------------------------------------------------
    def counter(self, name: str = "") -> LapiCounter:
        """Create a completion counter (registered for remote updates).

        Counters are identified across tasks by creation order, so SPMD
        code that creates them symmetrically can pass ``cntr.id`` as a
        ``tgt_cntr`` argument.
        """
        return self.ctx.new_counter(name=name)

    def setcntr(self, cntr: LapiCounter, value: int) -> None:
        """LAPI_Setcntr."""
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
        if self.interrupt_mode:
            # A counter that already holds ``value`` is consumed in
            # place; an event is built only to block.
            if cntr.waiting or not cntr.try_consume(value):
                yield from thread.wait(cntr.wait_event(value))
        else:
            while not cntr.try_consume(value):
                yield from self.dispatcher.poll_step(thread)

    def probe(self) -> Generator:
        """LAPI_Probe: explicitly drive progress (polling mode)."""
        self._check_live()
        thread = self.current_thread()
        yield from thread.execute(self.config.poll_check_cost)
        if self.client.pending > 0:
            yield from self.dispatcher.drain(thread)

    def wait_for(self, predicate: Callable[[], bool]) -> Generator:
        """Block until ``predicate()`` holds, driving progress as the
        current mode requires.  Internal building block for fence,
        rmw_sync, and the GA layer."""
        thread = self.current_thread()
        while not predicate():
            if self.interrupt_mode:
                yield from thread.wait(self.ctx.progress_ws.wait())
            else:
                yield from self.dispatcher.poll_step(thread)

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
        from .vector import do_putv
        return do_putv(self, target, runs, tgt_cntr, org_cntr, cmpl_cntr)

    def getv(self, target: int, runs,
             org_cntr: Optional[LapiCounter] = None) -> Generator:
        """LAPI_Getv -- the non-contiguous get of section 6's future
        work: one call gathers ``(tgt_addr, org_addr, nbytes)`` runs."""
        self._check_live()
        from .vector import do_getv
        return do_getv(self, target, runs, org_cntr)

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
        """Put and wait until the data has completed at the target."""
        cmpl = self.counter()
        yield from self.put(target, length, tgt_addr, org_addr,
                            tgt_cntr=tgt_cntr, cmpl_cntr=cmpl)
        yield from self.waitcntr(cmpl, 1)

    def get_sync(self, target: int, length: int, tgt_addr: int,
                 org_addr: int) -> Generator:
        """Get and wait until the data has arrived locally."""
        org = self.counter()
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
        return do_qenv(self, key)

    def senv(self, key: SenvKey, value: int) -> None:
        """LAPI_Senv."""
        do_senv(self, key, value)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        mode = "interrupt" if self.interrupt_mode else "polling"
        return f"<Lapi rank={self.rank}/{self.size} {mode}>"
