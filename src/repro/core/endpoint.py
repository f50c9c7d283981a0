"""What a protocol stack needs to sit on an adapter, written once.

LAPI and MPL differ in their protocols -- packet formats, matching,
the rendezvous round trip, header handlers -- but not in how they
attach to the adapter or drive their receive side.  Both run the
paper's progress model (section 2.1): an interrupt-priority thread per
arrival burst in interrupt mode, the same processing inline from
library calls in polling mode.  This module owns that model:

* :class:`Endpoint` attaches a stack to its node's adapter at init,
  builds its :class:`ReliableTransport`, wires the transport and
  adapter hooks, registers the transport's metrics, sends every data
  message of both stacks (:meth:`Endpoint.send_packets`), completes
  it at its origin (:class:`SendRecord`) and receives it at its target
  (:class:`RecvRecord`), runs user handler code off the dispatcher
  (:meth:`Endpoint.run_handler`) and both stacks' barrier over the
  surviving ranks (:meth:`Endpoint.dissemination`), waits on progress,
  and handles peer failure, node restart and term;
* :class:`EndpointDispatcher` pulls packets off the adapter's RX FIFO,
  serialises them under the context's dispatch lock, charges the
  per-packet receive cost and drops retransmitted duplicates before
  handing each packet to the stack's ``_handle``.

A stack subclasses both, sets the class attributes below and keeps
only its protocol.
"""

from __future__ import annotations

from inspect import getclosurevars
from typing import TYPE_CHECKING, Callable, Generator, Iterable, Optional

from ..errors import PeerUnreachableError
from ..machine.cpu import HANDLER, INTERRUPT
from ..machine.packet import reserve_uids
from ..sim.park import linger_loop, poll_step
from .constants import PacketKind
from .reliability import ReliableTransport

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..machine.cluster import Task
    from ..machine.cpu import Thread
    from ..machine.packet import Packet

__all__ = ["Endpoint", "EndpointDispatcher", "RecvRecord", "SendRecord",
           "user_steps"]


def user_steps(result) -> Iterable:
    """What a user handler returned, to ``yield from`` on its thread:
    its generator, or no steps."""
    return result if result is not None and hasattr(result, "send") else ()


class SendRecord:
    """Origin-side completion of one data message of either stack: the
    packets ``left`` to count, acknowledged or completed in error, and
    ``on_complete``, run once when the last is counted."""

    __slots__ = ("left", "on_complete")

    def __init__(self, npkts: int,
                 on_complete: Optional[Callable[[], None]] = None) -> None:
        self.left = npkts
        self.on_complete = on_complete

    def acked(self, n: int = 1) -> None:
        self.left -= n
        if self.left == 0 and self.on_complete is not None:
            self.on_complete()


class RecvRecord:
    """Receive side of one data message of either stack, in its
    endpoint's ``recvs`` under ``key``, a tuple led by the sending peer
    ``src`` and the message id: ``total`` bytes, of which ``received``
    are placed.  The destination is known once the record is ``ready``;
    packets that arrive before that wait in ``stash`` as ``(offset,
    payload)``, in arrival order.  ``origin`` is the sending
    operation's span (None when spans are off)."""

    __slots__ = ("key", "src", "msg_id", "total", "received", "stash",
                 "origin", "ready", "stats")

    def __init__(self, key: tuple, total: int, stats,
                 origin: Optional[int] = None, ready: bool = False) -> None:
        self.key = key
        self.src, self.msg_id = key[0], key[1]
        self.total = total
        self.received = 0
        self.stash: list[tuple[int, bytes]] = []
        self.origin = origin
        self.ready = ready
        self.stats = stats  # the receiving stack's

    @property
    def complete(self) -> bool:
        return self.ready and self.received >= self.total

    def placed(self, n: int) -> None:
        """``n`` more bytes of the message are in place."""
        self.received += n
        self.stats.bytes_received += n


class Endpoint:
    """One task's attachment of a protocol stack to its adapter."""

    #: Adapter protocol id.
    PROTO: str
    #: Prefix of the stack's ``MachineConfig`` fields and thread names.
    PREFIX: str
    #: Metrics layer the transport registers under (``LAYER.reliability``).
    LAYER: str
    #: Exception raised on misuse, and its messages: use before init,
    #: use after term, init called twice.
    Error: type
    MISUSE: tuple[str, str, str]
    #: Per-task state (built with ``sim, rank, size``) and receive engine.
    Context: type
    Dispatcher: type

    def __init__(self, task: "Task", interrupt_mode: bool = True) -> None:
        self.task = task
        self.config = task.node.config
        cluster = task.cluster
        #: The cluster's simulator, span recorder (None when tracing is
        #: off) and tracer, taken once here so no operation goes
        #: through the task's weak cluster reference.
        self.sim = cluster.sim
        self.spans = self.sim.spans
        self.trace = cluster.trace
        self.ctx = self.Context(self.sim, task.rank, task.size)
        #: Receive record of each message arriving here, by its key.
        self.recvs: dict[tuple, RecvRecord] = {}
        self.interrupt_mode = interrupt_mode
        self.client = None
        self.transport: Optional[ReliableTransport] = None
        self.dispatcher: Optional[EndpointDispatcher] = None
        self._initialized = False
        self._terminated = False
        #: Interrupt-mask depth: while positive, arrivals raise no
        #: interrupt and waits poll (MPL's lockrnc; LAPI never masks).
        self._mask_depth = 0
        #: Called with the terminal error when the transport declares a
        #: peer unreachable; a truthy return suppresses the failure.
        self._error_handler: Optional[Callable] = None
        #: Barriers entered, one epoch each, and the epoch of the last
        #: one left (:meth:`dissemination`).
        self.barrier_epoch = 0
        self._barrier_left: Optional[int] = None

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
            raise self.Error(self.MISUSE[0])
        if self._terminated:
            raise self.Error(self.MISUSE[1])

    # ------------------------------------------------------------------
    # setup and teardown
    # ------------------------------------------------------------------
    def init(self) -> Generator:
        """Attach to the adapter and start the progress engine."""
        if self._initialized:
            raise self.Error(self.MISUSE[2])
        cfg = self.config
        prefix = self.PREFIX
        thread = self.current_thread()
        yield from thread.execute(getattr(cfg, prefix + "_call_overhead"))
        adapter = self.task.node.adapter
        self.client = adapter.attach_client(self.PROTO)
        # Jacobson/Karels timing exactly when a fault schedule is
        # installed, fixed-timeout arithmetic (and its bit-exact
        # virtual-time trajectory) otherwise.
        self.transport = ReliableTransport(
            self.sim, adapter, self.PROTO,
            window=getattr(cfg, prefix + "_window"),
            timeout=getattr(cfg, prefix + "_retrans_timeout"),
            adaptive=self.task.cluster.faults is not None,
            rto_min=cfg.rto_min,
            rto_max=cfg.rto_max, backoff=cfg.rto_backoff,
            degraded_after=cfg.peer_degraded_after,
            retry_budget=cfg.retry_budget)
        self.dispatcher = self.Dispatcher(self)
        self._send_cost = getattr(cfg, prefix + "_pkt_send_cost")
        self.transport.wait_for = self.wait_for
        self.transport.on_progress = self.ctx.progress_ws.notify_all
        self.transport.on_fatal = self._retries_exhausted
        self.client.delivery_filter = self._ack_fast_path
        self.client.on_arrival = self._spawn_interrupt_dispatcher
        self.client.interrupts_enabled = self.interrupt_mode
        self._register_metrics()
        resilience = self.task.cluster.resilience
        if resilience is not None:
            resilience.attach_stack(self.task.node.node_id, self)
        self._initialized = True

    def _register_metrics(self) -> None:
        """Wire the transport into the cluster's observability registry.
        Stacks extend this with their own collectors."""
        metrics = self.task.cluster.metrics
        rank = self.ctx.rank
        subsystem = self.LAYER + ".reliability"
        self.transport.ack_rtt = metrics.histogram(
            subsystem, "ack_rtt_us", node=rank)
        metrics.register_collector(subsystem, self.transport.metrics,
                                   node=rank)
        timeline = self.task.cluster.telemetry
        if timeline is not None:
            # Timeline-only goodput stream: a per-window curve with
            # no end-of-run metric, so the registry's snapshots/renders
            # stay identical armed or disarmed.  Both stacks share the
            # subsystem so cross-stack goodput sums per window.
            self.transport.rx_goodput_bytes = timeline.stream_counter(
                "telemetry.transport", "rx_payload_bytes", node=rank)

    def term(self) -> Generator:
        """Quiesce (collective) and detach."""
        self._check_live()
        yield from self.barrier()
        yield from self.wait_for(lambda: self.ctx.active_handlers == 0)
        # All peers have passed the barrier: nothing further will arrive.
        self._terminated = True
        self.client.interrupts_enabled = False

    def unlink(self) -> None:
        """Cut the cycles a running endpoint closes, once its cluster
        is dropped: the hooks it installed on its adapter client and
        transport are bound to it, its dispatcher and task refer back
        to it, and so do the gates of waits the drop left registered.
        The error handler is user code, which may hold the task."""
        if self.client is not None:
            self.client.on_arrival = self.client.delivery_filter = None
        if self.transport is not None:
            self.transport.wait_for = self.transport.on_fatal = None
        self.ctx.progress_ws.clear()
        self.dispatcher = self.task = self._error_handler = None

    # ------------------------------------------------------------------
    # sending
    # ------------------------------------------------------------------
    def reserve_message(self, npkts: int, parent: Optional[int], op: str,
                        nbytes: int) -> int:
        """Take the uids of a message's ``npkts`` packets; returns the
        first.  Spans bind them to ``parent`` as ``op`` moving
        ``nbytes`` before any packet is built."""
        uid = reserve_uids(npkts)
        sp = self.spans
        if sp is not None:
            sp.bind_packets(uid, npkts, parent, op, nbytes)
        return uid

    def send_packets(self, thread: "Thread", packets: Iterable["Packet"], *,
                     record: Optional[SendRecord] = None,
                     chained: bool = False) -> Generator:
        """The one sender of both stacks: stream a message's data
        packets from ``thread``, each taken from ``packets`` just
        before it goes.  Each pays the stack's send cost, but a first
        one whose cost rode the caller's chain (``chained``), then
        waits for a window credit.

        ``record`` counts the packets' acknowledgements, including
        those ``peer_down`` fires in error.  A refused packet and every
        one after it complete in error before the refusal propagates,
        so the message completes, and a fence after it returns."""
        send_cost = self._send_cost
        send_data = self.transport.send_data
        on_ack = None if record is None else record.acked
        for pkt in packets:
            if chained:
                chained = False
            else:
                yield from thread.execute(send_cost)
            try:
                yield from send_data(thread, pkt, on_ack=on_ack)
            except PeerUnreachableError:
                if record is not None:
                    # The open breaker has cleared every packet sent:
                    # what is left was never sent.
                    record.acked(record.left)
                    self.ctx.progress_ws.notify_all()
                raise

    def dissemination(self) -> Generator:
        """The barrier of both stacks: a dissemination barrier over the
        ranks alive at entry (not in ``task.dead_peers``).  Round
        ``rnd`` of the stack's ``_barrier_token(thread, epoch, view,
        rnd, to, frm, moved)`` sends a token ``2**rnd`` ranks ahead,
        waits until the one from as far behind arrives or ``moved()``,
        and returns whether it arrived (``frm`` None: send only).

        A token carries the barrier's epoch and the membership ``view``
        it was sent under, a bit per dead rank, so one sent under one
        view never ends a wait under another.  A loss recorded
        mid-barrier (:meth:`_peer_lost`) restarts the schedule over the
        new survivors.  Returns the barrier's epoch."""
        thread = self.current_thread()
        dead = self.task.dead_peers
        epoch = self.barrier_epoch
        self.barrier_epoch += 1
        while True:
            ndead = len(dead)

            def moved(ndead=ndead) -> bool:
                return len(dead) != ndead

            view, rounds = self._schedule()
            for rnd, (to, frm) in enumerate(rounds):
                if moved() or not (yield from self._barrier_token(
                        thread, epoch, view, rnd, to, frm, moved)):
                    break
            else:
                break
        self._barrier_left = epoch
        return epoch

    def _schedule(self) -> tuple[int, list[tuple[int, int]]]:
        """The membership view now, and each round's ``(to, frm)``
        over the ranks it holds alive."""
        dead = self.task.dead_peers
        size = self.ctx.size
        if dead:
            alive = [r for r in range(size) if r not in dead]
            view = sum(1 << r for r in dead)
        else:
            alive, view = range(size), 0
        n = len(alive)
        me = alive.index(self.ctx.rank)
        rounds = []
        dist = 1
        while dist < n:
            rounds.append((alive[(me + dist) % n], alive[(me - dist) % n]))
            dist <<= 1
        return view, rounds

    def _replay_barrier(self) -> None:
        """Resend this rank's tokens of the last barrier it left, under
        the view after a loss.  Having left, it knows that every rank
        entered, so the tokens are true at once, and a survivor that
        had not left restarts under the new view and needs them."""
        epoch = self._barrier_left
        view, rounds = self._schedule()

        def replay(thread):
            for rnd, (to, _) in enumerate(rounds):
                yield from self._barrier_token(thread, epoch, view, rnd, to,
                                               None, None)

        self.task.node.cpu.spawn(
            replay, name=f"{self.PREFIX}{self.rank}.replay", priority=HANDLER)

    # ------------------------------------------------------------------
    # progress
    # ------------------------------------------------------------------
    def run_handler(self, kind: str, body: Callable,
                    then: Optional[Callable] = None) -> None:
        """Run user handler code on its own HANDLER thread
        ``{PREFIX}{rank}.<kind>``: the steps of ``body(thread)``, the
        stack's charges around the user's call (:func:`user_steps`),
        counted in ``ctx.active_handlers`` until they end, in error too;
        then those of the stack's follow-up ``then(thread)``; then, the
        count dropped, the progress notify ``term`` waits for."""
        ctx = self.ctx
        ctx.active_handlers += 1

        def handler(thread):
            try:
                yield from body(thread)
            finally:
                ctx.active_handlers -= 1
            if then is not None:
                yield from then(thread)
            ctx.progress_ws.notify_all()

        self.task.node.cpu.spawn(
            handler, name=f"{self.PREFIX}{ctx.rank}.{kind}", priority=HANDLER)

    def wait_for(self, predicate: Callable[[], bool]) -> Generator:
        """Block until ``predicate()`` holds, driving progress as the
        current mode requires.  Every blocking call of either stack
        waits here, ``waitcntr`` and send-window credits included.

        In interrupt mode the thread sleeps on a gated progress wait:
        a notify wakes it only once ``predicate`` holds or the stack
        has left interrupt mode (``set_interrupt_mode(False)``, MPL's
        ``lockrnc``), when it must go on polling instead.  Every
        ``predicate`` is a pure read (see :meth:`WaitSet.wait
        <repro.sim.sync.WaitSet.wait>`).
        """
        thread = self.current_thread()

        def can_leave() -> bool:
            return predicate() or not (self.interrupt_mode
                                       and self._mask_depth == 0)

        while not predicate():
            if self.interrupt_mode and self._mask_depth == 0:
                yield from thread.wait(self.ctx.progress_ws.wait(can_leave))
            else:
                yield from self.dispatcher.poll_step(thread, predicate)

    def ready_waits(self) -> list[str]:
        """``"<wait set>: <predicate>"`` for each interrupt-mode
        :meth:`wait_for` whose condition holds but which no notify has
        woken, naming the predicate the caller gave (not the gate that
        wraps it)."""
        ws = self.ctx.progress_ws
        named = [getclosurevars(gate).nonlocals.get("predicate", gate)
                 for gate in ws.ready()]
        return [f"{ws.name}: {fn.__qualname__}" for fn in named]

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

    def _spawn_interrupt_dispatcher(self) -> None:
        """Adapter arrival hook: run the dispatcher at interrupt priority."""
        if self._mask_depth > 0:
            # Interrupts masked: serviced when the mask lifts.
            return
        self.task.node.cpu.spawn(
            self.dispatcher.interrupt_service,
            name=f"{self.PREFIX}{self.rank}.irq", priority=INTERRUPT)

    # ------------------------------------------------------------------
    # failures (called by the transport and by repro.resilience)
    # ------------------------------------------------------------------
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

    def _retries_exhausted(self, err) -> None:
        """The transport's retry budget toward ``err.peer`` ran out (its
        breaker is already open): record the loss as a conviction does,
        then route the error through the handler and ``fail_run``."""
        self._peer_lost(err.peer)
        self._transport_fatal(err)

    def peer_unreachable(self, peer: int, err) -> None:
        """The failure detector convicted ``peer``.

        Crash-aware cleanup first (always, :meth:`_peer_lost`).  Then
        policy: under ``on_peer_failure="fail"`` the error routes
        through the registered handler and ``Cluster.fail_run``; under
        ``"continue"`` the survivors keep running degraded.
        """
        self._peer_lost(peer)
        if self.task.cluster.on_peer_failure == "fail":
            self._transport_fatal(err)

    def _peer_lost(self, peer: int) -> None:
        """What either way of losing ``peer`` does first, in this order:
        the peer joins ``task.dead_peers`` (the node's one record, which
        barrier waits read), the transport's breaker opens (in-flight
        operations toward it complete in error, credits post), and only
        then are progress waiters notified -- their gates read the
        record, so it must be written before the notify.  A barrier
        waiting restarts on the change; a rank that has left one replays
        its tokens of the last (:meth:`_replay_barrier`)."""
        self.task.dead_peers.add(peer)
        self.transport.peer_down(peer)
        self.ctx.progress_ws.notify_all()
        if self._barrier_left is not None:
            self._replay_barrier()

    def peer_absolved(self, peer: int) -> None:
        """The detector heard from a convicted peer again (machine
        restart): close the breaker.  The peer's *task* stays dead, so
        it remains in ``task.dead_peers`` -- reachability is not
        resurrection."""
        self.transport.breaker_close(peer)

    def crash_reset(self) -> None:
        """This stack's own node restarted after a fail-stop crash:
        clear all protocol state (the restarted machine has no memory
        of in-flight transfers)."""
        self.transport._tx.clear()
        self.transport._rx.clear()
        self.recvs.clear()
        self.ctx.crash_reset()


class EndpointDispatcher:
    """Receive loop of one endpoint; stacks supply ``_handle``."""

    def __init__(self, endpoint: Endpoint) -> None:
        self.endpoint = endpoint
        self.ctx = endpoint.ctx
        self.recvs = endpoint.recvs
        self.config = cfg = endpoint.config
        self._recv_cost = getattr(cfg, endpoint.PREFIX + "_pkt_recv_cost")
        self._recv_amortized = getattr(
            cfg, endpoint.PREFIX + "_pkt_recv_amortized")

    # ------------------------------------------------------------------
    # entry points
    # ------------------------------------------------------------------
    def drain(self, thread: "Thread") -> Generator:
        """Process every packet currently queued; returns the count."""
        rx = self.endpoint.client.rx
        processed = 0
        while True:
            ok, pkt = rx.try_get()
            if not ok:
                break
            yield from self.process(thread, pkt, amortized=processed > 0)
            processed += 1
        if processed:
            self.ctx.progress_ws.notify_all()
        return processed

    def poll_step(self, thread: "Thread",
                  done: Callable[[], bool]) -> Generator:
        """One polling-mode progress step of a wait for ``done()`` (see
        :func:`repro.sim.park.poll_step`)."""
        return poll_step(thread, self, self.endpoint.client.rx,
                         self.ctx.progress_ws, self.config.poll_check_cost,
                         done)

    def interrupt_service(self, thread: "Thread") -> Generator:
        """Body of the interrupt-mode dispatcher thread.

        One hardware interrupt services a whole packet burst: after
        draining, the thread lingers briefly (releasing the CPU) and
        absorbs closely-following packets at the amortized rate -- the
        interrupt coalescing that keeps bulk streams from paying the
        full interrupt cost per packet.
        """
        self.ctx.stats.interrupts_taken += 1
        yield from thread.execute(self.config.interrupt_latency)
        yield from self.drain(thread)
        client = self.endpoint.client
        yield from linger_loop(thread, self, client.rx,
                               self.ctx.progress_ws,
                               self.config.interrupt_linger)
        # Re-arm before exiting; arrivals from now on re-fire.
        client.arm_interrupt()

    # ------------------------------------------------------------------
    # per-packet processing
    # ------------------------------------------------------------------
    def process(self, thread: "Thread", pkt: "Packet",
                amortized: bool = False) -> Generator:
        """Handle one packet under the dispatch lock.

        ``amortized`` marks packets after the first of a dispatch
        batch: the wake-up/demux overhead is shared, so they pay the
        cheaper bulk rate.
        """
        ctx = self.ctx
        lock = ctx.dispatch_lock
        if not lock.try_acquire(thread):
            yield from thread.wait(lock.acquire(owner=thread))
        try:
            ctx.stats.packets_processed += 1
            endpoint = self.endpoint
            if endpoint.trace is not None:
                self._trace(endpoint.trace, thread, pkt)
            sp = endpoint.spans
            yield from thread.execute(self._recv_amortized if amortized
                                      else self._recv_cost)
            if sp is not None:
                sp.packet_dispatched(pkt, thread.sim.now)
            # False: a duplicate delivery (retransmission overlap).
            if endpoint.transport.on_packet(pkt):
                yield from self._handle(thread, pkt)
        finally:
            lock.release()

    def _trace(self, trace, thread: "Thread", pkt: "Packet") -> None:
        """Record the packet's dispatch with the cluster tracer."""

    def _handle(self, thread: "Thread", pkt: "Packet") -> Generator:
        """The stack's per-kind handling of one fresh packet."""
        raise NotImplementedError

    def record(self, key: tuple, pkt: "Packet") -> RecvRecord:
        """The receive record of ``pkt``'s message, under ``key``; its
        first packet to arrive opens it, with the span that sent it."""
        rec = self.recvs.get(key)
        if rec is None:
            sp = self.endpoint.spans
            rec = self.recvs[key] = self._open(
                key, pkt, sp.origin_of(pkt) if sp is not None else None)
        return rec

    def _open(self, key: tuple, pkt: "Packet",
              origin: Optional[int]) -> RecvRecord:
        """The stack's record of the message whose first packet to
        arrive is ``pkt``."""
        raise NotImplementedError
