"""Reliable packet transport over the (lossy, reordering) SP switch.

The switch may drop packets (CRC errors, link faults) and the multipath
core reorders them; both LAPI and MPL therefore run a per-peer
sequencing/acknowledgement/retransmission layer.  Section 5.3.1 notes
its sender-side consequence: LAPI copies small messages into internal
buffers "since retransmissions might be required in a case of switch
failures" -- that copy is what lets small sends return immediately.

Design:

* every reliable packet gets a per-``(self, peer)`` sequence number;
* the receiver acknowledges each packet (control path, no CPU thread)
  and filters duplicates with a cumulative watermark + sparse set;
* the sender keeps unacknowledged packets and retransmits them after a
  timeout (a per-peer ``call_at`` chain, armed while packets remain
  unacknowledged; see ``_arm_timer``); retransmitted
  *data* packets re-enter the adapter through the credit-accounted
  data path (best-effort, retried next round when the TX FIFO is
  saturated) while control packets keep their reserved slots;
* *data* packets additionally consume send-window credits, giving
  end-to-end flow control that back-pressures the sending thread; pure
  control packets bypass the window so a dispatcher can always respond
  without blocking (deadlock freedom).

Retransmission timing comes in two modes (see ``docs/reliability.md``);
the owning stack selects adaptive exactly when a ``FaultSchedule`` is
installed:

* **fixed**: every packet's retransmit deadline is ``now + timeout``
  -- the original arithmetic, kept bit-for-bit so fault-free runs are
  byte-identical to historical outputs;
* **adaptive**: Jacobson/Karels smoothed-RTT
  estimation (``SRTT + 4*RTTVAR``, clamped to ``[rto_min, rto_max]``)
  with exponential per-round backoff and Karn's rule (no RTT sample
  from a retransmitted packet), plus a per-peer health state machine
  ``healthy -> degraded -> unreachable``.

Terminal failures (a peer that never acknowledges) no longer raise out
of the bare kernel timer callback: they are routed through the
``on_fatal`` hook, which the owning stack points at its registered
error handler (``LAPI_Init`` semantics) and ultimately at
``Cluster.fail_run`` so the run terminates cleanly with full
node/peer/attempt context.

The class is protocol-agnostic: LAPI instantiates it with its packet
kinds, MPL with its own.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Generator, Optional

from ..errors import PeerUnreachableError
from ..machine.packet import Packet as _Packet

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..machine.adapter import Adapter
    from ..machine.cpu import Thread
    from ..machine.packet import Packet
    from ..sim import Simulator

__all__ = ["ReliableTransport", "ACK_HEADER_BYTES",
           "HEALTHY", "DEGRADED", "UNREACHABLE"]

#: Wire size of a bare acknowledgement packet.
ACK_HEADER_BYTES = 16

#: Peer health states (sender-side view of one destination).
HEALTHY = "healthy"
DEGRADED = "degraded"
UNREACHABLE = "unreachable"


class _PeerTx:
    """Sender-side state toward one peer."""

    __slots__ = ("next_seq", "unacked", "credits", "timer_running",
                 "attempts", "srtt", "rttvar", "rto", "backoff_mult",
                 "health")

    def __init__(self, window: int, rto: float) -> None:
        self.next_seq = 0
        #: seq -> (packet, deadline, uses_window, on_ack, sent_at)
        self.unacked: dict[int, tuple] = {}
        #: seq -> retransmission count.
        self.attempts: dict[int, int] = {}
        #: Free send-window slots: data packets that may still go
        #: out before an acknowledgement returns one.
        self.credits = window
        self.timer_running = False
        # Adaptive-RTO estimator state (Jacobson/Karels).  ``srtt`` is
        # None until the first valid sample; ``rto`` starts at the
        # configured timeout, the conventional pre-sample initial RTO.
        self.srtt: Optional[float] = None
        self.rttvar = 0.0
        self.rto = rto
        #: Karn backoff multiplier; doubles per retransmitting timer
        #: round, resets to 1.0 on any fresh acknowledgement.
        self.backoff_mult = 1.0
        #: ``UNREACHABLE`` doubles as the open circuit breaker: set
        #: once the peer is convicted (by the failure detector) or
        #: exhausts its retry budget.  Open, data sends fail fast and
        #: control sends are suppressed -- no more retransmit storms
        #: toward a dead peer.  Closed again when the detector absolves
        #: the peer after a machine restart.
        self.health = HEALTHY


#: ``_PeerRx.seen`` of every peer that has had only in-order deliveries.
_NONE_SEEN: frozenset[int] = frozenset()


class _PeerRx:
    """Receiver-side duplicate filter for one peer."""

    __slots__ = ("cum", "seen")

    def __init__(self) -> None:
        #: All seqs < cum have been delivered.
        self.cum = 0
        #: Delivered seqs above ``cum``.  Shared and empty until the
        #: first out-of-order delivery, so an in-order peer costs no set.
        self.seen: set[int] | frozenset[int] = _NONE_SEEN

    def fresh(self, seq: int) -> bool:
        """Record ``seq``; True if it has not been delivered before."""
        seen = self.seen
        if seq == self.cum and not seen:
            self.cum = seq + 1
            return True
        if seq < self.cum or seq in seen:
            return False
        if seen is _NONE_SEEN:
            seen = self.seen = set()
        seen.add(seq)
        while self.cum in seen:
            seen.remove(self.cum)
            self.cum += 1
        return True


class ReliableTransport:
    """Sequencing + ack + retransmission for one protocol stack."""

    def __init__(self, sim: "Simulator", adapter: "Adapter", proto: str,
                 *, window: int, timeout: float, adaptive: bool,
                 rto_min: float, rto_max: float, backoff: float,
                 degraded_after: int, retry_budget: int) -> None:
        self.sim = sim
        self.adapter = adapter
        self.proto = proto
        self.window_size = window
        self.timeout = timeout
        #: Adaptive (Jacobson/Karels) retransmission timing.  When off, the
        #: fixed-timeout arithmetic below is kept bit-identical to the
        #: historical path, which the byte-identity contract of
        #: fault-free runs depends on.
        self.adaptive = adaptive
        self.rto_min = rto_min
        self.rto_max = rto_max
        self.backoff = backoff
        self.degraded_after = degraded_after
        #: Retransmissions of one packet before giving up on the peer.
        #: Real transports give up too; in the model the overwhelmingly
        #: common cause is a program bug (mismatched collectives leaving
        #: one task retransmitting to a terminated peer), and a loud
        #: error beats an eternal silent retry loop.
        self.retry_budget = retry_budget
        self._tx: dict[int, _PeerTx] = {}
        self._rx: dict[int, _PeerRx] = {}
        #: Called with (packet) after every retransmission (stats hooks).
        self.on_retransmit: Optional[Callable[["Packet"], None]] = None
        #: Called with the terminal :class:`PeerUnreachableError` when a
        #: peer exhausts its retransmission budget.  The owning stack
        #: installs a structured handler (user error handler +
        #: ``Cluster.fail_run``); without one the error is raised from
        #: the timer callback -- loud, but with no run context.
        self.on_fatal: Optional[
            Callable[[PeerUnreachableError], None]] = None
        #: Generator ``(predicate) -> None`` that blocks the calling
        #: thread until ``predicate()`` holds; :meth:`send_data` waits
        #: on it for a window credit.  The owning stack installs its
        #: ``Endpoint.wait_for``: in polling mode the waiting thread
        #: must drive the dispatcher (to process the very
        #: acknowledgements that free credits), or a long transfer
        #: deadlocks -- the polling-mode hazard section 2.1 warns
        #: about, solved the way real LAPI does: every LAPI call makes
        #: progress.
        self.wait_for: Optional[Callable] = None
        #: Called after every acknowledgement is applied; the stack
        #: points it at its progress wait-set, where senders blocked
        #: on a window credit wait.
        self.on_progress: Optional[Callable[[], None]] = None
        # Statistics
        self.retransmissions = 0
        self.duplicates_dropped = 0
        self.acks_sent = 0
        #: Acknowledgements for already-acked or unknown sequence
        #: numbers (retransmission overlap); previously silently
        #: dropped, now counted.
        self.duplicate_acks = 0
        #: Data retransmissions deferred because the TX FIFO had no
        #: free credit (retried on the next timer round).
        self.retransmit_backoffs = 0
        #: RTT samples skipped under Karn's rule (the packet had been
        #: retransmitted, so the ack is ambiguous).
        self.karn_skips = 0
        #: Peer health transitions (healthy -> degraded and back).
        self.peer_degraded_events = 0
        self.peer_recovered_events = 0
        #: Circuit-breaker transitions and consequences: opens (the
        #: peer declared unreachable, by conviction or retry-budget
        #: exhaustion), closes (peer absolved after a machine restart),
        #: control packets suppressed while open, and in-flight
        #: operations completed in error when an open cleared them.
        self.breaker_opens = 0
        self.breaker_closes = 0
        self.breaker_suppressed = 0
        self.completed_in_error = 0
        #: Optional :class:`repro.obs.Histogram` observing the
        #: virtual-time gap between a packet's (latest) injection and
        #: its acknowledgement.  Installed by the owning stack.
        self.ack_rtt = None
        #: Optional timeline counter stream
        #: (:mod:`repro.obs.timeline`), installed by the owning stack
        #: when cluster telemetry is armed: fresh (first-delivery)
        #: payload bytes received -- the per-window goodput curve the
        #: chaos bench reads.  Disarmed, the delivery path pays a
        #: single ``is None`` test.
        self.rx_goodput_bytes = None

    # ------------------------------------------------------------------
    def _peer_tx(self, peer: int) -> _PeerTx:
        st = self._tx.get(peer)
        if st is None:
            st = _PeerTx(self.window_size, self.timeout)
            self._tx[peer] = st
        return st

    def _peer_rx(self, peer: int) -> _PeerRx:
        st = self._rx.get(peer)
        if st is None:
            st = _PeerRx()
            self._rx[peer] = st
        return st

    def outstanding_to(self, peer: int) -> int:
        """Unacknowledged packets in flight toward ``peer``."""
        st = self._tx.get(peer)
        return len(st.unacked) if st is not None else 0

    def outstanding_total(self) -> int:
        return sum(len(st.unacked) for st in self._tx.values())

    def peer_health(self, peer: int) -> str:
        """Health state of one destination (sender-side view)."""
        st = self._tx.get(peer)
        return st.health if st is not None else HEALTHY

    def peer_rto(self, peer: int) -> float:
        """Current estimated RTO toward ``peer`` (before backoff)."""
        st = self._tx.get(peer)
        return st.rto if st is not None else self.timeout

    # ------------------------------------------------------------------
    # send side
    # ------------------------------------------------------------------
    def send_data(self, thread: "Thread", packet: "Packet",
                  on_ack: Optional[Callable[[], None]] = None) -> Generator:
        """Send a data packet from a CPU thread, honouring the window.

        Blocks (in virtual time) while the peer's send window is full.
        ``on_ack`` fires when this packet is acknowledged.  Raises
        :class:`PeerUnreachableError` immediately (fail fast, no
        retransmit storm) while the peer's circuit breaker is open, and
        after a credit wait during which it opened.
        """
        st = self._peer_tx(packet.dst)
        if st.health == UNREACHABLE:
            raise self._breaker_error(packet.dst)
        if st.credits == 0:
            yield from self.wait_for(lambda: st.credits > 0)
            if st.health == UNREACHABLE:
                raise self._breaker_error(packet.dst)
        st.credits -= 1
        self._register(st, packet, uses_window=True, on_ack=on_ack)
        yield from self.adapter.inject(thread, packet)

    def check_reachable(self, peer: int) -> None:
        """Raise :class:`PeerUnreachableError` while ``peer``'s breaker
        is open, as :meth:`send_data` does: for a caller about to send
        control traffic that the breaker would suppress."""
        if self._peer_tx(peer).health == UNREACHABLE:
            raise self._breaker_error(peer)

    def send_control(self, packet: "Packet",
                     on_ack: Optional[Callable[[], None]] = None) -> None:
        """Send a control packet reliably, bypassing the window.

        Callable from dispatcher context (no thread, never blocks); the
        adapter reserves control slots so injection always succeeds.
        While the peer's circuit breaker is open the packet is
        *suppressed* (counted, never injected, ``on_ack`` never fires):
        dispatcher context cannot absorb an exception, and a dead peer
        will not answer anyway.
        """
        st = self._peer_tx(packet.dst)
        if st.health == UNREACHABLE:
            self.breaker_suppressed += 1
            return
        self._register(st, packet, uses_window=False, on_ack=on_ack)
        self.adapter.inject_control(packet)

    def _deadline(self, st: _PeerTx, now: float) -> float:
        """Retransmit deadline for a packet (re)injected at ``now``."""
        if self.adaptive:
            return now + min(st.rto * st.backoff_mult, self.rto_max)
        return now + self.timeout

    def _register(self, st: _PeerTx, packet: "Packet", *,
                  uses_window: bool, on_ack) -> None:
        packet.seq = st.next_seq
        st.next_seq += 1
        now = self.sim.now
        st.unacked[packet.seq] = (packet, self._deadline(st, now),
                                  uses_window, on_ack, now)
        if not st.timer_running:
            st.timer_running = True
            self._arm_timer(packet.dst, st)

    def _arm_timer(self, peer: int, st: _PeerTx) -> None:
        """Schedule the next retransmit check for ``peer``.

        The timer used to be a per-peer generator process
        (boot event + a :class:`Timeout` per round); it is now a
        :meth:`Simulator.call_at` chain -- one bare heap entry per
        round, re-armed from the fire callback while packets remain
        unacknowledged.  The delay arithmetic is unchanged, so rounds
        fire at the same virtual instants the process-based timer did.
        """
        horizon = min(d for (_, d, _, _, _) in st.unacked.values())
        delay = max(horizon - self.sim.now, self.timeout * 0.25)
        self.sim.call_at(self.sim.now + delay, self._timer_fire, (peer, st))

    def _timer_fire(self, peer_st: tuple) -> None:
        """One retransmit round: re-inject packets whose ack is overdue.

        Data packets re-enter through :meth:`Adapter.inject_async` so
        the retransmission consumes a TX FIFO credit exactly like the
        original injection (the timer has no CPU thread to block, so a
        saturated FIFO defers the packet to the next round instead).
        Control packets keep their reserved slots via
        :meth:`Adapter.inject_control`.
        """
        peer, st = peer_st
        if self.adapter.crashed or st.health == UNREACHABLE:
            # This node died (its timers die with it) or the peer was
            # declared unreachable and its in-flight state already
            # cleared: either way the chain ends here.
            st.timer_running = False
            return
        now = self.sim.now
        retransmitted_any = False
        for seq in sorted(st.unacked):
            pkt, deadline, uses_window, on_ack, sent_at = \
                st.unacked[seq]
            if deadline > now:
                continue
            tries = st.attempts.get(seq, 0) + 1
            if tries > self.retry_budget:
                self._peer_fatal(peer, pkt, tries)
                return
            if uses_window:
                if not self.adapter.inject_async(pkt):
                    # TX FIFO saturated: defer without charging an
                    # attempt; the backlog drains in virtual time.
                    self.retransmit_backoffs += 1
                    st.unacked[seq] = (pkt, now + self.timeout * 0.25,
                                       uses_window, on_ack, sent_at)
                    continue
            else:
                self.adapter.inject_control(pkt)
            st.attempts[seq] = tries
            self.retransmissions += 1
            retransmitted_any = True
            flight = self.sim.flight
            if flight is not None:
                flight.note(self.adapter.node_id, "core.reliability",
                            "retransmit", peer=peer, pkt_seq=seq,
                            tries=tries, kind=str(pkt.kind))
            if (self.adaptive and st.health == HEALTHY
                    and tries >= self.degraded_after):
                st.health = DEGRADED
                self.peer_degraded_events += 1
            st.unacked[seq] = (pkt, self._deadline(st, now),
                               uses_window, on_ack, now)
            if self.on_retransmit is not None:
                self.on_retransmit(pkt)
        if self.adaptive and retransmitted_any:
            # Karn backoff: the round timed out, so double the effective
            # RTO for the next one (bounded by rto_max at deadline
            # computation).
            st.backoff_mult *= self.backoff
        if st.unacked:
            self._arm_timer(peer, st)
        else:
            st.timer_running = False

    def _peer_fatal(self, peer: int, pkt: "Packet", tries: int) -> None:
        """Declare ``peer`` unreachable and route the terminal error.

        Opens the breaker (:meth:`peer_down`) and hands a
        :class:`PeerUnreachableError` with full context to
        ``on_fatal``.  Raising from here -- a bare kernel timer
        callback -- is the fallback for bare transports only; stacks
        install a structured path through the registered error handler
        and ``Cluster.fail_run``.
        """
        self.peer_down(peer)
        err = PeerUnreachableError(
            f"{self.proto}@{self.adapter.node_id}: no"
            f" acknowledgement from node {peer} after"
            f" {tries - 1} retransmissions of {pkt!r}"
            " -- peer terminated or collective calls"
            " are mismatched")
        err.proto = self.proto
        err.node = self.adapter.node_id
        err.peer = peer
        err.attempts = tries - 1
        err.via = "retries"
        flight = self.sim.flight
        if flight is not None:
            # Black-box dump before the error routes anywhere: the ring
            # holds the retransmit history that led here.
            flight.trigger(
                "peer-unreachable",
                key=("peer", self.proto, self.adapter.node_id, peer),
                proto=self.proto, node=self.adapter.node_id, peer=peer,
                attempts=tries - 1)
        if self.on_fatal is not None:
            self.on_fatal(err)
        else:
            raise err

    # ------------------------------------------------------------------
    # circuit breaker
    # ------------------------------------------------------------------
    def peer_down(self, peer: int) -> None:
        """Open ``peer``'s breaker and abandon everything in flight.

        The one teardown, whether the failure detector convicted the
        peer or its retry budget ran out: marks it unreachable, stops
        its timer chain and clears every in-flight entry in sequence
        order, returning the entry's window credit and then firing its
        ``on_ack`` as a counted *completion in error* (counters advance
        so waiters unblock; the data was **not** delivered).  The
        owning stack notifies its progress waiters afterwards, senders
        blocked on a credit among them.  Idempotent.
        """
        st = self._peer_tx(peer)
        if st.health == UNREACHABLE:
            return
        st.health = UNREACHABLE
        self.breaker_opens += 1
        st.timer_running = False
        cleared = sorted(st.unacked.items())
        st.unacked.clear()
        st.attempts.clear()
        for _, (_, _, uses_window, on_ack, _) in cleared:
            if uses_window:
                st.credits += 1
            if on_ack is not None:
                self.completed_in_error += 1
                on_ack()

    def breaker_close(self, peer: int) -> None:
        """The detector absolved ``peer`` (machine restart): close the
        breaker so control traffic flows again.  Idempotent."""
        st = self._tx.get(peer)
        if st is None or st.health != UNREACHABLE:
            return
        st.health = HEALTHY
        st.backoff_mult = 1.0
        self.breaker_closes += 1

    def _breaker_error(self, peer: int) -> PeerUnreachableError:
        err = PeerUnreachableError(
            f"{self.proto}@{self.adapter.node_id}: peer node {peer} is"
            " unreachable (circuit breaker open -- the failure detector"
            " convicted it or its retry budget is exhausted)")
        err.proto = self.proto
        err.node = self.adapter.node_id
        err.peer = peer
        return err

    # ------------------------------------------------------------------
    # receive side
    # ------------------------------------------------------------------
    def on_packet(self, packet: "Packet") -> bool:
        """Process an arriving reliable packet.

        Sends the acknowledgement and returns True exactly when the
        packet is fresh (first delivery); duplicates return False and
        must not be re-applied by the protocol layer.
        """
        self.adapter.inject_control(_Packet(
            src=self.adapter.node_id, dst=packet.src, proto=self.proto,
            kind="ack", header_bytes=ACK_HEADER_BYTES,
            info={"acked_seq": packet.seq}))
        self.acks_sent += 1
        fresh = self._peer_rx(packet.src).fresh(packet.seq)
        if not fresh:
            self.duplicates_dropped += 1
        elif self.rx_goodput_bytes is not None:
            # First delivery: what the application actually receives.
            # Duplicates and retransmitted copies of already-delivered
            # packets are *not* goodput -- that distinction is the whole
            # point of the per-window recovery curves.
            self.rx_goodput_bytes.add(len(packet.payload))
        return fresh

    def _observe_rtt(self, st: _PeerTx, sample: float) -> None:
        """Fold one valid RTT sample into the Jacobson/Karels estimator
        (alpha = 1/8, beta = 1/4; RTO = SRTT + 4*RTTVAR, clamped)."""
        if st.srtt is None:
            st.srtt = sample
            st.rttvar = sample / 2.0
        else:
            delta = sample - st.srtt
            st.srtt += 0.125 * delta
            st.rttvar += 0.25 * (abs(delta) - st.rttvar)
        st.rto = min(max(st.srtt + 4.0 * st.rttvar, self.rto_min),
                     self.rto_max)

    def on_ack(self, packet: "Packet") -> None:
        """Process an arriving acknowledgement.

        Duplicate acknowledgements (retransmission overlap: both the
        original and the retransmitted copy got acked) and acks from
        peers with no send state are counted, not silently dropped.
        Karn's rule applies to RTT sampling: an ack for a packet that
        was ever retransmitted is ambiguous (it may answer the original
        injection), so it contributes no sample to ``ack_rtt`` or the
        adaptive estimator.
        """
        st = self._tx.get(packet.src)
        if st is None:
            self.duplicate_acks += 1
            self._retire_ack(packet)
            return
        seq = packet.info["acked_seq"]
        entry = st.unacked.pop(seq, None)
        if entry is None:
            self.duplicate_acks += 1
            self._retire_ack(packet)
            return
        retransmitted = seq in st.attempts
        st.attempts.pop(seq, None)
        _, _, uses_window, on_ack, sent_at = entry
        if retransmitted:
            self.karn_skips += 1
        else:
            if self.ack_rtt is not None:
                self.ack_rtt.observe(self.sim.now - sent_at)
            if self.adaptive:
                self._observe_rtt(st, self.sim.now - sent_at)
        if self.adaptive:
            st.backoff_mult = 1.0
            if st.health == DEGRADED:
                st.health = HEALTHY
                self.peer_recovered_events += 1
        if uses_window:
            st.credits += 1
        if on_ack is not None:
            on_ack()
        if self.on_progress is not None:
            self.on_progress()
        self._retire_ack(packet)

    def _retire_ack(self, packet: "Packet") -> None:
        """Retire a fully-consumed acknowledgement's span track.

        ``on_ack`` is the single consumption point for transport acks in
        both stacks (the adapter's delivery filter); nothing
        references the packet afterwards -- acks are never registered
        for retransmission -- so the span recorder's uid-keyed track
        can go.  Only acks are retired: the tracks of data and control
        packets stay for the life of the recorder.
        """
        sp = self.sim.spans
        if sp is not None:
            sp.retire_packet(packet.uid)

    # ------------------------------------------------------------------
    def metrics(self) -> dict:
        """Counter block for the observability registry (collector).

        The adaptive-mode counters (Karn skips, health transitions)
        appear only once nonzero, so fault-free fixed-timeout runs keep
        their historical metrics blocks byte-identical.
        """
        out = {
            "retransmissions": self.retransmissions,
            "retransmit_backoffs": self.retransmit_backoffs,
            "duplicates_dropped": self.duplicates_dropped,
            "duplicate_acks": self.duplicate_acks,
            "acks_sent": self.acks_sent,
            "unacked_in_flight": self.outstanding_total(),
        }
        if self.karn_skips:
            out["karn_rtt_skips"] = self.karn_skips
        if self.peer_degraded_events:
            out["peer_degraded_events"] = self.peer_degraded_events
        if self.peer_recovered_events:
            out["peer_recovered_events"] = self.peer_recovered_events
        if self.breaker_opens:
            # Peers declared unreachable and breaker opens: one event.
            out["peers_unreachable"] = self.breaker_opens
            out["breaker_opens"] = self.breaker_opens
        if self.breaker_closes:
            out["breaker_closes"] = self.breaker_closes
        if self.breaker_suppressed:
            out["breaker_suppressed"] = self.breaker_suppressed
        if self.completed_in_error:
            out["completed_in_error"] = self.completed_in_error
        if self.adaptive:
            # Peer-health gauges: adaptive mode only (it is what drives
            # the health machine), so fixed-timeout fault-free runs keep
            # their historical metrics blocks byte-identical.
            counts = {HEALTHY: 0, DEGRADED: 0, UNREACHABLE: 0}
            states = []
            for peer in sorted(self._tx):
                health = self._tx[peer].health
                counts[health] += 1
                states.append(f"{peer}:{health}")
            out["peers_healthy"] = counts[HEALTHY]
            out["peers_degraded"] = counts[DEGRADED]
            out["peers_unreachable_now"] = counts[UNREACHABLE]
            # Flat string, not a nested dict: the text renderer treats
            # dict values as histogram snapshots.
            out["peer_health_states"] = ",".join(states)
        return out

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"<ReliableTransport {self.proto}@{self.adapter.node_id}"
                f" outstanding={self.outstanding_total()}"
                f" retx={self.retransmissions}>")
