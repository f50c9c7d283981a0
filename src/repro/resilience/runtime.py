"""Heartbeat failure detector and crash-recovery coordinator.

One :class:`ResilienceRuntime` per cluster.  Every node gets a
``"resil"`` adapter client whose delivery filter answers pings with
pongs *at the adapter level* -- no CPU thread is involved, which is
exactly what makes the detector useful for restart detection: a
machine whose task threads died in a fail-stop crash still answers
heartbeats once the adapter is back (``NodeRestart``), the same way a
rebooted SP node rejoins group services before any application
process exists on it.

Detection model (phi-accrual flavoured, SRTT-style arithmetic):

* every ``heartbeat_period`` us each live node pings every peer;
* any packet from a peer (ping or pong) refreshes ``last_heard`` and
  feeds an EWMA of inter-arrival gaps (gain 1/8, as the transports'
  SRTT estimator);
* :meth:`suspicion` is the current silence divided by the smoothed
  gap -- a dimensionless phi analogue tests and benches can inspect;
* a peer silent for ``conviction_threshold`` us is *convicted* at the
  next tick, so worst-case detection latency is
  ``conviction_threshold + heartbeat_period``.

Conviction fans out to the registered protocol stacks
(:meth:`attach_stack`) as ``stack.peer_unreachable(peer, err)`` with a
fully-attributed :class:`~repro.errors.PeerUnreachableError`; a later
packet from a convicted peer *absolves* it
(``stack.peer_absolved(peer)`` -- circuit breakers close, but the
peer stays in the observer's ``task.dead_peers``: reachability of a
restarted machine is not resurrection of the task that died on it).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ..errors import PeerUnreachableError
from ..machine.packet import Packet

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..machine.cluster import Cluster

__all__ = ["ResilienceRuntime"]

#: Wire protocol id of the detector's adapter client.
PROTO = "resil"
#: Heartbeat packets are header-only; 16 bytes covers src/dst/kind.
HEARTBEAT_HEADER_BYTES = 16
#: EWMA gain for the inter-arrival gap estimator (matches the
#: transports' SRTT gain).
GAP_GAIN = 0.125


class _PeerView:
    """One observer's view of one peer."""

    __slots__ = ("last_heard", "gap_ewma", "convicted")

    def __init__(self, now: float, period: float) -> None:
        #: Virtual time any packet from the peer last arrived.  Seeded
        #: with the install instant so a peer that crashes before its
        #: first heartbeat is still convicted on schedule.
        self.last_heard = now
        #: Smoothed inter-arrival gap; seeded with the nominal period.
        self.gap_ewma = period
        self.convicted = False


class ResilienceRuntime:
    """Cluster-wide failure detector (built by ``Cluster.__init__``)."""

    def __init__(self, cluster: "Cluster") -> None:
        # The nodes, not the cluster: nothing a cluster owns refers back
        # to it (see repro.machine.cluster).
        self.nodes = cluster.nodes
        self.sim = cluster.sim
        cfg = cluster.config
        self.period = cfg.heartbeat_period
        self.threshold = cfg.conviction_threshold
        self.pings_sent = 0
        self.pongs_received = 0
        #: Conviction instants in firing order:
        #: ``(t_us, observer_node, peer_node)``.
        self.convictions: list[tuple[float, int, int]] = []
        #: Absolutions (convicted peer heard again), same shape.
        self.recoveries: list[tuple[float, int, int]] = []
        #: Protocol stacks to notify, per observer node:
        #: ``{node: {proto: stack}}``.  Stacks self-register at init
        #: time (:meth:`attach_stack`); re-initialization replaces.
        self._stacks: dict[int, dict[str, object]] = {}
        self._clients = {}
        now = self.sim.now
        nnodes = cluster.nnodes
        #: ``_views[observer][peer]`` -> :class:`_PeerView`.
        self._views: list[dict[int, _PeerView]] = []
        for node in cluster.nodes:
            nid = node.node_id
            client = node.adapter.attach_client(PROTO)
            # The responder runs purely at delivery time; heartbeats
            # must never spawn dispatcher threads or raise interrupts.
            client.interrupts_enabled = False
            client.delivery_filter = self._responder(nid)
            self._clients[nid] = client
            self._views.append({
                peer: _PeerView(now, self.period)
                for peer in range(nnodes) if peer != nid})
            # Per-node tick chain; first beat one period after install.
            self.sim.call_at(now + self.period, self._tick, nid)
        cluster.metrics.register_collector("resilience", self.metrics)

    # ------------------------------------------------------------------
    # wiring
    # ------------------------------------------------------------------
    def attach_stack(self, node_id: int, stack) -> None:
        """Register a protocol stack for conviction fan-out.

        ``stack`` must expose ``peer_unreachable(peer, err)``,
        ``peer_absolved(peer)`` and ``crash_reset()`` plus a
        ``transport.proto`` identity (LAPI and MPL both do).
        """
        proto = stack.transport.proto
        self._stacks.setdefault(node_id, {})[proto] = stack

    def unlink(self) -> None:
        """Remove the heartbeat responders once the cluster is
        dropped: each adapter's filter refers back to this runtime."""
        for client in self._clients.values():
            client.delivery_filter = None

    def _responder(self, nid: int):
        def on_packet(packet) -> bool:
            self._on_packet(nid, packet)
            return True
        return on_packet

    # ------------------------------------------------------------------
    # heartbeat plumbing
    # ------------------------------------------------------------------
    def _on_packet(self, nid: int, packet) -> None:
        """A heartbeat packet reached ``nid``'s adapter."""
        if packet.kind == "ping":
            # Adapter-level responder: works with every task thread on
            # this machine dead, which is what restart detection needs.
            self.nodes[nid].adapter.inject_control(
                Packet(nid, packet.src, PROTO, "pong",
                       HEARTBEAT_HEADER_BYTES))
        else:
            self.pongs_received += 1
        # Pings are evidence of life too; both kinds refresh the view.
        self._heard(nid, packet.src, self.sim.now)

    def _heard(self, observer: int, peer: int, now: float) -> None:
        view = self._views[observer].get(peer)
        if view is None:  # pragma: no cover - defensive
            return
        gap = now - view.last_heard
        view.last_heard = now
        view.gap_ewma += (gap - view.gap_ewma) * GAP_GAIN
        if view.convicted:
            self._absolve(observer, peer, view, now)

    def _tick(self, nid: int) -> None:
        now = self.sim.now
        adapter = self.nodes[nid].adapter
        if not adapter.crashed:
            views = self._views[nid]
            for peer in sorted(views):
                adapter.inject_control(
                    Packet(nid, peer, PROTO, "ping",
                           HEARTBEAT_HEADER_BYTES))
                self.pings_sent += 1
            for peer in sorted(views):
                view = views[peer]
                if (not view.convicted
                        and now - view.last_heard >= self.threshold):
                    self._convict(nid, peer, view, now)
        # The chain survives this node's own crash (ticks are kernel
        # callbacks, not CPU threads) so heartbeats resume by
        # themselves after a restart.
        self.sim.call_at(now + self.period, self._tick, nid)

    # ------------------------------------------------------------------
    # conviction / absolution
    # ------------------------------------------------------------------
    def _convict(self, observer: int, peer: int, view: _PeerView,
                 now: float) -> None:
        view.convicted = True
        self.convictions.append((now, observer, peer))
        silent = now - view.last_heard
        sp = self.sim.spans
        if sp is not None:
            sp.emit(observer, "resilience", "convict", "fault", now, now,
                    peer=peer, silent_us=silent)
        flight = self.sim.flight
        if flight is not None:
            flight.note(observer, "resilience", "peer.convicted",
                        peer=peer, silent_us=silent)
            # One black-box dump per dead peer: the first observer to
            # convict captures the lead-up for the whole cluster.
            flight.trigger("peer-convicted", key=("convict", peer),
                           observer=observer, peer=peer,
                           silent_us=silent)
        for proto in sorted(self._stacks.get(observer, {})):
            stack = self._stacks[observer][proto]
            err = PeerUnreachableError(
                f"task {observer}: peer {peer} convicted by the failure"
                f" detector (silent for {silent:.0f}us, threshold"
                f" {self.threshold:.0f}us)")
            err.proto = proto
            err.node = observer
            err.peer = peer
            err.via = "heartbeat"
            err.last_heard_us = view.last_heard
            err.convicted_us = now
            stack.peer_unreachable(peer, err)

    def _absolve(self, observer: int, peer: int, view: _PeerView,
                 now: float) -> None:
        view.convicted = False
        self.recoveries.append((now, observer, peer))
        flight = self.sim.flight
        if flight is not None:
            flight.note(observer, "resilience", "peer.absolved",
                        peer=peer)
        for proto in sorted(self._stacks.get(observer, {})):
            self._stacks[observer][proto].peer_absolved(peer)

    # ------------------------------------------------------------------
    # restart hook (called by repro.faults.FaultRuntime)
    # ------------------------------------------------------------------
    def node_restarted(self, node_id: int, now: float) -> None:
        """``node_id``'s machine is back (task threads stay dead)."""
        # Adapter.crash() cleared every client's hooks; re-install the
        # responder so this machine answers heartbeats again.
        self._clients[node_id].delivery_filter = self._responder(node_id)
        # The restarted node was deaf while down: refresh its own views
        # so it does not convict the whole cluster at its next tick.
        for view in self._views[node_id].values():
            view.last_heard = now
        # Fail-stop semantics: whatever protocol state the dead task
        # left behind is gone.
        for proto in sorted(self._stacks.get(node_id, {})):
            self._stacks[node_id][proto].crash_reset()

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def suspicion(self, observer: int, peer: int) -> float:
        """Current phi-analogue suspicion of ``peer`` at ``observer``:
        silence divided by the smoothed inter-arrival gap."""
        view = self._views[observer][peer]
        if view.gap_ewma <= 0.0:
            return 0.0
        return (self.sim.now - view.last_heard) / view.gap_ewma

    def is_convicted(self, observer: int, peer: int) -> bool:
        return self._views[observer][peer].convicted

    def metrics(self) -> dict:
        """Counter block for the observability registry (collector).

        Exists only when the detector is armed, so fault-free metrics
        snapshots are unchanged.
        """
        return {
            "pings_sent": self.pings_sent,
            "pongs_received": self.pongs_received,
            "convictions": len(self.convictions),
            "recoveries": len(self.recoveries),
            "peers_convicted_now": sum(
                1 for views in self._views
                for view in views.values() if view.convicted),
        }

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"<ResilienceRuntime nodes={len(self.nodes)}"
                f" period={self.period} threshold={self.threshold}"
                f" convictions={len(self.convictions)}>")
