"""The SP switch: routes packets between adapters.

The switch owns the :class:`~repro.machine.routing.Topology`, has it
compute a route per packet (randomly among the disjoint middle-stage
routes for cross-group traffic -- the source of out-of-order delivery;
nothing is memoized per node pair), charges link
occupancy along the route, adds optional route jitter, drops or
corrupts a packet only when an installed fault schedule's verdict says
so, and hands the packet to the destination adapter at its computed
arrival time.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from heapq import nlargest
from operator import itemgetter

from ..errors import NetworkError
from .routing import build_topology

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..sim import RngRegistry, Simulator, Tracer
    from .adapter import Adapter
    from .config import MachineConfig
    from .packet import Packet

__all__ = ["Switch"]


class Switch:
    """Multistage packet switch connecting all node adapters."""

    def __init__(self, sim: "Simulator", nnodes: int,
                 config: "MachineConfig", rng: "RngRegistry",
                 trace: Optional["Tracer"] = None) -> None:
        self.sim = sim
        self.config = config
        self.nnodes = nnodes
        self.topology = build_topology(nnodes, config)
        self._adapters: list[Optional["Adapter"]] = [None] * nnodes
        self._route_rng = rng.stream("switch.route")
        self.trace = trace
        #: Optional :class:`repro.faults.FaultRuntime` consulted per
        #: routed packet.  None (the default) keeps the hot path at a
        #: single attribute test.
        self.faults = None
        #: When set, :meth:`metrics` emits only the ``top_links``
        #: busiest per-link utilization gauges instead of all of them
        #: (None, the default, keeps the full historical block).  Large
        #: clusters set this so a metrics snapshot stays O(top_links)
        #: instead of O(links).
        self.metrics_top_links: Optional[int] = None
        # Statistics
        self.packets_routed = 0
        self.packets_lost = 0
        self.bytes_routed = 0

    # ------------------------------------------------------------------
    def attach(self, adapter: "Adapter") -> None:
        """Register ``adapter`` at its node's port."""
        nid = adapter.node_id
        if not (0 <= nid < self.nnodes):
            raise NetworkError(f"node id {nid} outside switch")
        if self._adapters[nid] is not None:
            raise NetworkError(f"node {nid} already attached")
        self._adapters[nid] = adapter

    def unlink(self) -> None:
        """Detach every adapter, once the cluster is dropped: each
        refers back to this switch."""
        self._adapters = [None] * self.nnodes

    def _pick(self, n: int) -> int:
        """Draw one of ``n`` candidate routes (multipath pairs only)."""
        return self._route_rng.integers(0, n)

    def route(self, packet: "Packet") -> None:
        """Send ``packet`` through the fabric (called at injection time).

        Link occupancy is charged immediately along the chosen route
        (cut-through with implicit FIFO queueing per link); delivery to
        the destination adapter is scheduled at the computed arrival
        time.  Lost packets simply never arrive -- recovering them is the
        reliability layer's job.

        Wire-format and endpoint validation happens once, at adapter
        injection (``inject`` / ``inject_async`` / ``inject_control``);
        the switch and the topology's ``path`` trust what the adapters
        hand them.
        """
        dst_adapter = self._adapters[packet.dst]
        if dst_adapter is None:
            raise NetworkError(f"packet to unattached node {packet.dst}")

        corrupt = False
        if self.faults is not None:
            verdict = self.faults.judge(packet, self.sim.now)
            if verdict == "corrupt":
                # Corrupted packets traverse the whole wire (consuming
                # link occupancy below) and die at the destination
                # adapter's CRC check -- the worst-case waste mode.
                corrupt = True
            elif verdict is not None:
                self.packets_lost += 1
                self.faults.record_drop(verdict, packet, self.sim.now)
                if self.trace is not None and self.trace.wants():
                    self.trace.log(self.sim.now, "switch", "loss",
                                   f"{packet!r} [{verdict}]",
                                   fault=verdict,
                                   **packet.trace_fields())
                sp = self.sim.spans
                if sp is not None:
                    sp.packet_lost(packet, self.sim.now)
                return

        # The topology computes the route from its link tables: the
        # route draw happens inside, and only for multipath pairs, so
        # the stream's draws come before the jitter draw below.
        cfg = self.config
        _, links, latency, crosses = self.topology.path(
            packet.src, packet.dst, cfg, self._pick)

        transfer = packet.size / cfg.link_bandwidth
        sim = self.sim
        now = sim._now
        t = now
        for link in links:
            t = link.occupy(t, transfer)
        t += latency
        if crosses and cfg.route_jitter > 0.0:
            t += self._route_rng.random() * cfg.route_jitter

        self.packets_routed += 1
        self.bytes_routed += packet.size
        if self.trace is not None and self.trace.wants():
            self.trace.log(now, "switch", "route",
                           f"{packet!r} arrives t={t:.3f}",
                           arrival_us=round(t, 6),
                           **packet.trace_fields())
        # Bare-callback delivery: no Timeout, no name, no closure.  The
        # now + (t - now) round trip mirrors the Timeout it replaced so
        # delivery times stay bit-identical to the historical path.
        delay = t - now
        deliver = (dst_adapter.deliver_corrupt if corrupt
                   else dst_adapter.deliver)
        sim.call_at(now + delay, deliver, packet)

    # ------------------------------------------------------------------
    def metrics(self) -> dict:
        """Counter block for the observability registry (collector).

        Includes per-link utilization gauges (``util.<link>``), the
        fabric-level view Figures 2-4 ultimately derive from.  With
        :attr:`metrics_top_links` set, only the busiest ``k`` links are
        emitted (sorted by name within the sample so the block stays
        deterministic); the default emits every link, byte-identical to
        the historical output.
        """
        out = {
            "packets_routed": self.packets_routed,
            "packets_lost": self.packets_lost,
            "bytes_routed": self.bytes_routed,
        }
        k = self.metrics_top_links
        if k is None:
            for name, util in sorted(self.link_utilization().items()):
                out[f"util.{name}"] = round(util, 6)
        else:
            for name, util in sorted(self.busiest_links(k)):
                out[f"util.{name}"] = round(util, 6)
        return out

    # ------------------------------------------------------------------
    def link_utilization(self, horizon: Optional[float] = None) -> dict:
        """Utilization snapshot of every link (diagnostics)."""
        h = horizon if horizon is not None else self.sim.now
        return {ln.name: ln.utilization(h)
                for ln in self.topology.iter_links()}

    def busiest_links(self, k: int,
                      horizon: Optional[float] = None
                      ) -> list[tuple[str, float]]:
        """The ``k`` busiest links as ``(name, utilization)`` pairs.

        Streams over the links (O(links) time, O(k) extra space --
        never materializes the full utilization dict) and matches a
        descending stable sort of the full snapshot exactly:
        ``heapq.nlargest`` keeps earlier-yielded links ahead on ties,
        as the stable sort does.
        """
        h = horizon if horizon is not None else self.sim.now
        return nlargest(k, ((ln.name, ln.utilization(h))
                            for ln in self.topology.iter_links()),
                        key=itemgetter(1))

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"<Switch nodes={len(self._adapters)}"
                f" routed={self.packets_routed} lost={self.packets_lost}>")
