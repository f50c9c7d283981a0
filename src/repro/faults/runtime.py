"""Compiled fault-injection hooks for one cluster.

:meth:`repro.faults.FaultSchedule.install` builds one
:class:`FaultRuntime` per cluster.  The runtime owns all mutable fault
state -- the Gilbert-Elliott chain states, the per-node CPU window
tables, the fault counters -- and hangs itself off the machine layer's
pre-existing ``faults`` attachment points:

* ``switch.faults``   -- consulted per routed packet (:meth:`judge`);
* ``adapter.faults``  -- consulted when a corrupted packet is discarded
  at the receive-side CRC check;
* ``cpu.faults``      -- a compiled :class:`_CpuFaults` window table
  stretching ``Thread.execute`` costs (only on nodes a CPU clause
  names).

All attachment points default to ``None`` and every hot-path hook is a
single ``is not None`` test, so a cluster without a schedule pays
nothing and its virtual-time trajectory is untouched (the byte-identity
contract).  All randomness is drawn from the cluster's seeded
``faults`` RNG stream in deterministic per-packet clause order, so a
given seed reproduces the same fault pattern serially or under
``--jobs N``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

import math

from ..errors import MachineError
from .schedule import (AckLoss, Corruption, FaultSchedule, GilbertElliott,
                       LinkOutage, _CpuClause, _LinkClause)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..machine.cluster import Cluster
    from ..machine.packet import Packet

__all__ = ["FaultRuntime"]


class _CpuFaults:
    """Compiled CPU pause/slowdown windows of one node.

    ``windows`` is a sorted, non-overlapping list of
    ``(start, end, rate)`` where ``rate`` is the CPU progress rate
    inside the window (0.0 = full pause, ``1/factor`` for a slowdown).
    :meth:`elapsed` converts a nominal CPU cost starting at ``now``
    into the virtual time it actually takes, walking the windows
    piecewise.
    """

    __slots__ = ("windows", "stall_us")

    def __init__(self, windows: list[tuple[float, float, float]]) -> None:
        self.windows = windows
        #: Total virtual time lost to pause/slowdown (elapsed - work).
        self.stall_us = 0.0

    def elapsed(self, now: float, work: float) -> float:
        """Virtual time a ``work``-us execute burst takes from ``now``."""
        t = now
        remaining = work
        for start, end, rate in self.windows:
            if remaining <= 0.0:
                break
            if end <= t:
                continue
            if t < start:
                gap = start - t
                if remaining <= gap:
                    t += remaining
                    remaining = 0.0
                    break
                t = start
                remaining -= gap
            if rate == 0.0:
                t = end
            else:
                achievable = (end - t) * rate
                if remaining <= achievable:
                    t += remaining / rate
                    remaining = 0.0
                    break
                remaining -= achievable
                t = end
        if remaining > 0.0:
            t += remaining
        stretch = (t - now) - work
        if stretch > 0.0:
            self.stall_us += stretch
        return t - now


class FaultRuntime:
    """Live fault state of one cluster (built by ``FaultSchedule.install``)."""

    def __init__(self, schedule: FaultSchedule,
                 cluster: "Cluster") -> None:
        self.schedule = schedule
        self.sim = cluster.sim
        self.rng = cluster.rng.stream("faults")
        nnodes = cluster.nnodes
        #: Link-affecting clauses in schedule order (first verdict wins);
        #: each paired with its index, the Gilbert-Elliott state key.
        self._link_clauses: list[tuple[int, _LinkClause]] = []
        cpu_windows: dict[int, list[tuple[float, float, float]]] = {}
        for idx, clause in enumerate(schedule.clauses):
            if isinstance(clause, _LinkClause):
                for nid in (clause.src, clause.dst):
                    if nid is not None and not (0 <= nid < nnodes):
                        raise MachineError(
                            f"{type(clause).__name__}: node {nid} outside"
                            f" cluster of {nnodes} nodes")
                self._link_clauses.append((idx, clause))
            elif isinstance(clause, _CpuClause):
                if not (0 <= clause.node < nnodes):
                    raise MachineError(
                        f"{type(clause).__name__}: node {clause.node}"
                        f" outside cluster of {nnodes} nodes")
                cpu_windows.setdefault(clause.node, []).append(
                    (clause.start, clause.end, clause.rate()))
        #: Gilbert-Elliott chain state per (clause index, src, dst):
        #: True while the link is in the bad state.
        self._ge_bad: dict[tuple[int, int, int], bool] = {}
        self._cpu: dict[int, _CpuFaults] = {
            node: _CpuFaults(sorted(windows))
            for node, windows in cpu_windows.items()}
        # Fault counters (surfaced through the "faults" metrics
        # subsystem, which exists only while a schedule is installed).
        self.ge_drops = 0
        self.outage_drops = 0
        self.ack_drops = 0
        self.crc_drops = 0
        #: Virtual time of the first fault that actually engaged (first
        #: drop, CRC discard, or node crash), or None on a clean run.
        #: This is the chaos bench's *detection* timestamp --
        #: deliberately not part of :meth:`metrics` so historical
        #: metrics blocks stay byte-identical.
        self.first_fault_us: Optional[float] = None

        # Fail-stop crash windows (resolved + validated by the
        # schedule): {node: [(crash_at, restart_at_or_inf), ...]}.
        self.crash_windows = schedule.crash_windows
        for nid in self.crash_windows:
            if not (0 <= nid < nnodes):
                raise MachineError(
                    f"NodeCrash: node {nid} outside cluster of"
                    f" {nnodes} nodes")
        #: True when the schedule fail-stops at least one node; the
        #: cluster auto-arms the failure detector off this flag.
        self.has_crashes = bool(self.crash_windows)
        self.node_crashes = 0
        self.node_restarts = 0
        self.threads_killed = 0
        #: Crash/restart instants in firing order:
        #: ``(t_us, node, "crash" | "restart")``.
        self.crash_events: list[tuple[float, int, str]] = []
        # The nodes, not the cluster: nothing a cluster owns refers back
        # to it (see repro.machine.cluster).
        self.nodes = cluster.nodes
        #: The failure detector the restart hook notifies, or None;
        #: wired by the cluster once it arms one.
        self.resilience = None

        # Hook into the machine layer.
        cluster.switch.faults = self
        for node in cluster.nodes:
            node.adapter.faults = self
            cpu_faults = self._cpu.get(node.node_id)
            if cpu_faults is not None:
                node.cpu.faults = cpu_faults
        cluster.metrics.register_collector("faults", self.metrics)
        # Post the crash/restart instants as bare kernel callbacks now;
        # install runs at sim.now == 0 and crash starts are > 0.
        for nid, windows in self.crash_windows.items():
            for crash_at, restart_at in windows:
                self.sim.call_at(crash_at, self._crash_node, nid)
                if math.isfinite(restart_at):
                    self.sim.call_at(restart_at, self._restart_node, nid)

    def unlink(self) -> None:
        """Let go of the nodes and the detector once the cluster is
        dropped: the machine refers back to this runtime."""
        self.nodes = self.resilience = None

    # ------------------------------------------------------------------
    # fabric path (called by Switch.route)
    # ------------------------------------------------------------------
    def judge(self, packet: "Packet", now: float) -> Optional[str]:
        """Fate of one routed packet: ``None`` (unharmed) or a verdict.

        Verdicts: ``"ge"`` / ``"outage"`` / ``"ack"`` mean the fabric
        drops the packet; ``"corrupt"`` means it traverses the wire but
        fails the destination adapter's CRC check.  Clauses are
        consulted in schedule order and the first verdict wins; RNG
        draws are taken in that same order, making the fault pattern a
        pure function of the seed and the packet sequence.
        """
        rng = self.rng
        src = packet.src
        dst = packet.dst
        for idx, clause in self._link_clauses:
            if not clause.active(now):
                continue
            if not clause.matches_pair(src, dst):
                continue
            if type(clause) is GilbertElliott:
                key = (idx, src, dst)
                bad = self._ge_bad.get(key, False)
                flip_p = clause.p_bad_good if bad else clause.p_good_bad
                if flip_p > 0.0 and rng.random() < flip_p:
                    bad = not bad
                    self._ge_bad[key] = bad
                loss = clause.loss_bad if bad else clause.loss_good
                if loss > 0.0 and rng.random() < loss:
                    return "ge"
            elif type(clause) is LinkOutage:
                return "outage"
            elif type(clause) is AckLoss:
                if str(packet.kind) != "ack":
                    continue
                if rng.random() < clause.rate:
                    return "ack"
            elif type(clause) is Corruption:
                if rng.random() < clause.rate:
                    return "corrupt"
        return None

    def record_drop(self, verdict: str, packet: "Packet",
                    now: float) -> None:
        """Count a fabric drop and emit its span instant event."""
        if verdict == "ge":
            self.ge_drops += 1
        elif verdict == "outage":
            self.outage_drops += 1
        else:
            self.ack_drops += 1
        if self.first_fault_us is None:
            self.first_fault_us = now
        sp = self.sim.spans
        if sp is not None:
            sp.emit(packet.src, "faults", verdict, "fault", now, now,
                    uid=packet.uid, dst=packet.dst)
        flight = self.sim.flight
        if flight is not None:
            flight.note(packet.src, "faults", f"drop.{verdict}",
                        dst=packet.dst, uid=packet.uid,
                        kind=str(packet.kind))
            # One black-box dump per distinct engaged fault verdict:
            # the first drop of each kind captures the lead-up, the
            # storm after it stays in the (bounded) rings.
            flight.trigger("fault-engaged", key=("fault", verdict),
                           verdict=verdict, src=packet.src,
                           dst=packet.dst)

    # ------------------------------------------------------------------
    # receive path (called by Adapter on CRC discard)
    # ------------------------------------------------------------------
    def record_crc(self, packet: "Packet", now: float) -> None:
        """Count a corruption discard and emit its span instant event."""
        self.crc_drops += 1
        if self.first_fault_us is None:
            self.first_fault_us = now
        sp = self.sim.spans
        if sp is not None:
            sp.emit(packet.dst, "faults", "corrupt", "fault", now, now,
                    uid=packet.uid, src=packet.src)
        flight = self.sim.flight
        if flight is not None:
            flight.note(packet.dst, "faults", "drop.corrupt",
                        src=packet.src, uid=packet.uid,
                        kind=str(packet.kind))
            flight.trigger("fault-engaged", key=("fault", "corrupt"),
                           verdict="corrupt", src=packet.src,
                           dst=packet.dst)

    # ------------------------------------------------------------------
    # fail-stop crash hooks (bare kernel callbacks posted at install)
    # ------------------------------------------------------------------
    def _crash_node(self, node_id: int) -> None:
        """Fail-stop ``node_id`` at the scheduled instant."""
        now = self.sim.now
        node = self.nodes[node_id]
        killed = node.crash()
        self.node_crashes += 1
        self.threads_killed += killed
        self.crash_events.append((now, node_id, "crash"))
        if self.first_fault_us is None:
            self.first_fault_us = now
        sp = self.sim.spans
        if sp is not None:
            sp.emit(node_id, "faults", "crash", "fault", now, now)
        flight = self.sim.flight
        if flight is not None:
            flight.note(node_id, "faults", "node.crash",
                        threads_killed=killed)
            flight.trigger("fault-engaged", key=("crash", node_id),
                           verdict="crash", node=node_id,
                           threads_killed=killed)

    def _restart_node(self, node_id: int) -> None:
        """Machine-level restart of ``node_id`` at the scheduled instant."""
        now = self.sim.now
        self.nodes[node_id].restart()
        self.node_restarts += 1
        self.crash_events.append((now, node_id, "restart"))
        sp = self.sim.spans
        if sp is not None:
            sp.emit(node_id, "faults", "restart", "fault", now, now)
        flight = self.sim.flight
        if flight is not None:
            flight.note(node_id, "faults", "node.restart")
        res = self.resilience
        if res is not None:
            res.node_restarted(node_id, now)

    # ------------------------------------------------------------------
    def metrics(self) -> dict:
        """Counter block for the observability registry (collector)."""
        out = {
            "ge_drops": self.ge_drops,
            "outage_drops": self.outage_drops,
            "ack_drops": self.ack_drops,
            "crc_drops": self.crc_drops,
            "fault_drops": (self.ge_drops + self.outage_drops
                            + self.ack_drops + self.crc_drops),
        }
        stall = sum(cf.stall_us for cf in self._cpu.values())
        out["cpu_stall_us"] = round(stall, 6)
        # Crash counters appear only for schedules that fail-stop a
        # node, keeping non-crash fault metrics blocks byte-identical
        # to their historical output.
        if self.node_crashes:
            out["node_crashes"] = self.node_crashes
            out["node_restarts"] = self.node_restarts
            out["threads_killed"] = self.threads_killed
        return out

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"<FaultRuntime {len(self.schedule)} clauses"
                f" drops={self.ge_drops + self.outage_drops}"
                f" ack={self.ack_drops} crc={self.crc_drops}>")
