"""Driver-side bookkeeping for one ledger child: spans, checks, digests.

Everything here observes the simulator *from outside*: spans wrap the
calls the workloads make into ``repro``'s public functions, checks
compare outputs the driver can read back, and counters are read off
finished clusters.  Nothing in ``src/`` knows the ledger exists.

Host time and simulated time never share a field: ``cpu_s`` is host
seconds, ``virtual_us``/``events`` are simulated.
"""

from __future__ import annotations

import hashlib
import time
from contextlib import contextmanager

__all__ = ["Recorder", "RepResult", "span_self_times", "speedometer",
           "SPEED_REF_S"]

#: What :func:`speedometer` reads on the reference host in its usual
#: mode; normalised seconds are seconds at that host speed.
SPEED_REF_S = 0.025


def speedometer() -> float:
    """CPU seconds of a fixed pure-Python loop: the host's speed now.

    The sandbox's speed drifts by tens of percent between modes that
    last seconds to minutes, and slows this loop and the simulator
    (itself pure Python) alike.  Readings taken around every job let a
    repetition's CPU seconds be restated at one reference speed, which
    halves the run-to-run spread (README, "Why normalised medians").
    """
    start = time.process_time()
    acc = 0
    for i in range(500_000):
        acc += i * i % 7
    return time.process_time() - start


class RepResult:
    """What one repetition of a workload produced."""

    __slots__ = ("cpu_s", "speed_s", "virtual_us", "events",
                 "packets_sent", "train_packets", "digest",
                 "attempted", "failed", "failures", "jobs")

    def __init__(self) -> None:
        #: Host CPU seconds of the repetition, speedometer excluded.
        self.cpu_s = 0.0
        #: Speedometer readings: one before the first job, one after
        #: each job (empty when the recorder is not calibrating).
        self.speed_s: list[float] = []
        #: Sum of final ``sim.now`` over every cluster the rep ran.
        self.virtual_us = 0.0
        self.events = 0
        self.packets_sent = 0
        self.train_packets = 0
        self.digest = ""
        #: Ops = simulated jobs, each with its output check.
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        #: Per job name: host ``cpu_s``, simulated ``events``, and the
        #: communication ``ops`` the driver itself issued, by layer.
        self.jobs: dict[str, dict] = {}


class Recorder:
    """Collects spans across a child's lifetime and results per rep.

    Span tree: ``workload > rep > job > {cluster_build, run_job,
    verify}``.  Spans stay in memory; the child hands them to the
    parent at exit.  With ``counting`` set, :meth:`cluster_done` also
    folds the finished cluster's public counters into ``counters``
    (the un-profiled counter rep of ``--trace``).
    """

    def __init__(self) -> None:
        self._t0 = time.perf_counter()
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self.counting = False
        self.counters: dict[str, float] = {}
        #: Take speedometer readings around every job (timed reps).
        self.calibrating = True
        self._rep: RepResult | None = None
        self._hash = None
        self._job: dict | None = None
        self._job_failed = False

    # -- spans ----------------------------------------------------------
    @contextmanager
    def span(self, name: str):
        span = {"id": len(self.spans),
                "parent": self._stack[-1] if self._stack else None,
                "name": name,
                "start_s": time.perf_counter() - self._t0,
                "end_s": None, "cpu_s": None}
        self.spans.append(span)
        self._stack.append(span["id"])
        cpu0 = time.process_time()
        try:
            yield span
        finally:
            span["cpu_s"] = time.process_time() - cpu0
            span["end_s"] = time.perf_counter() - self._t0
            self._stack.pop()

    # -- repetitions and jobs -------------------------------------------
    @contextmanager
    def rep(self, label: str):
        """One repetition; yields the :class:`RepResult` being filled."""
        self._rep = rep = RepResult()
        self._hash = hashlib.sha256()
        if self.calibrating:
            rep.speed_s.append(speedometer())
        with self.span(label) as span:
            yield rep
        rep.cpu_s = span["cpu_s"] - sum(rep.speed_s[1:])
        rep.digest = self._hash.hexdigest()
        self._rep = self._hash = None

    @contextmanager
    def job(self, name: str):
        """One op: a simulated job plus its output check.

        A job that raises is a failed op, not a crashed benchmark: the
        error is recorded and the rep moves on to the next job.
        """
        rep = self._rep
        rep.attempted += 1
        self._job = rep.jobs[name] = {"cpu_s": 0.0, "events": 0, "ops": {}}
        self._job_failed = False
        with self.span(f"job:{name}") as span:
            try:
                yield
            except Exception as exc:  # boundary: keep measuring
                self.fail(f"{name}: raised {type(exc).__name__}: {exc}")
        self._job["cpu_s"] = span["cpu_s"]
        if self._job_failed:
            rep.failed += 1
        if self.calibrating:
            rep.speed_s.append(speedometer())

    def fail(self, what: str) -> None:
        self._job_failed = True
        self._rep.failures.append(what)

    def check(self, ok: bool, what: str) -> None:
        """An output check of the current job; ``what`` names a miss."""
        if not ok:
            self.fail(what)

    def ops(self, layer: str, count: int) -> None:
        ops = self._job["ops"]
        ops[layer] = ops.get(layer, 0) + count

    def value(self, *values) -> None:
        """Fold simulated result values into the rep's digest."""
        self._hash.update(repr(values).encode())

    def cluster_done(self, cluster) -> None:
        """Account a finished cluster; the caller drops it afterwards
        (no cluster is retained across jobs, let alone reps)."""
        rep = self._rep
        sim = cluster.sim
        sent = trains = 0
        for node in cluster.nodes:
            sent += node.adapter.packets_sent
            trains += node.adapter.train_packets
        rep.virtual_us += sim.now
        rep.events += sim.events_processed
        self._job["events"] += sim.events_processed
        rep.packets_sent += sent
        rep.train_packets += trains
        self._hash.update(repr((cluster.nnodes, sim.events_processed,
                                sim.now)).encode())
        if self.counting:
            self._count(cluster)

    # -- public counters of a finished cluster --------------------------
    def _add(self, name: str, value) -> None:
        self.counters[name] = self.counters.get(name, 0) + value

    def _count(self, cluster) -> None:
        # Imported here: the parent imports this module for
        # ``span_self_times`` and must not pull ``repro`` in.
        from repro.obs import pool_stats

        for node in cluster.nodes:
            ad = node.adapter
            self._add("machine.soa_packets", ad.soa_packets)
            self._add("machine.soa_fallbacks", ad.soa_fallbacks)
            self._add("machine.rx_dropped", ad.rx_dropped)
        self._add("machine.packets_routed", cluster.switch.packets_routed)
        pools = pool_stats(cluster)
        for pool in ("packets", "trains"):
            self._add("machine.pool_acquires", pools[pool]["acquires"])
            self._add("machine.pool_hits", pools[pool]["hits"])
        snap = cluster.metrics.snapshot()
        for block in snap.get("core.dispatcher", {}).values():
            self._add("core.packets_processed", block["packets_processed"])
            self._add("core.interrupts_taken", block["interrupts_taken"])
        for block in snap.get("core.reliability", {}).values():
            self._add("core.acks_sent", block["acks_sent"])
            self._add("core.retransmissions", block["retransmissions"])
        faults = cluster.faults
        if faults is not None:
            self._add("faults.drops", faults.ge_drops + faults.outage_drops
                      + faults.ack_drops + faults.crc_drops)
        if cluster.resilience is not None:
            self._add("resilience.convictions",
                      len(cluster.resilience.convictions))
        if cluster.telemetry is not None:
            self.counters["obs.armed"] = 1


def span_self_times(spans: list[dict]) -> None:
    """Add ``self_s`` to every span: its duration minus the part of
    that interval its child spans cover (children never overlap here:
    the driver is single-threaded)."""
    covered = [0.0] * len(spans)
    for span in spans:
        if span["parent"] is not None:
            covered[span["parent"]] += span["end_s"] - span["start_s"]
    for span in spans:
        span["self_s"] = (span["end_s"] - span["start_s"]
                          - covered[span["id"]])
