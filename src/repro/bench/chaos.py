"""Chaos bench: goodput degradation and recovery under injected faults.

``python -m repro.bench --faults`` sweeps a fixed set of fault regimes
-- uniform and bursty (Gilbert-Elliott) loss, link outages, asymmetric
ack loss, CPU pause/slowdown windows, payload corruption -- over a
2-node LAPI put workload and reports, per scenario:

* **goodput** (MB/s of application payload actually delivered),
* **degradation** relative to the fault-free baseline,
* **recovery time** (extra virtual time the run needed versus the
  baseline -- how long the transport spent retransmitting, backing
  off, and waiting out the fault),
* transport retransmissions and injected fault drops,
* end-to-end data integrity (the target's buffer is verified
  byte-for-byte after the final fence).

Every scenario is deterministic: fault draws come from the cluster's
seeded ``faults`` RNG stream, so the whole table -- and the
``--faults-out`` JSON -- is byte-identical across runs and between
``--jobs 1`` and ``--jobs N`` (each scenario is one independent
:class:`~repro.bench.parallel.JobSpec`).

The workload runs with the adaptive (Jacobson/Karels) RTO machinery
that a fault schedule auto-enables (see ``docs/reliability.md``); the
baseline scenario has no schedule and therefore measures the exact
fixed-timeout fault-free path.
"""

from __future__ import annotations

import dataclasses
from typing import Optional

from ..errors import PeerUnreachableError
from ..faults import (AckLoss, Corruption, CpuDegrade, CpuPause,
                      FaultSchedule, GilbertElliott, LinkOutage,
                      NodeCrash, NodeRestart)
from ..obs import TelemetryConfig
from .parallel import Deferred, JobSpec, submit
from .report import ExperimentResult
from .runner import armed_telemetry, bandwidth_mbs, fresh_cluster

__all__ = ["run_chaos", "submit_chaos", "chaos_jobs", "chaos_point",
           "chaos_scenarios", "crash_point", "crash_scenarios",
           "degradation_pct", "CHAOS_SEED", "CHAOS_WINDOW_US",
           "CRASH_AT_US", "RESTART_AT_US"]

#: Cluster seed of every chaos scenario (one cluster per scenario, so
#: a shared seed keeps scenarios comparable without coupling them).
CHAOS_SEED = 0xFA57

#: Message size / count of the chaos workload (full sweep).
CHAOS_BYTES = 4096
CHAOS_MSGS = 24
#: Reduced message count for ``--quick`` (the CI smoke sweep).
CHAOS_MSGS_QUICK = 10

#: Timeline window of the chaos recovery curves, in virtual
#: microseconds.  Fixed here -- not taken from ``--window-us`` -- so a
#: scenario's ``goodput_windows`` series is a pure function of
#: (nbytes, nmsgs, schedule, seed) and the ``--faults-out`` file is
#: byte-identical with or without the telemetry CLI flags.
CHAOS_WINDOW_US = 250.0

#: A goodput window counts as *impaired* below this fraction of the
#: baseline's median per-window goodput (see :func:`_recovered_us`).
IMPAIRED_FRACTION = 0.5

#: Fail-stop crash scenarios run on a 3-node ring; node 2 crashes at
#: this virtual instant (mid-workload) and -- in the restart scenario
#: -- its machine comes back here.  The conviction happens around
#: ``CRASH_AT_US + conviction_threshold``; the restart instant is far
#: enough past it that absolution is observable.
CRASH_NNODES = 3
CRASH_NODE = 2
CRASH_AT_US = 1500.0
RESTART_AT_US = 6000.0


def chaos_scenarios(quick: bool = False) -> list[tuple[str,
                                                       Optional[FaultSchedule]]]:
    """The ``(name, schedule)`` sweep, baseline first.

    Window times are virtual microseconds chosen to land inside the
    workload (the fault-free run takes a few thousand us).
    """
    scenarios: list[tuple[str, Optional[FaultSchedule]]] = [
        ("baseline", None),
        ("loss_1pct", FaultSchedule([GilbertElliott(loss_good=0.01)])),
        ("loss_5pct", FaultSchedule([GilbertElliott(loss_good=0.05)])),
        ("loss_10pct", FaultSchedule([GilbertElliott(loss_good=0.10)])),
        ("burst", FaultSchedule([
            GilbertElliott(p_good_bad=0.02, p_bad_good=0.25,
                           loss_bad=0.75)])),
        ("outage_short", FaultSchedule([
            LinkOutage(src=0, dst=1, start=400.0, end=900.0)])),
        ("outage_long", FaultSchedule([
            LinkOutage(src=0, dst=1, start=400.0, end=2400.0)])),
        ("ack_loss", FaultSchedule([
            AckLoss(src=1, dst=0, rate=0.3)])),
        ("cpu_pause", FaultSchedule([
            CpuPause(node=1, start=400.0, end=1400.0)])),
        ("cpu_slow", FaultSchedule([
            CpuDegrade(node=1, start=200.0, end=2200.0, factor=4.0)])),
        ("corrupt", FaultSchedule([Corruption(rate=0.05)])),
    ]
    if quick:
        keep = {"baseline", "loss_5pct", "burst", "outage_short",
                "ack_loss", "cpu_pause", "corrupt"}
        scenarios = [(n, s) for n, s in scenarios if n in keep]
    return scenarios


def chaos_point(nbytes: int, nmsgs: int,
                schedule: Optional[FaultSchedule],
                seed: int = CHAOS_SEED) -> dict:
    """One chaos measurement: ping-ack LAPI puts under ``schedule``.

    Module-level and picklable-in/picklable-out, so the sweep engine
    can run scenarios on pool workers (``--jobs N``).
    """
    records: dict = {}
    payload = bytes(i % 251 for i in range(nbytes))

    def main(task):
        lapi = task.lapi
        mem = task.memory
        buf = mem.malloc(nbytes)
        yield from lapi.gfence()
        if task.rank == 0:
            src = mem.malloc(nbytes)
            mem.write(src, payload)
            cmpl = lapi.counter()
            t0 = task.now()
            for _ in range(nmsgs):
                yield from lapi.put(1, nbytes, buf, src,
                                    cmpl_cntr=cmpl)
                yield from lapi.waitcntr(cmpl, 1)
            records["elapsed"] = task.now() - t0
        yield from lapi.gfence()
        # Counters are read after the closing fence: dropped acks are
        # absorbed by the send window during the put loop and only
        # drain (retransmit, Karn-skip) in the background afterwards.
        if task.rank == 0:
            tr = lapi.transport
            records["retransmissions"] = tr.retransmissions
            records["karn_skips"] = tr.karn_skips
            records["degraded_events"] = tr.peer_degraded_events
            records["rto"] = tr.peer_rto(1)
        if task.rank == 1:
            records["intact"] = mem.read(buf, nbytes) == payload

    # Chaos always arms its own telemetry (fixed CHAOS_WINDOW_US, no
    # rules): the per-window goodput curve IS the scenario's recovery
    # record.  When the CLI armed SLO rules (--slo), they are grafted
    # on so chaos clusters page too -- rule evaluation is passive, so
    # the records below are identical either way.
    tcfg = TelemetryConfig(window_us=CHAOS_WINDOW_US)
    armed = armed_telemetry()
    if armed is not None and armed.slo:
        tcfg = dataclasses.replace(tcfg, slo=armed.slo)
    cluster = fresh_cluster(2, seed=seed, faults=schedule,
                            telemetry=tcfg)
    cluster.run_job(main, stacks=("lapi",), interrupt_mode=False,
                    until=2_000_000.0)
    faults = cluster.faults
    records["fault_drops"] = (
        0 if faults is None
        else faults.ge_drops + faults.outage_drops + faults.ack_drops)
    records["crc_drops"] = 0 if faults is None else faults.crc_drops
    records["virtual_us"] = round(cluster.sim.now, 6)
    # Time-resolved goodput: fresh payload bytes delivered per window,
    # summed across both ranks' transports (rank 1 receives the puts,
    # rank 0 receives fence traffic).  Gap windows (no deliveries) are
    # simply absent -- consumers treat missing as zero.
    timeline = cluster.telemetry.timeline
    timeline.finalize()
    per_window: dict[int, int] = {}
    for rank in (0, 1):
        for w, delta in timeline.counter_windows(
                "telemetry.transport", "rx_payload_bytes", node=rank):
            per_window[w] = per_window.get(w, 0) + delta
    records["window_us"] = CHAOS_WINDOW_US
    records["goodput_windows"] = [[w, per_window[w]]
                                  for w in sorted(per_window)]
    #: Virtual time the first fault engaged (first drop/CRC discard);
    #: None for the baseline and for schedules that never fired.
    first = None if faults is None else faults.first_fault_us
    records["detection_us"] = (None if first is None
                               else round(first, 3))
    return records


def crash_scenarios(quick: bool = False) -> list[tuple[str,
                                                       Optional[FaultSchedule]]]:
    """Fail-stop crash sweep, baseline first.

    All three run even under ``--quick``: the CI fault-smoke
    serial/parallel determinism diff is the crash scenarios' primary
    regression gate.
    """
    return [
        ("crash_baseline", None),
        ("node_crash", FaultSchedule([
            NodeCrash(node=CRASH_NODE, start=CRASH_AT_US)])),
        ("node_crash_restart", FaultSchedule([
            NodeCrash(node=CRASH_NODE, start=CRASH_AT_US),
            NodeRestart(node=CRASH_NODE, start=RESTART_AT_US)])),
    ]


def crash_point(nbytes: int, nmsgs: int,
                schedule: Optional[FaultSchedule],
                seed: int = CHAOS_SEED) -> dict:
    """One fail-stop measurement: a 3-node put ring with per-message
    gfences, run under ``on_peer_failure="continue"``.

    Rank 0 is the measured survivor: its puts target rank 1 (also a
    survivor), but every gfence entangles it with rank 2 -- the node
    the schedule kills -- so the crash shows up as a goodput dip that
    lasts exactly until the failure detector convicts the dead peer
    and the barrier degrades to the survivor set.
    """
    records: dict = {}
    payload = bytes(i % 251 for i in range(nbytes))
    # Restart scenarios: survivors linger past the restart long enough
    # for two heartbeat rounds, so absolution (breaker close) is
    # observable regardless of how fast the put loop finishes.
    linger_until = None
    if schedule is not None:
        from ..machine.config import SP_1998
        restarts = [c.start for c in schedule.clauses
                    if isinstance(c, NodeRestart)]
        if restarts:
            linger_until = (max(restarts)
                            + 2 * SP_1998.heartbeat_period + 100.0)

    def main(task):
        lapi = task.lapi
        mem = task.memory
        buf = mem.malloc(nbytes)
        yield from lapi.gfence()
        dst = (task.rank + 1) % task.size
        src = mem.malloc(nbytes)
        mem.write(src, payload)
        cmpl = lapi.counter()
        sent = 0
        refused = 0
        t0 = task.now()
        for _ in range(nmsgs):
            try:
                if dst not in lapi.ctx.dead_peers:
                    if dst == CRASH_NODE:
                        # Plain put: a completion counter at a peer
                        # that may die mid-flight would never fire;
                        # the closing gfence still bounds delivery.
                        yield from lapi.put(dst, nbytes, buf, src)
                    else:
                        yield from lapi.put(dst, nbytes, buf, src,
                                            cmpl_cntr=cmpl)
                        yield from lapi.waitcntr(cmpl, 1)
                    sent += 1
            except PeerUnreachableError:
                # Conviction landed between the dead-peer check and
                # the send: the circuit breaker refused it fast.
                refused += 1
            yield from lapi.gfence()
        if task.rank == 0:
            records["elapsed"] = task.now() - t0
        if linger_until is not None and task.now() < linger_until:
            yield from task.thread.sleep(linger_until - task.now())
        if task.rank == 0:
            tr = lapi.transport
            records["retransmissions"] = tr.retransmissions
            records["karn_skips"] = tr.karn_skips
            records["rto"] = tr.peer_rto(1)
            records["sends_refused"] = refused
            records["completed_in_error"] = tr.completed_in_error
            records["breaker"] = {
                "opens": tr.breaker_opens,
                "closes": tr.breaker_closes,
                "suppressed": tr.breaker_suppressed,
            }
        if task.rank == 1:
            records["intact"] = mem.read(buf, nbytes) == payload
        return sent

    tcfg = TelemetryConfig(window_us=CHAOS_WINDOW_US)
    armed = armed_telemetry()
    if armed is not None and armed.slo:
        tcfg = dataclasses.replace(tcfg, slo=armed.slo)
    cluster = fresh_cluster(CRASH_NNODES, seed=seed, faults=schedule,
                            telemetry=tcfg)
    results = cluster.run_job(main, stacks=("lapi",),
                              interrupt_mode=False,
                              until=2_000_000.0,
                              on_peer_failure="continue")
    records["sent_per_rank"] = [r if isinstance(r, int) else None
                                for r in results]
    faults = cluster.faults
    records["fault_drops"] = (
        0 if faults is None
        else faults.ge_drops + faults.outage_drops + faults.ack_drops)
    records["crc_drops"] = 0 if faults is None else faults.crc_drops
    records["crash_dropped"] = sum(
        node.adapter.rx_crash_dropped + node.adapter.tx_crash_dropped
        for node in cluster.nodes)
    records["threads_killed"] = (0 if faults is None
                                 else faults.threads_killed)
    records["virtual_us"] = round(cluster.sim.now, 6)
    timeline = cluster.telemetry.timeline
    timeline.finalize()
    per_window: dict[int, int] = {}
    for rank in range(CRASH_NNODES):
        for w, delta in timeline.counter_windows(
                "telemetry.transport", "rx_payload_bytes", node=rank):
            per_window[w] = per_window.get(w, 0) + delta
    records["window_us"] = CHAOS_WINDOW_US
    records["goodput_windows"] = [[w, per_window[w]]
                                  for w in sorted(per_window)]
    # Crash/recovery instants.  ``detection_us`` keeps the chaos-table
    # meaning (first fault engaged = the crash itself); conviction is
    # when the heartbeat detector *observed* it, and their difference
    # is the detection latency the table reports.
    first = None if faults is None else faults.first_fault_us
    records["detection_us"] = (None if first is None
                               else round(first, 3))
    records["crash_events"] = (
        [] if faults is None
        else [[round(t, 3), node, what]
              for t, node, what in faults.crash_events])
    res = cluster.resilience
    if res is None:
        records["convictions"] = []
        records["recoveries"] = []
        records["conviction_us"] = None
        records["detection_latency_us"] = None
    else:
        records["convictions"] = [[round(t, 3), obs, peer]
                                  for t, obs, peer in res.convictions]
        records["recoveries"] = [[round(t, 3), obs, peer]
                                 for t, obs, peer in res.recoveries]
        first_conv = (round(res.convictions[0][0], 3)
                      if res.convictions else None)
        records["conviction_us"] = first_conv
        records["detection_latency_us"] = (
            None if first_conv is None or first is None
            else round(first_conv - first, 3))
    # Black-box dumps (conviction/crash triggers): the bench's crash
    # artifact, exported via --faults-out for CI to archive.  Only the
    # crash-forensic reasons are kept: globally-armed telemetry (e.g.
    # --slo) may trigger its own dumps, and --faults-out must stay a
    # pure function of the job args.
    # (their global dump "seq" is dropped for the same reason: an
    # SLO-triggered dump in between would renumber ours).
    flight = cluster.sim.flight
    records["flight"] = [] if flight is None else [
        {k: v for k, v in d.items() if k != "seq"}
        for d in flight.dump_dicts()
        if d.get("reason") in ("fault-engaged", "peer-convicted",
                               "peer-unreachable")]
    return records


def chaos_jobs(quick: bool = False) -> list[JobSpec]:
    """The chaos sweep as declarative job specs (one per scenario).

    Fail-stop crash scenarios ride in the same sweep: they are
    independent clusters, so the engine parallelizes them like any
    other scenario and the ``--faults-out`` determinism contract
    covers them too.
    """
    nmsgs = CHAOS_MSGS_QUICK if quick else CHAOS_MSGS
    jobs = [JobSpec(chaos_point, (CHAOS_BYTES, nmsgs, schedule,
                                  CHAOS_SEED),
                    key=("chaos", name))
            for name, schedule in chaos_scenarios(quick)]
    jobs.extend(JobSpec(crash_point, (CHAOS_BYTES, nmsgs, schedule,
                                      CHAOS_SEED),
                        key=("chaos", name))
                for name, schedule in crash_scenarios(quick))
    return jobs


def submit_chaos(quick: bool = False) -> Deferred:
    """Queue the chaos sweep; ``finish()`` builds the table."""
    return Deferred(submit(chaos_jobs(quick)),
                    lambda values: _chaos(values, quick))


def run_chaos(quick: bool = False) -> ExperimentResult:
    """Run the chaos sweep and shape-check the degradation curves."""
    return submit_chaos(quick).finish()


def degradation_pct(goodput: float, base_goodput: float) -> float:
    """Goodput degradation vs baseline, in percent, rounded to 0.1.

    Clamped at zero: float dust can put a scenario's goodput a hair
    *above* the baseline's, and ``round(-0.04, 1)`` renders as the
    nonsensical ``-0.0`` -- a healthy scenario reads ``0.0``.
    """
    raw = 100.0 * (1.0 - goodput / base_goodput)
    return round(raw, 1) if raw > 0.0 else 0.0


def _median_window_goodput(rec: dict) -> float:
    """Median per-window delivered bytes of one scenario's curve."""
    deltas = sorted(d for _, d in rec["goodput_windows"] if d > 0)
    if not deltas:
        return 0.0
    mid = len(deltas) // 2
    if len(deltas) % 2:
        return float(deltas[mid])
    return (deltas[mid - 1] + deltas[mid]) / 2.0


def _recovered_us(rec: dict, threshold: float) -> Optional[float]:
    """Virtual time the scenario's goodput recovered, or None.

    A window between the curve's first and last *active* windows is
    impaired when it delivers less than ``threshold`` bytes (absent
    windows delivered nothing -- exactly what an outage looks like).
    Recovery is the end of the last impaired window: from then on the
    curve holds baseline-grade goodput through the end of the run.
    None when no window was impaired (nothing to recover from).
    """
    per_window = {w: d for w, d in rec["goodput_windows"]}
    active = [w for w, d in per_window.items() if d > 0]
    if not active or threshold <= 0.0:
        return None
    impaired = [w for w in range(min(active), max(active) + 1)
                if per_window.get(w, 0) < threshold]
    if not impaired:
        return None
    return round((max(impaired) + 1) * rec["window_us"], 3)


def _chaos(values: list, quick: bool) -> ExperimentResult:
    names = [name for name, _ in chaos_scenarios(quick)]
    crash_names = [name for name, _ in crash_scenarios(quick)]
    nmsgs = CHAOS_MSGS_QUICK if quick else CHAOS_MSGS
    points = dict(zip(names + crash_names, values))

    base = points["baseline"]
    base_goodput = bandwidth_mbs(CHAOS_BYTES * nmsgs, base["elapsed"])
    #: Impairment threshold for the recovery curves: half the
    #: baseline's median per-window delivered bytes.
    threshold = IMPAIRED_FRACTION * _median_window_goodput(base)
    rows = []
    for name in names:
        rec = points[name]
        goodput = bandwidth_mbs(CHAOS_BYTES * nmsgs, rec["elapsed"])
        # Whole-run virtual time, not just the put loop: background
        # retransmissions drain after the sender's last completion.
        recovery = rec["virtual_us"] - base["virtual_us"]
        rec["recovered_us"] = (None if name == "baseline"
                               else _recovered_us(rec, threshold))
        detect = rec["detection_us"]
        recovered = rec["recovered_us"]
        rows.append([
            name, round(goodput, 2),
            degradation_pct(goodput, base_goodput),
            round(recovery, 1),
            "-" if detect is None else round(detect, 1),
            "-" if recovered is None else round(recovered, 1),
            rec["retransmissions"],
            rec["fault_drops"] + rec["crc_drops"],
            "yes" if rec["intact"] else "NO",
        ])

    # -- fail-stop crash rows (3-node ring; degradation and recovery
    # are measured against the crash-free 3-node baseline) -----------
    crash_base = points["crash_baseline"]
    crash_base_goodput = bandwidth_mbs(CHAOS_BYTES * nmsgs,
                                       crash_base["elapsed"])
    crash_threshold = (IMPAIRED_FRACTION
                       * _median_window_goodput(crash_base))
    for name in crash_names:
        rec = points[name]
        goodput = bandwidth_mbs(CHAOS_BYTES * nmsgs, rec["elapsed"])
        recovery = rec["virtual_us"] - crash_base["virtual_us"]
        rec["recovered_us"] = (None if name == "crash_baseline"
                               else _recovered_us(rec, crash_threshold))
        detect = rec["conviction_us"]
        recovered = rec["recovered_us"]
        rows.append([
            name, round(goodput, 2),
            degradation_pct(goodput, crash_base_goodput),
            round(recovery, 1),
            "-" if detect is None else round(detect, 1),
            "-" if recovered is None else round(recovered, 1),
            rec["retransmissions"],
            rec["crash_dropped"],
            "yes" if rec["intact"] else "NO",
        ])

    result = ExperimentResult(
        experiment="chaos",
        title="Chaos bench: goodput degradation and recovery under"
              " injected faults",
        headers=["scenario", "goodput MB/s", "degraded %",
                 "recovery us", "detect us", "recovered us",
                 "retx", "drops", "intact"],
        rows=rows)
    result.notes.append(
        f"workload: {nmsgs} x {CHAOS_BYTES}B LAPI puts (completion-"
        f"waited), seed {CHAOS_SEED:#x}; adaptive RTO auto-enabled by"
        " the installed schedule; deterministic across --jobs N")
    result.notes.append(
        "crash_* rows: 3-node put ring under on_peer_failure="
        "\"continue\"; node 2 fail-stops at"
        f" {CRASH_AT_US:.0f}us; 'detect us' is the heartbeat"
        " conviction instant, 'drops' the packets discarded by the"
        " dead adapter; degradation is vs crash_baseline; the restart"
        " scenario deliberately lingers past the restart instant to"
        " observe absolution, which inflates its 'recovery us'")

    result.check("baseline runs fault-free",
                 base["retransmissions"] == 0
                 and base["fault_drops"] == 0)
    result.check("every scenario delivers intact data",
                 all(points[n]["intact"] for n in names))
    result.check("every fault scenario injected faults and recovered",
                 all(points[n]["fault_drops"] + points[n]["crc_drops"]
                     + points[n]["retransmissions"] > 0
                     or points[n]["virtual_us"] > base["virtual_us"]
                     for n in names if n != "baseline"))
    lossy = [n for n in ("loss_1pct", "loss_5pct", "loss_10pct")
             if n in points]
    if len(lossy) > 1:
        degr = [points[n]["elapsed"] for n in lossy]
        result.check("loss degradation grows with the loss rate",
                     all(a <= b for a, b in zip(degr, degr[1:])),
                     " <= ".join(f"{d:.0f}us" for d in degr))
    # The adaptive estimator should have learned an RTO far below the
    # fixed 2000us retransmission timeout in any scenario that carried
    # acks (i.e. all of them).
    adapted = [n for n in names if n != "baseline"]
    result.check("adaptive RTO learns an RTT-scaled timeout"
                 " (below the fixed 2000us)",
                 all(points[n]["rto"] < 2000.0 for n in adapted),
                 f"max {max(points[n]['rto'] for n in adapted):.0f}us")
    ack = points.get("ack_loss")
    if ack is not None:
        result.check("ack loss exercises Karn's rule"
                     " (ambiguous RTT samples skipped)",
                     ack["karn_skips"] > 0, str(ack["karn_skips"]))
    result.check("every scenario emits a time-resolved goodput curve",
                 all(points[n]["goodput_windows"] for n in names))
    # The recovery curves must carry virtual timestamps: every fault
    # scenario that dropped/corrupted traffic records when the first
    # fault engaged, and the bursty-loss and link-outage scenarios --
    # whose curves visibly dip below baseline goodput -- record when
    # per-window goodput came back, after detection.
    engaged = [n for n in names if n != "baseline"
               and points[n]["fault_drops"] + points[n]["crc_drops"] > 0]
    result.check("engaged fault scenarios carry a detection timestamp",
                 all(points[n]["detection_us"] is not None
                     for n in engaged))
    curved = [n for n in ("burst", "outage_short", "outage_long")
              if n in points]
    result.check("burst/outage curves resolve recovery after detection",
                 all(points[n]["recovered_us"] is not None
                     and points[n]["detection_us"] is not None
                     and points[n]["recovered_us"]
                     > points[n]["detection_us"]
                     for n in curved),
                 ", ".join(
                     f"{n}: {points[n]['detection_us']}"
                     f"->{points[n]['recovered_us']}us"
                     for n in curved))
    # -- fail-stop crash checks ---------------------------------------
    crash = points["node_crash"]
    restart = points["node_crash_restart"]
    result.check("crash baseline is crash-free and intact",
                 crash_base["intact"]
                 and not crash_base["convictions"]
                 and crash_base["crash_dropped"] == 0)
    result.check("survivors deliver intact data through a crash",
                 crash["intact"] and restart["intact"])
    result.check("every survivor convicts the crashed node",
                 sorted({obs for _, obs, peer
                         in crash["convictions"]
                         if peer == CRASH_NODE})
                 == [n for n in range(CRASH_NNODES)
                     if n != CRASH_NODE],
                 str(crash["convictions"]))
    # Worst-case detection: a peer last heard just after a tick takes
    # conviction_threshold to go suspect plus up to one heartbeat
    # period until the next tick looks.
    from ..machine.config import SP_1998
    bound = SP_1998.conviction_threshold + SP_1998.heartbeat_period
    result.check("detection latency within one detection period"
                 f" (<= {bound:.0f}us)",
                 crash["detection_latency_us"] is not None
                 and 0.0 < crash["detection_latency_us"] <= bound,
                 f"{crash['detection_latency_us']}us")
    result.check("crash dips survivor goodput, then recovers",
                 crash["recovered_us"] is not None
                 and crash["conviction_us"] is not None
                 and crash["recovered_us"] > CRASH_AT_US,
                 f"dip {CRASH_AT_US:.0f}"
                 f"->{crash['recovered_us']}us")
    result.check("restart absolves the convicted peer",
                 any(peer == CRASH_NODE
                     for _, _, peer in restart["recoveries"])
                 and all(t > RESTART_AT_US
                         for t, _, _ in restart["recoveries"]),
                 str(restart["recoveries"]))
    result.check("conviction captures a flight-recorder dump",
                 any(d.get("reason") == "peer-convicted"
                     for d in crash["flight"])
                 and any(d.get("reason") == "fault-engaged"
                         for d in crash["flight"]))
    #: Raw per-scenario records (including exact virtual times), used
    #: by ``--faults-out`` so CI can diff determinism byte-for-byte.
    result.payload = {name: points[name] for name in names + crash_names}
    return result
