"""The ledger's five workloads: inputs, jobs and output checks.

Each workload is a closed loop of SPMD jobs: one client (this driver)
issues a job, waits for it to finish, checks its outputs, and only then
issues the next.  ``make_inputs(seed, smoke)`` builds plain data --
payloads, size schedules, cluster seeds, fault schedules -- and
``run(inputs, rec)`` replays it as one repetition; the simulator only
ever sees the generated inputs, never the seed.

Sizing constants live here, not on the CLI, so two commits are always
compared on the same work.  ``smoke`` is the size class of
``ledger/tests``: same code paths, a fraction of the work.

Why these five (the README has the interaction table):

* ``paper_regen`` is what users run; the only place GA, the app
  kernels, numpy and the bench harness carry weight.
* ``smallmsg`` is per-message cost: single packets, trains never
  engage, polling and interrupt phases side by side.
* ``bulk`` is per-packet cost: ~1500 packets per message, the train and
  SoA lanes and the pools engaged.
* ``scale`` is the deep pending-event set: 256 nodes, routing, route
  cache, dissemination gfence.
* ``chaos`` is the same machine/core layers with every fast lane
  disengaged by loss, plus the only armed faults/resilience/obs code.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Optional

from repro.bench import ALL_EXPERIMENTS, paper, parallel, runner
from repro.bench.chaos import chaos_point, crash_point
from repro.bench.scale import SCALE_TOPOLOGIES, scale_point
from repro.core import RmwOp
from repro.faults import (AckLoss, Corruption, CpuPause, FaultSchedule,
                          GilbertElliott, LinkOutage, NodeCrash,
                          NodeRestart)
from repro.machine import Cluster

__all__ = ["WORKLOADS", "Workload", "paper_error_pct"]

KIB = 1024
MIB = 1024 * 1024


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    make_inputs: Callable[[int, bool], dict]
    #: Runs one repetition; may return extra *simulated* metrics.
    run: Callable[[dict, object], Optional[dict]]
    #: Allowed ``train packets / packets sent`` of a repetition, so a
    #: workload that silently stops exercising (or bypassing) the train
    #: lanes fails instead of "speeding up".  None: not asserted.
    train_share: Optional[tuple] = None


def _rng(seed: int, salt: str) -> random.Random:
    return random.Random(f"{salt}:{seed}")


# ----------------------------------------------------------------------
# paper_regen
# ----------------------------------------------------------------------

#: The ``--perf-quick`` sweeps with the 2 MiB point replaced by 512 KiB
#: (2 MiB streams are ``bulk``'s job); every shape check still resolves.
_FIG2_SIZES = [1024, 8192, 16384, 65536, 524288]
_GA_SIZES = [512, 8192, 131072, 524288]
#: Smoke keeps the experiments whose shape checks need no size sweep.
_SMOKE_EXPERIMENTS = ("table1", "table2", "pipeline", "ga_lat")


class _DrainingScheduler(parallel.SweepScheduler):
    """Serial sweep scheduler that hands every finished cluster to the
    recorder as soon as its job ends.

    The bench runners build their clusters internally; arming
    ``capture`` makes ``fresh_cluster`` retain them, and draining per
    job (instead of per experiment) keeps a whole fig3 sweep's arrays
    from piling up -- retention is what would otherwise triple RSS.
    """

    def __init__(self) -> None:
        super().__init__(jobs=1)
        self.rec = None

    def submit(self, specs):
        return super().submit([
            parallel.JobSpec(self._run_and_drain, (spec,), key=spec.key)
            for spec in specs])

    def _run_and_drain(self, spec):
        value = spec.run()
        for cluster in runner.captured_clusters():
            self.rec.cluster_done(cluster)
        return value


def _paper_inputs(seed: int, smoke: bool) -> dict:
    # Seed-independent by construction: the paper's inputs are fixed.
    names = _SMOKE_EXPERIMENTS if smoke else tuple(ALL_EXPERIMENTS)
    kwargs = {"fig2": {"sizes": _FIG2_SIZES},
              "fig3": {"sizes": _GA_SIZES},
              "fig4": {"sizes": _GA_SIZES}}
    return {"experiments": [(n, ALL_EXPERIMENTS[n], kwargs.get(n, {}))
                            for n in names],
            "scheduler": _DrainingScheduler()}


def _paper_run(inputs: dict, rec) -> dict:
    scheduler = inputs["scheduler"]
    scheduler.rec = rec
    if parallel.get_executor() is not scheduler:
        parallel.set_executor(scheduler)
    results = {}
    for name, runner_fn, kwargs in inputs["experiments"]:
        with rec.job(name):
            with rec.span("run_job"):
                result = runner_fn(**kwargs)
            with rec.span("verify"):
                for check in result.checks:
                    rec.check(check.passed, f"{name}: shape check failed:"
                              f" {check.name} ({check.detail})")
                rec.value(name, result.rows)
                results[name] = result
    return {"paper_err_pct": paper_error_pct(results)}


def paper_error_pct(results: dict) -> float:
    """Mean absolute percentage error of the simulated values against
    the paper's numeric anchors (Table 2 x6, pipeline x2, GA latency
    x4, fig2 asymptotes x2); anchors of experiments that did not run
    (smoke) are left out."""
    pairs = []
    if "table2" in results:
        for row in results["table2"].rows:
            pairs += [(row[1], row[2]), (row[3], row[4])]
    for name in ("pipeline", "ga_lat"):
        if name in results:
            pairs += [(row[1], row[2]) for row in results[name].rows]
    if "fig2" in results:
        rows = results["fig2"].rows
        pairs.append((paper.FIG2["lapi_asymptote_mbs"],
                      max(r[1] for r in rows)))
        pairs.append((paper.FIG2["mpi_asymptote_mbs"],
                      max(r[3] for r in rows)))
    return sum(abs(sim - ref) / ref for ref, sim in pairs) \
        * 100.0 / len(pairs)


# ----------------------------------------------------------------------
# smallmsg
# ----------------------------------------------------------------------

_SMALL_BLOB = 4 * KIB
_SMALL_MAX = 1 * KIB


def _small_schedule(rng: random.Random, count: int) -> list:
    """``count`` single-packet transfers: (nbytes 4..1 KiB, offset)."""
    out = []
    for _ in range(count):
        n = rng.randrange(4, _SMALL_MAX + 1)
        out.append((n, rng.randrange(0, _SMALL_BLOB - n + 1)))
    return out


def _small_inputs(seed: int, smoke: bool) -> dict:
    rng = _rng(seed, "smallmsg")
    scale = 20 if smoke else 1
    return {
        "blob": rng.randbytes(_SMALL_BLOB),
        "cluster_seed": rng.getrandbits(32),
        "lapi": {"puts": _small_schedule(rng, 1000 // scale),
                 "ams": _small_schedule(rng, 500 // scale),
                 "gets": _small_schedule(rng, 500 // scale),
                 "rmws": 500 // scale},
        "mpl": {"sends": _small_schedule(rng, 1200 // scale),
                "barriers": 100 // scale},
    }


def _small_lapi_job(inputs: dict, rec, name: str,
                    interrupt_mode: bool) -> None:
    blob = inputs["blob"]
    plan = inputs["lapi"]
    puts, ams, gets, nrmw = (plan["puts"], plan["ams"], plan["gets"],
                             plan["rmws"])

    def main(task):
        lapi = task.lapi
        mem = task.memory
        # Symmetric allocation: every rank mallocs in the same order,
        # so a local address names the same buffer on the peer.
        buf = mem.malloc(_SMALL_MAX)
        echo = mem.malloc(_SMALL_MAX)
        src = mem.malloc(_SMALL_BLOB)
        mem.write(src, blob)
        word = mem.malloc(8)
        mem.write_i64(word, 0)
        ping = lapi.counter("ping")
        pong = lapi.counter("pong")
        am_done = lapi.counter("am")
        headers, completions = [], []

        def header_handler(t, origin, uhdr, udata_len):
            headers.append((origin, udata_len))

            def completion_handler(t2, info):
                completions.append(info)
            return buf, completion_handler, int.from_bytes(uhdr, "little")

        hid = lapi.register_handler(header_handler)
        yield from lapi.gfence()
        bad = 0
        if task.rank == 0:
            for n, off in puts:
                yield from lapi.put(1, n, buf, src + off, tgt_cntr=ping.id)
                yield from lapi.waitcntr(pong, 1)
                bad += mem.read(echo, n) != blob[off:off + n]
            cmpl = lapi.counter()
            for i, (n, off) in enumerate(ams):
                yield from lapi.amsend(1, hid, i.to_bytes(4, "little"),
                                       src + off, n, tgt_cntr=am_done.id,
                                       cmpl_cntr=cmpl)
                yield from lapi.waitcntr(cmpl, 1)
            for i in range(nrmw):
                prev = yield from lapi.rmw_sync(RmwOp.FETCH_AND_ADD, 1,
                                                word, i + 1)
                bad += prev != i * (i + 1) // 2
            for n, off in gets:
                yield from lapi.get_sync(1, n, src + off, echo)
                bad += mem.read(echo, n) != blob[off:off + n]
            yield from lapi.gfence()
            return bad
        for n, _ in puts:
            yield from lapi.waitcntr(ping, 1)
            yield from lapi.put(0, n, echo, buf, tgt_cntr=pong.id)
        yield from lapi.waitcntr(am_done, len(ams))
        # The closing gfence polls, which serves rank 0's Rmw and Get
        # requests in polling mode.
        yield from lapi.gfence()
        n, off = ams[-1]
        return (mem.read_i64(word), headers, completions,
                mem.read(buf, n) == blob[off:off + n])

    with rec.job(name):
        with rec.span("cluster_build"):
            cluster = Cluster(2, seed=inputs["cluster_seed"])
        with rec.span("run_job"):
            bad, target = cluster.run_job(main, stacks=("lapi",),
                                          interrupt_mode=interrupt_mode)
        with rec.span("verify"):
            word, headers, completions, last_am_intact = target
            rec.check(bad == 0, f"{name}: {bad} put/get/rmw read-backs"
                      " differ from what was sent")
            rec.check(word == nrmw * (nrmw + 1) // 2,
                      f"{name}: rmw word is {word}")
            rec.check(headers == [(0, n) for n, _ in ams],
                      f"{name}: header handler saw {len(headers)} AMs")
            rec.check(completions == list(range(len(ams))),
                      f"{name}: completion handlers ran out of order")
            rec.check(last_am_intact, f"{name}: last AM payload differs")
            rec.ops("core", 2 * len(puts) + len(ams) + nrmw + len(gets))
            rec.cluster_done(cluster)


def _small_mpl_job(inputs: dict, rec, name: str,
                   interrupt_mode: bool) -> None:
    blob = inputs["blob"]
    sends = inputs["mpl"]["sends"]
    nbarriers = inputs["mpl"]["barriers"]

    def main(task):
        mpl = task.mpl
        mem = task.memory
        src = mem.malloc(_SMALL_BLOB)
        mem.write(src, blob)
        if task.rank == 1 and interrupt_mode:
            def echo_handler(t, origin, tag, data):
                yield from t.mpl.send(origin, data, len(data), tag=2)
            mpl.rcvncall(1, echo_handler)
        yield from mpl.barrier()
        bad = 0
        if task.rank == 0:
            for n, off in sends:
                yield from mpl.send(1, src + off, n, tag=1)
                data = yield from mpl.recv_bytes(1, tag=2)
                bad += data != blob[off:off + n]
        elif not interrupt_mode:
            for _ in sends:
                data = yield from mpl.recv_bytes(0, tag=1)
                yield from mpl.send(0, data, len(data), tag=2)
        for _ in range(nbarriers):
            yield from mpl.barrier()
        return bad

    with rec.job(name):
        with rec.span("cluster_build"):
            cluster = Cluster(2, seed=inputs["cluster_seed"])
        with rec.span("run_job"):
            bad, _ = cluster.run_job(main, stacks=("mpl",),
                                     interrupt_mode=interrupt_mode)
        with rec.span("verify"):
            rec.check(bad == 0, f"{name}: {bad} echoes differ from what"
                      " was sent")
            rec.ops("mpl", 2 * len(sends) + nbarriers + 1)
            rec.cluster_done(cluster)


def _small_run(inputs: dict, rec) -> None:
    _small_lapi_job(inputs, rec, "lapi_poll", interrupt_mode=False)
    _small_lapi_job(inputs, rec, "lapi_intr", interrupt_mode=True)
    _small_mpl_job(inputs, rec, "mpl_poll", interrupt_mode=False)
    _small_mpl_job(inputs, rec, "mpl_intr", interrupt_mode=True)


# ----------------------------------------------------------------------
# bulk
# ----------------------------------------------------------------------

#: Every job moves these message sizes, in a seed-drawn order: both ends
#: of the 512 KiB-2 MiB range, and the same bytes, packets and largest
#: buffer whatever the seed (so host cost and peak RSS do not move with
#: it).
_BULK_SIZES = [512 * KIB, 1536 * KIB, 2 * MIB]
_EAGER = 64 * KIB


def _bulk_inputs(seed: int, smoke: bool) -> dict:
    rng = _rng(seed, "bulk")
    sizes = _BULK_SIZES[:1] if smoke else _BULK_SIZES
    total = sum(sizes)
    return {
        "blob": rng.randbytes(total),
        "cluster_seed": rng.getrandbits(32),
        "sizes": {job: rng.sample(sizes, len(sizes))
                  for job in ("lapi_put", "lapi_get", "mpl_rndv")},
        "eager_msgs": total // _EAGER,
    }


def _bulk_lapi_job(inputs: dict, rec, name: str) -> None:
    blob = inputs["blob"]
    sizes = inputs["sizes"][name]
    is_put = name == "lapi_put"

    def main(task):
        lapi = task.lapi
        mem = task.memory
        src = mem.malloc(len(blob))
        dst = mem.malloc(len(blob))
        mem.write(src, blob)
        yield from lapi.gfence()
        bad = 0
        if task.rank == 0:
            cmpl = lapi.counter()
            pos = 0
            for n in sizes:
                if is_put:
                    yield from lapi.put(1, n, dst + pos, src + pos,
                                        cmpl_cntr=cmpl)
                    yield from lapi.waitcntr(cmpl, 1)
                else:
                    yield from lapi.get_sync(1, n, src + pos, dst + pos)
                    bad += mem.read(dst + pos, n) != blob[pos:pos + n]
                pos += n
        yield from lapi.gfence()
        if task.rank == 1 and is_put:
            bad += mem.read(dst, len(blob)) != blob
        return bad

    with rec.job(name):
        with rec.span("cluster_build"):
            cluster = Cluster(2, seed=inputs["cluster_seed"])
        with rec.span("run_job"):
            bad = sum(cluster.run_job(main, stacks=("lapi",),
                                      interrupt_mode=False))
        with rec.span("verify"):
            rec.check(bad == 0, f"{name}: transferred bytes differ")
            rec.ops("core", len(sizes))
            rec.cluster_done(cluster)


def _bulk_mpl_job(inputs: dict, rec, name: str, sizes: list,
                  eager_limit) -> None:
    blob = inputs["blob"]

    def main(task):
        mpl = task.mpl
        mem = task.memory
        src = mem.malloc(len(blob))
        dst = mem.malloc(len(blob))
        mem.write(src, blob)
        yield from mpl.barrier()
        pos = 0
        if task.rank == 0:
            for n in sizes:
                yield from mpl.send(1, src + pos, n, tag=1)
                pos += n
            yield from mpl.recv_bytes(1, tag=2)  # delivery ack
        else:
            for n in sizes:
                yield from mpl.recv(0, 1, dst + pos, n)
                pos += n
            yield from mpl.send(0, b"", 0, tag=2)
        yield from mpl.barrier()
        return task.rank == 1 and mem.read(dst, len(blob)) != blob

    with rec.job(name):
        with rec.span("cluster_build"):
            cluster = Cluster(2, seed=inputs["cluster_seed"])
        with rec.span("run_job"):
            bad = any(cluster.run_job(main, stacks=("mpl",),
                                      interrupt_mode=False,
                                      eager_limit=eager_limit))
        with rec.span("verify"):
            rec.check(not bad, f"{name}: received bytes differ")
            rec.ops("mpl", len(sizes) + 1)
            rec.cluster_done(cluster)


def _bulk_run(inputs: dict, rec) -> None:
    _bulk_lapi_job(inputs, rec, "lapi_put")
    _bulk_lapi_job(inputs, rec, "lapi_get")
    _bulk_mpl_job(inputs, rec, "mpl_rndv", inputs["sizes"]["mpl_rndv"],
                  eager_limit=None)
    # The same bytes as 64 KiB messages under MP_EAGER_LIMIT=65536: the
    # eager path with multi-packet bodies.
    _bulk_mpl_job(inputs, rec, "mpl_eager64k",
                  [_EAGER] * inputs["eager_msgs"], eager_limit=_EAGER)


# ----------------------------------------------------------------------
# scale
# ----------------------------------------------------------------------

def _scale_inputs(seed: int, smoke: bool) -> dict:
    nnodes = 32 if smoke else 256
    return {"points": [(topology, nnodes, parallel.spread_seed(seed, i))
                       for i, topology in enumerate(SCALE_TOPOLOGIES)]}


def _scale_run(inputs: dict, rec) -> None:
    for topology, nnodes, seed in inputs["points"]:
        name = f"{topology}/{nnodes}"
        with rec.job(name):
            with rec.span("run_job"):
                record = scale_point(nnodes, topology, seed)
                [cluster] = runner.captured_clusters()
            with rec.span("verify"):
                rec.check(record["rx_dropped"] == 0,
                          f"{name}: receive-FIFO drops")
                rec.check(record["packets_sent"] == record["packets_routed"]
                          and 0 <= (record["packets_routed"]
                                    - record["packets_received"]) <= nnodes,
                          f"{name}: packets not conserved")
                rec.check(record["route_cache_len"]
                          <= record["route_cache_limit"],
                          f"{name}: route cache over its bound")
                # One put, one fence per rank, between two gfences.
                rec.ops("core", 4 * nnodes)
                rec.cluster_done(cluster)
            del cluster


# ----------------------------------------------------------------------
# chaos
# ----------------------------------------------------------------------

_CHAOS_BYTES = 16 * KIB


def _chaos_inputs(seed: int, smoke: bool) -> dict:
    rng = _rng(seed, "chaos")
    # The ring must outlive the crash instant even in smoke.
    stream_msgs, ring_msgs = (10, 40) if smoke else (150, 120)
    # Fault windows (virtual us) land inside the streams; no fault-free
    # baseline scenario: every job here keeps the train lanes off.
    streams = [
        ("loss_5pct", [GilbertElliott(loss_good=0.05)]),
        ("burst", [GilbertElliott(p_good_bad=0.02, p_bad_good=0.25,
                                  loss_bad=0.75)]),
        ("outage", [LinkOutage(src=0, dst=1, start=400.0, end=2400.0)]),
        ("ack_loss", [AckLoss(src=1, dst=0, rate=0.3)]),
        ("corrupt", [Corruption(rate=0.05)]),
        ("cpu_pause", [CpuPause(node=1, start=400.0, end=1400.0)]),
    ]
    crashes = [
        ("node_crash", [NodeCrash(node=2, start=1500.0)]),
        ("node_crash_restart", [NodeCrash(node=2, start=1500.0),
                                NodeRestart(node=2, start=6000.0)]),
    ]
    # The fault dice are the cluster's seeded ``faults`` RNG stream.
    jobs = [(name, chaos_point, stream_msgs, clauses)
            for name, clauses in streams]
    jobs += [(name, crash_point, ring_msgs, clauses)
             for name, clauses in crashes]
    return {"jobs": [(name, point, nmsgs, FaultSchedule(clauses),
                      rng.getrandbits(32))
                     for name, point, nmsgs, clauses in jobs]}


def _chaos_run(inputs: dict, rec) -> None:
    for name, point, nmsgs, schedule, seed in inputs["jobs"]:
        with rec.job(name):
            with rec.span("run_job"):
                record = point(_CHAOS_BYTES, nmsgs, schedule, seed)
                [cluster] = runner.captured_clusters()
            with rec.span("verify"):
                rec.check(record["intact"],
                          f"{name}: target buffer differs after faults")
                if point is crash_point:
                    rec.check(len(record["convictions"]) == 2,
                              f"{name}: survivors convicted"
                              f" {record['convictions']}")
                    sent = record["sent_per_rank"]
                    rec.check(sent[0] == nmsgs,
                              f"{name}: survivors sent {sent}")
                    rec.ops("core", sum(s for s in sent if s is not None))
                else:
                    rec.ops("core", nmsgs)
                rec.value(name, record["virtual_us"],
                          record["retransmissions"], record["fault_drops"],
                          record["crc_drops"])
                rec.cluster_done(cluster)
            del cluster


# ----------------------------------------------------------------------

WORKLOADS = {w.name: w for w in (
    Workload("paper_regen",
             "what users run: every table/figure runner; only place GA,"
             " apps, numpy and the bench harness carry weight",
             _paper_inputs, _paper_run),
    Workload("smallmsg",
             "per-message cost: single-packet LAPI and MPL round trips,"
             " polling and interrupt side by side; train lanes bypassed",
             _small_inputs, _small_run, train_share=(0.0, 0.0)),
    Workload("bulk",
             "per-packet cost: 512 KiB-2 MiB streams, ~1500 packets per"
             " message; train/SoA lanes and pools engaged",
             _bulk_inputs, _bulk_run, train_share=(0.4, 1.0)),
    Workload("scale",
             "deep event queue: 256 nodes on sp, fattree and dragonfly;"
             " routing, route cache and dissemination gfence",
             _scale_inputs, _scale_run),
    Workload("chaos",
             "slow lane: loss, outage, corruption and a node crash force"
             " the per-packet path; only armed faults/resilience/obs",
             _chaos_inputs, _chaos_run, train_share=(0.0, 0.0)),
)}
