"""Supplemental scaling study (not a paper artifact).

The paper's systems ranged from 2 to 128 nodes and GA ran on a
512-node SP; its evaluation, however, is all 2- and 4-node
microbenchmarks.  This supplemental experiment characterizes how the
reproduced stack scales with node count:

* **Gfence latency** -- the dissemination barrier should grow with
  ``ceil(log2(N))`` rounds of roughly one one-way latency each;
* **aggregate all-to-all bandwidth** -- every task puts to every other
  task simultaneously; the multistage fabric should sustain aggregate
  throughput well above a single link's rate, growing with N until the
  middle stage saturates.

Labelled supplemental everywhere: the paper makes no quantitative
scaling claims, so the checks here validate the *model's* internal
consistency (log-growth, monotone aggregate bandwidth), not paper
numbers.

This study measures the *model* at small node counts; its sibling
:mod:`repro.bench.scale` (``--scale``) measures the *simulator* at
512-4096 nodes across the sp/fattree/dragonfly fabrics.
"""

from __future__ import annotations

import math

from ..machine.config import SP_1998, MachineConfig
from .parallel import Deferred, JobSpec, spread_seed, submit
from .report import ExperimentResult
from .runner import fresh_cluster, mean

__all__ = ["submit_scaling", "scaling_jobs",
           "gfence_latency", "alltoall_aggregate", "SCALING_SEED"]

NODE_COUNTS = [2, 4, 8, 16]

#: Experiment base seed; each job derives its own cluster seed via the
#: SplitMix spread so shards stay RNG-independent however they are
#: scheduled (the 8- and 16-node runs exercise multipath routing and
#: so genuinely consume their streams).
SCALING_SEED = 0xBE1


def gfence_latency(nnodes: int, config: MachineConfig = SP_1998,
                   reps: int = 8, seed: int = 0xBE1) -> float:
    """Mean LAPI_Gfence completion time at ``nnodes`` tasks [us]."""
    records = {}

    def main(task):
        lapi = task.lapi
        yield from lapi.gfence()  # warm-up epoch
        times = []
        for _ in range(reps):
            t0 = task.now()
            yield from lapi.gfence()
            times.append(task.now() - t0)
        if task.rank == 0:
            records["mean"] = mean(times)

    fresh_cluster(nnodes, config, seed=seed).run_job(
        main, stacks=("lapi",))
    return records["mean"]


def alltoall_aggregate(nnodes: int, nbytes_per_pair: int = 65536,
                       config: MachineConfig = SP_1998,
                       seed: int = 0xBE1) -> float:
    """Aggregate all-to-all put bandwidth [MB/s] at ``nnodes`` tasks."""
    records = {}

    def main(task):
        lapi = task.lapi
        mem = task.memory
        size = task.size
        window = mem.malloc(nbytes_per_pair * size)
        src = mem.malloc(nbytes_per_pair)
        yield from lapi.gfence()
        t0 = task.now()
        for peer in range(size):
            if peer != task.rank:
                yield from lapi.put(
                    peer, nbytes_per_pair,
                    window + task.rank * nbytes_per_pair, src)
        yield from lapi.fence()
        yield from lapi.gfence()
        if task.rank == 0:
            records["elapsed"] = task.now() - t0

    fresh_cluster(nnodes, config, seed=seed).run_job(
        main, stacks=("lapi",))
    total_bytes = nnodes * (nnodes - 1) * nbytes_per_pair
    return total_bytes / records["elapsed"]


def scaling_jobs(config: MachineConfig = SP_1998) -> list[JobSpec]:
    """Per-node-count barrier and all-to-all measurements as specs,
    each shard seeded independently via the SplitMix spread."""
    specs = []
    for i, n in enumerate(NODE_COUNTS):
        specs.append(JobSpec(
            gfence_latency, (n, config),
            {"seed": spread_seed(SCALING_SEED, 2 * i)},
            key=("scaling", "gfence", n)))
        specs.append(JobSpec(
            alltoall_aggregate, (n,),
            {"config": config,
             "seed": spread_seed(SCALING_SEED, 2 * i + 1)},
            key=("scaling", "alltoall", n)))
    return specs


def submit_scaling(config: MachineConfig = SP_1998) -> Deferred:
    """Queue the scaling sweep; ``finish()`` builds the table."""
    return Deferred(submit(scaling_jobs(config)),
                    lambda values: _scaling(values, config))



def _scaling(values: list, config: MachineConfig) -> ExperimentResult:
    rows = []
    barrier = {}
    aggregate = {}
    for i, n in enumerate(NODE_COUNTS):
        barrier[n] = values[2 * i]
        aggregate[n] = values[2 * i + 1]
        rounds = math.ceil(math.log2(n))
        rows.append([n, rounds, barrier[n], aggregate[n]])
    result = ExperimentResult(
        experiment="scaling",
        title="SUPPLEMENTAL: scaling with node count",
        headers=["nodes", "barrier rounds", "gfence [us]",
                 "all-to-all aggregate [MB/s]"],
        rows=rows)
    result.notes.append(
        "supplemental model-consistency study; the paper reports no"
        " multi-node scaling numbers")
    result.check(
        "gfence grows sub-linearly (log-round dissemination)",
        barrier[16] < 4.5 * barrier[2],
        f"{barrier[2]:.1f} -> {barrier[16]:.1f}us over 8x nodes")
    result.check(
        "gfence increases with rounds",
        barrier[2] < barrier[4] <= barrier[8] * 1.05 <= barrier[16] * 1.1)
    result.check(
        "aggregate all-to-all bandwidth exceeds one link's rate at"
        " 8+ nodes",
        aggregate[8] > config.link_bandwidth
        and aggregate[16] > config.link_bandwidth,
        f"8 nodes: {aggregate[8]:.0f}, 16 nodes: {aggregate[16]:.0f}")
    result.check(
        "aggregate bandwidth grows while the fabric has headroom"
        " (2 -> 8 nodes)",
        aggregate[2] < aggregate[4] < aggregate[8])
    if aggregate[16] < aggregate[8]:
        result.notes.append(
            "16-node all-to-all shows incast collapse: every adapter's"
            " RX FIFO absorbs 15 simultaneous senders, drops force"
            " retransmission timeouts -- the congestion behaviour real"
            " switched fabrics exhibit under unthrottled incast")
    return result
