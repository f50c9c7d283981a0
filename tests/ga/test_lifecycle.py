"""GA lifecycle: GA_Terminate gives back everything GA allocated.

After ``run_job`` a node's simulated memory holds only what the user's
own ``malloc`` calls still hold; the AM pool is drained and closed, the
``ga.buffers`` metrics block still renders, and the host gets the
buffers back by refcounting -- without waiting for the cyclic GC to
find the finished cluster.
"""

import gc

import numpy as np
import pytest

from repro.bench import ga_putget
from repro.bench.apps import KERNELS
from repro.errors import GaError
from repro.machine import Cluster
from repro.machine.config import SP_1998

USER_BYTES = 4096


def _run_checked(fn, backend, seed=0xA5):
    """Run ``fn`` under GA; returns ``(cluster, tasks, pool blocks)``.

    Each rank ends with a sync and then records its own (quiescent)
    pool block, to compare with what the registry renders after
    terminate.
    """
    cluster = Cluster(nnodes=4, config=SP_1998, seed=seed)
    tasks, blocks = {}, {}

    def main(task):
        tasks[task.rank] = task
        yield from fn(task)
        yield from task.ga.sync()
        if backend == "lapi":
            blocks[str(task.rank)] = task.ga.backend._pool_metrics()

    cluster.run_job(main, ga_backend=backend)
    return cluster, tasks, blocks


def _assert_released(cluster, tasks, blocks, backend, user_bytes=0):
    assert [n.memory.live_bytes for n in cluster.nodes] \
        == [user_bytes] * cluster.nnodes
    if backend == "lapi":
        for task in tasks.values():
            pool = task.ga.backend.pool
            assert pool.in_use == 0
            assert pool.slab is None
        assert cluster.metrics.snapshot()["ga.buffers"] == blocks
    else:
        assert "ga.buffers" not in cluster.metrics.snapshot()


def _leaky_job(task):
    """Arrays, mutexes and AM traffic, none of it cleaned up; one user
    malloc per node that GA must leave alone."""
    ga = task.ga
    task.node.memory.malloc(USER_BYTES)
    kept = yield from ga.create((64, 64), name="kept")
    gone = yield from ga.create((32, 32), name="gone")
    yield from ga.zero(kept)
    yield from ga.create_mutexes(5)
    # A strided accumulate goes through the AM chunk path (the pool).
    block = ga.distribution(kept, (task.rank + 1) % task.size)
    sec = (block.ilo + 1, block.ilo + 8, block.jlo + 1, block.jlo + 8)
    yield from ga.acc_ndarray(kept, sec, np.ones((8, 8)))
    yield from ga.destroy(gone)


class TestTerminateReleases:
    def test_leaky_job_leaves_only_user_memory(self, backend):
        cluster, tasks, blocks = _run_checked(_leaky_job, backend)
        _assert_released(cluster, tasks, blocks, backend,
                         user_bytes=USER_BYTES)
        if backend == "lapi":
            assert any(b["small_high_water"] or b["large_high_water"]
                       for b in blocks.values())

    @pytest.mark.parametrize("kernel", ["transpose (pure comm)",
                                        "SCF Fock build"])
    def test_apps_kernel(self, backend, kernel):
        cluster, tasks, blocks = _run_checked(KERNELS[kernel], backend)
        _assert_released(cluster, tasks, blocks, backend)

    @pytest.mark.parametrize("op,kind", [("put", "2d"), ("get", "1d")])
    def test_fig3_style_job(self, backend, op, kind, monkeypatch):
        clusters = []
        fresh = ga_putget.fresh_cluster

        def recording(*args, **kw):
            clusters.append(fresh(*args, **kw))
            return clusters[-1]

        monkeypatch.setattr(ga_putget, "fresh_cluster", recording)
        ga_putget.ga_transfer_rate(backend, op, kind, 8192)
        (cluster,) = clusters
        assert [n.memory.live_bytes for n in cluster.nodes] == [0] * 4
        buffers = cluster.metrics.snapshot().get("ga.buffers")
        if backend == "lapi":
            assert sorted(buffers) == ["0", "1", "2", "3"]
            assert all(b["in_use"] == 0 and b["small_free"] == 256
                       and b["large_free"] == 16
                       for b in buffers.values())
        else:
            assert buffers is None

    def test_calls_after_terminate_raise(self, backend):
        handles = {}

        def fn(task):
            handles[task.rank] = yield from task.ga.create((8, 8))

        _, tasks, _ = _run_checked(fn, backend)
        ga, h = tasks[0].ga, handles[0]

        def drive(gen):
            for _ in gen:
                pass

        for call in (lambda: drive(ga.create((4, 4))),
                     lambda: drive(ga.sync()),
                     lambda: drive(ga.put(h, (0, 0, 0, 0), 0)),
                     lambda: drive(ga.create_mutexes(1)),
                     lambda: drive(ga.destroy_mutexes()),
                     lambda: ga.access(h),
                     lambda: ga.distribution(h)):
            with pytest.raises(GaError):
                call()
        # Terminate is idempotent.
        drive(ga.terminate())


def test_host_memory_does_not_accumulate_across_jobs(mapped, monkeypatch):
    """Four consecutive GA jobs peak where one does, with the cyclic GC
    off and every finished cluster still held: refcounting alone, after
    GA_Terminate's frees, unmaps a finished job's buffers."""
    held = []
    fresh = ga_putget.fresh_cluster

    def holding(*args, **kw):
        held.append(fresh(*args, **kw))
        return held[-1]

    def peak(njobs):
        mapped.reset()
        for _ in range(njobs):
            ga_putget.ga_transfer_rate("lapi", "put", "1d", 8192)
        return mapped.peak

    monkeypatch.setattr(ga_putget, "fresh_cluster", holding)
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        one = peak(1)
        four = peak(4)
    finally:
        if was_enabled:
            gc.enable()
    assert len(held) == 5
    assert one > 40e6  # the 33.5 MB array + four 4.25 MB slabs
    assert four == one
