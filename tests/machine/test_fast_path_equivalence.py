"""Golden equivalence: the hot-path fast lanes must not change physics.

The TX-engine packet-train collapse (``MachineConfig.fast_trains``) and
the ``call_at`` fast timers are pure simulator optimizations: every
virtual-time observable -- completion times, bandwidths, per-subsystem
metrics -- must be identical with them on or off.  These tests run the
same workload under both settings and compare the full metrics render,
and pin down each condition that must disengage the train fast path
(loss, core jitter, multiple routes, non-contiguous vectors).
"""

import pytest

from repro.machine import Cluster
from repro.machine.config import SP_1998
from repro.machine.switch import Switch
from repro.sim import RngRegistry, Simulator

NBYTES = 262144  # enough packets for several trains


def _put_job(nbytes, target):
    def main(task):
        lapi = task.lapi
        mem = task.memory
        buf = mem.malloc(nbytes)
        yield from lapi.gfence()
        if task.rank == 0:
            src = mem.malloc(nbytes)
            cmpl = lapi.counter()
            yield from lapi.put(target, nbytes, buf, src,
                                cmpl_cntr=cmpl)
            yield from lapi.waitcntr(cmpl, 1)
        yield from lapi.gfence()
    return main


def _putv_job(nbytes, target, stride=4096, run_len=1024):
    def main(task):
        lapi = task.lapi
        mem = task.memory
        buf = mem.malloc(nbytes)
        yield from lapi.gfence()
        if task.rank == 0:
            src = mem.malloc(nbytes)
            cmpl = lapi.counter()
            runs = [(buf + off, src + off, run_len)
                    for off in range(0, nbytes - run_len, stride)]
            yield from lapi.putv(target, runs, cmpl_cntr=cmpl)
            yield from lapi.waitcntr(cmpl, 1)
        yield from lapi.gfence()
    return main


def _run(config, job, nnodes=2, seed=0xFA57):
    cluster = Cluster(nnodes=nnodes, config=config, seed=seed)
    cluster.run_job(job, stacks=("lapi",), interrupt_mode=False)
    return cluster


def _train_packets(cluster):
    return sum(n.adapter.train_packets for n in cluster.nodes)


def _assert_equivalent(config, job, nnodes=2):
    """Same job under fast_trains on/off: identical physics."""
    fast = _run(config.replace(fast_trains=True), job, nnodes)
    slow = _run(config.replace(fast_trains=False), job, nnodes)
    assert fast.sim.now == slow.sim.now
    assert fast.metrics.render() == slow.metrics.render()
    assert _train_packets(slow) == 0
    return fast


class TestTrainEquivalence:
    def test_same_group_put_identical_and_engaged(self):
        fast = _assert_equivalent(SP_1998, _put_job(NBYTES, 1))
        # The clean 2-node put is the canonical train workload; if it
        # does not engage, the fast path is dead code.
        assert _train_packets(fast) > 0

    def test_lossy_config_falls_back(self):
        cfg = SP_1998.replace(loss_rate=0.02)
        fast = _assert_equivalent(cfg, _put_job(NBYTES, 1))
        assert _train_packets(fast) == 0

    def test_core_jitter_falls_back(self):
        # group_size=1 puts the two nodes in different groups;
        # mid_count=1 keeps a single route, so only the jitter gate can
        # (and must) disengage the train.
        cfg = SP_1998.replace(switch_group_size=1, switch_mid_count=1)
        assert cfg.route_jitter > 0.0
        fast = _assert_equivalent(cfg, _put_job(NBYTES, 1))
        assert _train_packets(fast) == 0

    def test_multi_route_falls_back(self):
        cfg = SP_1998.replace(switch_group_size=1, route_jitter=0.0)
        assert cfg.switch_mid_count > 1
        fast = _assert_equivalent(cfg, _put_job(NBYTES, 1))
        assert _train_packets(fast) == 0

    def test_jitter_free_single_route_core_engages(self):
        # Complement of the two fallbacks above: one core route and no
        # jitter is train-eligible even across groups.
        cfg = SP_1998.replace(switch_group_size=1, switch_mid_count=1,
                              route_jitter=0.0)
        fast = _assert_equivalent(cfg, _put_job(NBYTES, 1))
        assert _train_packets(fast) > 0

    def test_noncontiguous_putv_falls_back(self):
        fast = _assert_equivalent(SP_1998, _putv_job(NBYTES, 1))
        assert _train_packets(fast) == 0


class TestRouteCache:
    """The switch routes from its topology's rule, with no per-pair
    cache; what stays pinned is the candidate count per pair shape."""

    def test_route_counts(self):
        sw = Switch(Simulator(), 8, SP_1998, RngRegistry(seed=7))
        assert len(sw.topology.routes(0, 1, SP_1998)) == 1  # same group
        assert len(sw.topology.routes(0, 5, SP_1998)) == \
            SP_1998.switch_mid_count  # cross-group


class TestPerfHarnessPlumbing:
    def test_capture_retains_clusters_without_metrics(self):
        from repro.bench import runner
        runner.configure_observability(capture=True)
        try:
            c = runner.fresh_cluster(2)
            assert runner.captured_clusters() == [c]
            assert c.trace is None
        finally:
            runner.configure_observability()

    def test_timeout_at_wakes_at_exact_float(self):
        sim = Simulator()
        woke = []

        def proc():
            yield sim.timeout(1.1)
            # A target where now + (target - now) != target, the ulp
            # drift timeout_at() exists to avoid.
            target = 5.55
            assert sim.now + (target - sim.now) != target
            yield sim.timeout_at(target)
            woke.append(sim.now)
            assert sim.now == target

        sim.process(proc())
        sim.run()
        assert woke
