"""Golden equivalence: the TX-engine packet-train peel must not change
physics.

The adapter collapses the interior of a contiguous, deterministic
packet train into one precomputed schedule.  It is a pure simulator
optimization: every virtual-time observable -- final clock, rendered
metrics, span stream, trace records -- must be identical to the
per-packet engine.  The reference run here is that engine, reached by
making ``Adapter._peel_train`` refuse every train (a test-only oracle,
not a knob).  A collapsed train costs its per-packet TX completions
plus one extra event (the engine picking up after the interior), so
each case also pins ``events == reference events + trains_collapsed``.
Each condition that must disengage the peel is pinned down too: loss,
fault schedules, core jitter, multiple routes, non-contiguous vectors.
"""

import contextlib

import pytest

from repro.bench import runner
from repro.bench.bandwidth import submit_fig2
from repro.bench.latency import submit_table2
from repro.faults import FaultSchedule, GilbertElliott, LinkOutage
from repro.machine import Adapter, Cluster
from repro.machine.config import SP_1998
from repro.machine.switch import Switch
from repro.obs import ObsSpec, pool_stats, record_to_dict
from repro.sim import RngRegistry, Simulator
from repro.sim.events import WakeAt

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


@contextlib.contextmanager
def _no_peel():
    """The per-packet reference engine: every train is refused."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(Adapter, "_peel_train", lambda self, head: None)
        yield


def _run(config, job, nnodes=2, *, spans=False, trace=False,
         faults=None, seed=0xFA57):
    names = {"spans"} if spans else set()
    names |= {"trace"} if trace else set()
    cluster = Cluster(nnodes=nnodes, config=config, seed=seed,
                      faults=faults, obs=ObsSpec(names))
    cluster.run_job(job, stacks=("lapi",), interrupt_mode=False)
    return cluster


def _train_packets(cluster):
    return sum(n.adapter.train_packets for n in cluster.nodes)


def _trains_collapsed(cluster):
    return sum(n.adapter.trains_collapsed for n in cluster.nodes)


def _observables(cluster):
    """Every surface the equivalence contract covers."""
    return {
        "now": cluster.sim.now,
        "metrics": cluster.metrics.render(),
        "spans": (cluster.spans.span_dicts()
                  if cluster.spans is not None else None),
        "trace": ([record_to_dict(r) for r in cluster.trace.records]
                  if cluster.trace is not None else None),
    }


def _assert_equivalent(config, job, nnodes=2, *, spans=False, trace=False,
                       faults_factory=None, seed=0xFA57):
    """Same job with the peel and on the per-packet reference:
    identical physics.  Returns the peeled cluster."""
    def run():
        return _run(config, job, nnodes, spans=spans, trace=trace,
                    faults=faults_factory() if faults_factory else None,
                    seed=seed)

    fast = run()
    with _no_peel():
        ref = run()
    assert _observables(fast) == _observables(ref)
    assert (fast.sim.events_processed
            == ref.sim.events_processed + _trains_collapsed(fast))
    assert _train_packets(ref) == 0
    return fast


class TestTrainEquivalence:
    def test_same_group_put_identical_and_engaged(self):
        fast = _assert_equivalent(SP_1998, _put_job(NBYTES, 1))
        # The clean 2-node put is the canonical train workload; if it
        # does not engage, the fast path is dead code.
        assert _train_packets(fast) > 0
        assert (fast.sim.events_processed, _trains_collapsed(fast)) \
            == (2900, 11)

    def test_lossy_config_falls_back(self):
        def sched():
            return FaultSchedule([GilbertElliott(loss_good=0.02)])
        fast = _assert_equivalent(SP_1998, _put_job(NBYTES, 1),
                                  faults_factory=sched)
        assert _train_packets(fast) == 0

    def test_fault_schedule_falls_back(self):
        # A mid-run outage forces retransmissions; the faults judge
        # needs per-packet draws, so the peel stays off for the run.
        def sched():
            return FaultSchedule([LinkOutage(src=0, dst=1,
                                             start=200.0, end=400.0)])
        fast = _assert_equivalent(SP_1998, _put_job(NBYTES, 1),
                                  faults_factory=sched)
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

    def test_fattree_multipath_falls_back(self):
        # Cross-pod fat-tree pairs have several candidate routes (8 of
        # them at 32 nodes); the per-packet route draw must stay.
        cfg = SP_1998.replace(topology="fattree")
        fast = _assert_equivalent(cfg, _put_job(NBYTES, 16), nnodes=32)
        assert len(fast.switch.topology.routes(0, 16, cfg)) > 1
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

    def test_spans_armed_keep_trains(self):
        # Span tracing observes every interior packet's hops; the peel
        # stays engaged and the span stream is unchanged.
        fast = _assert_equivalent(SP_1998, _put_job(NBYTES, 1),
                                  spans=True)
        assert fast.spans.span_dicts()
        assert (fast.sim.events_processed, _trains_collapsed(fast)) \
            == (2900, 11)

    def test_tracer_armed_keeps_trains(self):
        fast = _assert_equivalent(SP_1998, _put_job(NBYTES, 1),
                                  trace=True)
        assert fast.trace.records
        assert _train_packets(fast) > 0


class TestLedgerCompatibility:
    def test_retired_lane_and_pool_counters_read_zero(self):
        """``ledger/recorder.py`` still reads these names of the retired
        struct-of-arrays lane and object pools; they must exist."""
        cluster = _run(SP_1998, _put_job(NBYTES, 1))
        assert _train_packets(cluster) > 0
        for node in cluster.nodes:
            assert node.adapter.soa_packets == 0
            assert node.adapter.soa_fallbacks == 0
        stats = pool_stats(cluster)
        for pool in ("packets", "trains"):
            assert stats[pool]["acquires"] == 0
            assert stats[pool]["hits"] == 0


def _bench_suite():
    """Reduced fig2 + table2 under full observability."""
    fig2 = submit_fig2(sizes=[1024, 16384]).finish()
    table2 = submit_table2().finish()
    clusters = runner.captured_clusters()
    return {
        "fig2_render": fig2.render(),
        "table2_render": table2.render(),
        "clusters": [_observables(c) for c in clusters],
    }, clusters


class TestBenchEquivalence:
    def test_fig2_and_table2_byte_identical(self):
        """Real bench experiments produce byte-identical tables, metrics
        blocks, virtual times and span streams with the peel or on the
        per-packet reference."""
        runner.configure_observability(ObsSpec({"metrics", "spans"}),
                                       capture=True)
        try:
            fast, fast_clusters = _bench_suite()
            with _no_peel():
                ref, ref_clusters = _bench_suite()
        finally:
            runner.configure_observability()
        assert fast["clusters"][0]["spans"], "expected span records"
        assert fast == ref
        assert sum(map(_trains_collapsed, fast_clusters)) > 0
        assert [c.sim.events_processed for c in fast_clusters] == [
            r.sim.events_processed + _trains_collapsed(c)
            for c, r in zip(fast_clusters, ref_clusters)]


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
            # drift an absolute wake-up avoids.
            target = 5.55
            assert sim.now + (target - sim.now) != target
            yield WakeAt(target)
            woke.append(sim.now)
            assert sim.now == target

        sim.process(proc())
        sim.run()
        assert woke
