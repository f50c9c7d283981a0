"""Golden equivalence: the one-heap kernel vs the retired schedulers.

The kernel used to run on either a calendar queue or a binary heap, and
every virtual-time observable was byte-identical between the two.  It
now keeps one heap of ``(when, seq, fn, arg)``; these tests pin the
ring jobs and the reduced Figure 2 / Table 2 sweeps to the final clocks
and per-rank results both retired schedulers produced and to the
current kernel's event counts (lower than theirs since waits stopped
waking on progress that cannot end them), and check that a second run
in the same process renders the same bytes (no sequence counter or
recycled object carries over between clusters).
"""

import pytest

from repro.bench import runner
from repro.bench.bandwidth import submit_fig2
from repro.bench.latency import submit_table2
from repro.machine import Cluster
from repro.machine.config import SP_1998
from repro.obs import ObsSpec


@pytest.fixture
def obs_off():
    yield
    runner.configure_observability()


def _ring_job(nnodes, topology="sp"):
    """A LAPI ring put + fences; returns every observable surface."""
    cfg = (SP_1998 if topology == "sp"
           else SP_1998.replace(topology=topology))
    cluster = Cluster(nnodes, config=cfg, seed=0xE0)

    def main(task):
        lapi = task.lapi
        mem = task.memory
        window = mem.malloc(8192)
        src = mem.malloc(8192)
        yield from lapi.gfence()
        right = (task.rank + 1) % task.size
        yield from lapi.put(right, 8192, window, src)
        yield from lapi.fence()
        yield from lapi.gfence()
        return task.now()

    results = cluster.run_job(main, stacks=("lapi",))
    return {
        "results": results,
        "now": cluster.sim.now,
        "events": cluster.sim.events_processed,
        "metrics": cluster.metrics.render(),
    }


# (events, final clock, per-rank results); the clocks and results are
# those both retired schedulers gave.
RING_GOLDEN = {
    (2, "sp"): (256, 281.41403508771947,
                [238.18403508771942, 238.18403508771942]),
    (8, "sp"): (1568, 428.03389437405133,
                [326.0455307991457, 322.58734260139624, 333.56638064653356,
                 330.0233281832336, 326.06882469776957, 322.5979731991782,
                 333.4268171634547, 330.09121860428957]),
    (8, "dragonfly"): (1550, 368.4073684210531,
                       [295.61070175438624, 294.9840350877196,
                        296.4640350877196, 296.0373684210529] * 2),
    (8, "fattree"): (1544, 363.7940350877195, [293.10403508771947] * 8),
}


def _assert_ring_matches(nnodes, topology="sp"):
    first = _ring_job(nnodes, topology)
    assert (first["events"], first["now"], first["results"]) \
        == RING_GOLDEN[nnodes, topology]
    assert _ring_job(nnodes, topology) == first


class TestJobEquivalence:
    @pytest.mark.parametrize("nnodes", [2, 8])
    def test_ring_identical_across_schedulers(self, nnodes):
        _assert_ring_matches(nnodes)

    @pytest.mark.parametrize("topology", ["fattree", "dragonfly"])
    def test_ring_identical_on_scale_fabrics(self, topology):
        _assert_ring_matches(8, topology)


def _bench_suite():
    """Reduced fig2 + table2 under full observability."""
    fig2 = submit_fig2(sizes=[1024, 16384]).finish()
    fig2_caps = runner.drain_captures()
    table2 = submit_table2().finish()
    table2_caps = runner.drain_captures()
    caps = fig2_caps + table2_caps
    return {
        "fig2_render": fig2.render(),
        "table2_render": table2.render(),
        "metrics": [c.artifacts["metrics"] for c in caps],
        "virtual_us": [c.now for c in caps],
        "events": [c.events for c in caps],
        "spans": [c.artifacts["spans"] for c in caps],
    }


class TestBenchEquivalence:
    def test_fig2_and_table2_byte_identical(self, obs_off):
        """The acceptance check: real bench experiments give the event
        total and virtual time the retired schedulers gave, and a second
        run renders byte-identical tables, metrics blocks, virtual times
        and span streams."""
        runner.configure_observability(ObsSpec({"metrics", "spans"}),
                                       capture=True)
        first = _bench_suite()
        assert first["spans"][0], "expected span records"
        # Nine clusters: at 1 KiB the 64K-eager MPI cell is the default
        # cell's job, simulated once.
        assert len(first["events"]) == 9
        assert sum(first["events"]) == 18927
        assert sum(first["virtual_us"]) == 32009.586140350824
        assert _bench_suite() == first
