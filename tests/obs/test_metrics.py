"""Metrics registry: instrument semantics and deterministic snapshots."""

import pytest

from repro.errors import SimulationError
from repro.obs import (Histogram, MetricsRegistry, DEPTH_BUCKETS,
                       LATENCY_BUCKETS_US)


class TestHistogram:
    def test_bucket_edges_are_inclusive_upper_bounds(self):
        h = Histogram("lat", buckets=[1.0, 2.0, 4.0])
        for v in [0.5, 1.0, 1.5, 4.0, 100.0]:
            h.observe(v)
        snap = h.snapshot_value()
        assert snap["count"] == 5
        assert snap["min"] == 0.5
        assert snap["max"] == 100.0
        assert snap["buckets"] == {"1": 2, "2": 1, "4": 1, "inf": 1}

    def test_min_max_seed_from_first_sample(self):
        # Regression: max used to start at 0.0, so an all-negative (or
        # all-sub-zero) stream reported a max no sample ever reached.
        h = Histogram("lat", buckets=[10.0])
        h.observe(-5.0)
        snap = h.snapshot_value()
        assert snap["min"] == -5.0
        assert snap["max"] == -5.0
        h.observe(-2.0)
        snap = h.snapshot_value()
        assert snap["min"] == -5.0
        assert snap["max"] == -2.0

    def test_empty_histogram_reports_zero_extremes(self):
        snap = Histogram("lat", buckets=[1.0]).snapshot_value()
        assert snap["count"] == 0
        assert snap["min"] == 0.0 and snap["max"] == 0.0

    def test_sum_rounds_stably(self):
        h = Histogram("lat", buckets=[10.0])
        h.observe(0.1)
        h.observe(0.2)
        assert h.snapshot_value()["sum"] == 0.3

    def test_unordered_buckets_rejected(self):
        with pytest.raises(SimulationError):
            Histogram("bad", buckets=[1.0, 1.0, 2.0])
        with pytest.raises(SimulationError):
            Histogram("bad", buckets=[])

    def test_default_buckets_strictly_increase(self):
        assert list(LATENCY_BUCKETS_US) == sorted(set(LATENCY_BUCKETS_US))
        assert list(DEPTH_BUCKETS) == sorted(set(DEPTH_BUCKETS))


class TestRegistry:
    def test_get_or_create_returns_same_instrument(self):
        reg = MetricsRegistry()
        a = reg.histogram("core.reliability", "rtt", node=0)
        b = reg.histogram("core.reliability", "rtt", node=0)
        assert a is b
        # Different node or subsystem means a different instrument.
        assert reg.histogram("core.reliability", "rtt", node=1) is not a
        assert reg.histogram("mpl.reliability", "rtt", node=0) is not a

    def test_snapshot_shape_and_sorting(self):
        reg = MetricsRegistry()
        reg.register_collector("b.sub", lambda: {"z": 1}, node=10)
        reg.register_collector("b.sub", lambda: {"a": 2}, node=2)
        reg.histogram("a.sub", "util").observe(0.5)
        snap = reg.snapshot()
        assert list(snap) == ["a.sub", "b.sub"]
        # Numeric node keys sort numerically; cluster-wide is "-".
        assert list(snap["b.sub"]) == ["2", "10"]
        assert snap["a.sub"]["-"]["util"]["sum"] == 0.5
        assert snap["b.sub"]["10"]["z"] == 1

    def test_collectors_merge_at_snapshot_time(self):
        reg = MetricsRegistry()
        state = {"sent": 0}
        reg.register_collector("machine.adapter",
                               lambda: {"sent": state["sent"]}, node=0)
        state["sent"] = 7  # mutated after registration
        snap = reg.snapshot()
        assert snap["machine.adapter"]["0"]["sent"] == 7

    def test_render_lists_every_subsystem_block(self):
        reg = MetricsRegistry()
        reg.register_collector("core.dispatcher", lambda: {"pkts": 3},
                               node=0)
        h = reg.histogram("core.reliability", "ack_rtt_us", node=0)
        h.observe(12.0)
        text = reg.render()
        assert "core.dispatcher:" in text
        assert "node 0: pkts=3" in text
        assert "ack_rtt_us={count=1" in text

    def test_empty_registry_renders_placeholder(self):
        assert MetricsRegistry().render() == "(no metrics registered)"


class TestDeterminism:
    """Identical seeds must produce byte-identical metric snapshots."""

    def _run(self, seed):
        from repro.faults import FaultSchedule, GilbertElliott
        from repro.machine import Cluster
        from repro.machine.config import SP_1998

        def main(task):
            lapi = task.lapi
            n = SP_1998.lapi_payload * 4
            buf = task.memory.malloc(n)
            yield from lapi.gfence()
            if task.rank == 0:
                src = task.memory.malloc(n)
                yield from lapi.put(1, n, buf, src)
                yield from lapi.fence()
            yield from lapi.gfence()

        faults = FaultSchedule([GilbertElliott(loss_good=0.1)])
        cluster = Cluster(nnodes=2, seed=seed, faults=faults)
        cluster.run_job(main, stacks=("lapi",))
        return cluster

    def test_same_seed_same_snapshot_and_render(self):
        a, b = self._run(21), self._run(21)
        assert a.metrics.snapshot() == b.metrics.snapshot()
        assert a.metrics.render() == b.metrics.render()

    def test_different_seed_changes_loss_metrics(self):
        a, b = self._run(21), self._run(22)
        # Lossy runs under different seeds drop different packets.
        assert a.metrics.snapshot() != b.metrics.snapshot()
