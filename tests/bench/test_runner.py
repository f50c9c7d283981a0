"""Bench harness plumbing: mean() warm-up handling and observability."""

import pickle

import pytest

from repro.bench import runner
from repro.obs import ObsSpec


class TestMean:
    def test_empty_sequence_raises_value_error(self):
        with pytest.raises(ValueError):
            runner.mean([])

    def test_warmup_sample_is_discarded(self):
        # With exactly one measurement beyond the warm-up, the warm-up
        # must not leak into the average (the old off-by-one kept it).
        assert runner.mean([10.0, 2.0]) == 2.0
        assert runner.mean([10.0, 2.0, 4.0]) == 3.0

    def test_single_sample_survives(self):
        # Fewer samples than warm-ups: keep what we have.
        assert runner.mean([7.0]) == 7.0

    def test_skip_warmup_zero_uses_everything(self):
        assert runner.mean([1.0, 3.0], skip_warmup=0) == 2.0


class TestBandwidthMbs:
    def test_bytes_over_microseconds(self):
        assert runner.bandwidth_mbs(1000, 10.0) == 100.0

    def test_zero_elapsed_raises(self):
        # A zero-duration measurement is a bug; an inf return would
        # silently contaminate any mean() over a sweep.
        with pytest.raises(ValueError, match="non-positive elapsed"):
            runner.bandwidth_mbs(1024, 0.0)

    def test_negative_elapsed_raises(self):
        with pytest.raises(ValueError, match="non-positive elapsed"):
            runner.bandwidth_mbs(1024, -1.0)


class TestClusterCapture:
    def teardown_method(self):
        runner.configure_observability()

    def test_capture_condenses_live_cluster(self):
        runner.configure_observability(ObsSpec({"metrics"}))
        cluster = runner.fresh_cluster(nnodes=2)
        cap = runner.capture_cluster(cluster)
        assert cap.nnodes == 2
        assert cap.now == cluster.sim.now
        assert cap.events == cluster.sim.events_processed
        assert cap.artifacts == {"metrics": cluster.metrics.render()}

    def test_metrics_block_omitted_when_disarmed(self):
        runner.configure_observability(capture=True)
        cap = runner.capture_cluster(runner.fresh_cluster(nnodes=2))
        assert cap.artifacts == {}

    def test_drain_orders_shipped_before_live(self):
        runner.configure_observability(ObsSpec({"metrics"}))
        shipped = runner.capture_cluster(runner.fresh_cluster(nnodes=2))
        runner.captured_clusters()  # reset the live list
        runner.record_captures([shipped])
        live = runner.fresh_cluster(nnodes=2)
        drained = runner.drain_captures()
        assert drained[0] is shipped
        assert drained[1].now == live.sim.now
        assert runner.drain_captures() == []

    def test_armed_spec_round_trip(self):
        """What a sweep worker receives re-arms the parent's state."""
        spec = ObsSpec({"metrics", "trace"}, window_us=50.0)
        runner.configure_observability(spec, capture=True)
        obs, capture = pickle.loads(pickle.dumps(runner.armed()))
        runner.configure_observability()
        runner.configure_observability(obs, capture=capture)
        assert runner.armed() == (spec, True)


class TestObservabilitySwitchboard:
    def teardown_method(self):
        runner.configure_observability()  # disarm for other tests

    def test_disarmed_by_default(self):
        cluster = runner.fresh_cluster(nnodes=2)
        assert cluster.trace is None
        assert runner.captured_clusters() == []

    def test_armed_capture_retains_clusters_with_tracers(self):
        runner.configure_observability(ObsSpec({"metrics", "trace"}))
        a = runner.fresh_cluster(nnodes=2)
        b = runner.fresh_cluster(nnodes=2)
        assert a.trace is not None
        captured = runner.captured_clusters()
        assert captured == [a, b]
        # Draining resets the capture list.
        assert runner.captured_clusters() == []

    def test_metrics_only_capture_skips_tracer(self):
        runner.configure_observability(ObsSpec({"metrics"}))
        cluster = runner.fresh_cluster(nnodes=2)
        assert cluster.trace is None
        assert runner.captured_clusters() == [cluster]
