"""Timeline: window boundaries, ring bounds, per-series close."""

import pickle

import pytest

from repro.errors import SimulationError
from repro.obs import ObsSpec, Timeline
from repro.obs.timeline import RING_WINDOWS


class FakeSim:
    """Just enough of the kernel: a settable virtual clock."""

    def __init__(self):
        self.now = 0.0


def make_timeline(**kwargs):
    sim = FakeSim()
    return sim, Timeline(sim, **kwargs)


class TestConfig:
    """The timeline window travels in :class:`ObsSpec`, which checks it
    (and the artifact names) at construction."""

    def test_validate_rejects_bad_values(self):
        with pytest.raises(SimulationError):
            ObsSpec(window_us=0.0)
        with pytest.raises(SimulationError, match="unknown"):
            ObsSpec({"timeline", "tracee"})
        ObsSpec({"timeline"})

    @pytest.mark.parametrize("window_us", [float("nan"), float("inf"),
                                           -float("inf")])
    def test_validate_rejects_non_finite_window(self, window_us):
        # NaN compares False against everything, so a `<= 0` guard
        # let it through to die later in window arithmetic.
        with pytest.raises(SimulationError, match="finite"):
            ObsSpec({"timeline"}, window_us=window_us)

    def test_config_is_hashable_and_frozen(self):
        cfg = ObsSpec({"timeline"})
        hash(cfg)
        assert pickle.loads(pickle.dumps(cfg)) == cfg
        with pytest.raises(Exception):
            cfg.window_us = 5.0


class TestWindowing:
    def test_edge_observation_lands_in_later_window(self):
        sim, tl = make_timeline(window_us=100.0)
        c = tl.stream_counter("sub", "x")
        sim.now = 99.999
        c.add(1)
        sim.now = 100.0  # exactly on the edge: window 1, not 0
        c.add(10)
        tl.finalize()
        assert tl.counter_windows("sub", "x") == [[0, 1], [1, 10]]

    def test_empty_windows_are_absent_not_zero(self):
        sim, tl = make_timeline(window_us=10.0)
        c = tl.stream_counter("sub", "x")
        c.add(1)
        sim.now = 55.0  # windows 1..4 never see data
        c.add(2)
        tl.finalize()
        assert tl.counter_windows("sub", "x") == [[0, 1], [5, 2]]

    def test_counter_windows_record_deltas(self):
        sim, tl = make_timeline(window_us=10.0)
        c = tl.stream_counter("sub", "x")
        c.add(3)
        c.add(4)
        sim.now = 10.0
        c.add(5)
        tl.finalize()
        assert tl.counter_windows("sub", "x") == [[0, 7], [1, 5]]

    def test_hist_series_tracks_per_window_and_cumulative(self):
        sim, tl = make_timeline(window_us=10.0)
        h = tl.series("hist", "sub", "lat", node=0)
        h.observe(100.0)
        sim.now = 10.0
        h.observe(200.0)
        tl.finalize()
        (series,) = tl.snapshot()["series"]
        assert [w for w, _ in series["windows"]] == [0, 1]
        assert series["cumulative"]["count"] == 2
        assert series["quantiles"]["p50"] == pytest.approx(100.0,
                                                           rel=0.02)

    def test_ring_is_bounded(self):
        sim, tl = make_timeline(window_us=1.0)
        c = tl.stream_counter("sub", "x")
        nwindows = RING_WINDOWS + 6
        for w in range(nwindows):
            sim.now = float(w)
            c.add(w + 1)
        tl.finalize()
        windows = tl.counter_windows("sub", "x")
        assert len(windows) == RING_WINDOWS
        assert windows == [[w, w + 1]
                           for w in range(6, nwindows)]

    def test_idle_series_keeps_its_window_while_another_wraps(self):
        # Series close independently: one that never moves past
        # window 0 keeps its cell until finalize(), however far other
        # series advance (and wrap their own rings) meanwhile.
        sim, tl = make_timeline(window_us=1.0)
        idle = tl.stream_counter("sub", "idle")
        busy = tl.stream_counter("sub", "busy")
        idle.add(3)
        nwindows = RING_WINDOWS + 10
        for w in range(nwindows):
            sim.now = float(w)
            busy.add(1)
        tl.finalize()
        assert tl.counter_windows("sub", "idle") == [[0, 3]]
        assert tl.counter_windows("sub", "busy") == [
            [w, 1] for w in range(nwindows - RING_WINDOWS, nwindows)]

    def test_finalize_is_idempotent(self):
        sim, tl = make_timeline(window_us=10.0)
        tl.stream_counter("sub", "x").add(1)
        tl.finalize()
        first = tl.snapshot()
        tl.finalize()
        assert tl.snapshot() == first

    def test_empty_timeline_snapshot(self):
        _, tl = make_timeline()
        assert tl.snapshot() == {"window_us": 100.0, "series": []}


class TestListeners:
    def test_series_registry_is_get_or_create(self):
        _, tl = make_timeline()
        a = tl.stream_counter("sub", "x", node=3)
        b = tl.series("counter", "sub", "x", node=3)
        assert a is b
        with pytest.raises(SimulationError):
            tl.series("bogus", "sub", "x")

    def test_snapshot_orders_series_deterministically(self):
        sim, tl = make_timeline()
        tl.stream_counter("b.sub", "z", node=10).add(1)
        tl.stream_counter("b.sub", "z", node=2).add(1)
        tl.stream_counter("a.sub", "a").add(1)
        keys = [(s["subsystem"], s["node"])
                for s in tl.snapshot()["series"]]
        assert keys == [("a.sub", "-"), ("b.sub", "2"), ("b.sub", "10")]
