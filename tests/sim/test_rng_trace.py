"""Unit tests for repro.sim.rng and repro.sim.trace."""

from repro.sim import RngRegistry, Simulator, TraceRecord, Tracer
from repro.sim import trace as sim_trace


def _draw(stream, n):
    return [stream.integers(0, 1 << 30) for _ in range(n)]


class TestRngRegistry:
    def test_same_key_same_stream_object(self):
        reg = RngRegistry(seed=1)
        assert reg.stream("net") is reg.stream("net")

    def test_streams_reproducible_across_registries(self):
        a = _draw(RngRegistry(seed=7).stream("x"), 8)
        b = _draw(RngRegistry(seed=7).stream("x"), 8)
        assert a == b

    def test_streams_independent_of_creation_order(self):
        r1 = RngRegistry(seed=3)
        r1.stream("a")
        x1 = _draw(r1.stream("b"), 4)
        r2 = RngRegistry(seed=3)
        x2 = _draw(r2.stream("b"), 4)  # no "a" first
        assert x1 == x2

    def test_different_keys_differ(self):
        reg = RngRegistry(seed=5)
        a = _draw(reg.stream("a"), 16)
        b = _draw(reg.stream("b"), 16)
        assert a != b

    def test_different_seeds_differ(self):
        a = _draw(RngRegistry(seed=1).stream("k"), 16)
        b = _draw(RngRegistry(seed=2).stream("k"), 16)
        assert a != b

    def test_reset_restarts_streams(self):
        reg = RngRegistry(seed=9)
        first = _draw(reg.stream("s"), 4)
        reg.reset()
        again = _draw(reg.stream("s"), 4)
        assert first == again


class TestTracer:
    def test_records_accumulate(self):
        tr = Tracer()
        tr.log(1.0, "node0", "lapi", "put issued")
        tr.log(2.0, "node1", "lapi", "put delivered")
        assert len(tr) == 2
        assert tr.records[0] == TraceRecord(1.0, "node0", "lapi",
                                            "put issued")

    def test_limit_suppresses(self, monkeypatch):
        monkeypatch.setattr(sim_trace, "TRACE_LIMIT", 2)
        tr = Tracer()
        for i in range(5):
            tr.log(float(i), "s", "c", str(i))
        assert len(tr) == 2
        assert tr.suppressed == 3

    def test_clear(self):
        tr = Tracer()
        tr.log(0.0, "s", "c", "m")
        tr.clear()
        assert len(tr) == 0
        assert tr.suppressed == 0

    def test_str_rendering(self):
        rec = TraceRecord(12.5, "node3", "ga", "accumulate")
        text = str(rec)
        assert "12.500" in text and "node3" in text and "accumulate" in text

    def test_kernel_hookup(self):
        tr = Tracer()
        sim = Simulator(trace=tr)
        sim.timeout(1.0)
        sim.run()
        assert len(tr) == 1
