"""Hot-path trace gating: suppressed records must cost nothing."""

from repro.sim import Simulator, Tracer


class _CountingRepr:
    """Object whose ``repr`` counts (and can flag) each invocation."""

    def __init__(self):
        self.reprs = 0

    def __repr__(self):
        self.reprs += 1
        return "<counted>"


def _tick(arg):
    pass


def _fire_one(tracer, arg):
    """Run one ``call_at(1.0, _tick, arg)`` entry under ``tracer``."""
    sim = Simulator(trace=tracer)
    sim.call_at(1.0, _tick, arg)
    sim.run()


class TestKernelEventGating:
    def test_filtered_category_skips_repr(self):
        tracer = Tracer(categories=["tx"])  # "event" filtered out
        arg = _CountingRepr()
        _fire_one(tracer, arg)
        assert arg.reprs == 0
        assert len(tracer) == 0

    def test_cap_reached_skips_repr_and_counts_suppressed(self):
        tracer = Tracer(limit=0)
        arg = _CountingRepr()
        _fire_one(tracer, arg)
        assert arg.reprs == 0
        assert tracer.suppressed == 1

    def test_wanted_event_still_formats(self):
        tracer = Tracer()
        arg = _CountingRepr()
        _fire_one(tracer, arg)
        assert arg.reprs == 1
        assert len(tracer) == 1
        assert tracer.records[0].message == "<call_at _tick(<counted>)>"
        assert tracer.records[0].time == 1.0

    def test_events_render_as_their_repr(self):
        tracer = Tracer()
        sim = Simulator(trace=tracer)
        sim.event(name="woken").succeed()
        sim.timeout(2.0, name="slept")
        sim.run()
        assert [(r.time, r.message.split(" at ")[0])
                for r in tracer.records] == [(0.0, "<woken triggered"),
                                             (2.0, "<slept triggered")]


class TestWants:
    def test_wants_respects_filter_and_cap(self):
        tracer = Tracer(categories=["tx"], limit=1)
        assert tracer.wants("tx")
        assert not tracer.wants("rx")
        tracer.log(0.0, "n", "tx", "one")
        assert not tracer.wants("tx")  # cap reached

    def test_log_fields_carried_on_record(self):
        tracer = Tracer()
        tracer.log(0.5, "node0", "tx", "inject", uid=7, bytes=1024)
        rec = tracer.records[0]
        assert rec.fields == {"uid": 7, "bytes": 1024}
        assert "uid=7" in str(rec)
