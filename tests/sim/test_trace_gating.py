"""Hot-path trace gating: suppressed records must cost nothing."""

import pytest

from repro.machine import Cluster
from repro.obs import ObsSpec
from repro.sim import Simulator, Tracer
from repro.sim import trace as sim_trace


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
    def test_cap_reached_skips_repr_and_counts_suppressed(self,
                                                          monkeypatch):
        monkeypatch.setattr(sim_trace, "TRACE_LIMIT", 0)
        tracer = Tracer()
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
    def test_log_fields_carried_on_record(self):
        tracer = Tracer()
        tracer.log(0.5, "node0", "tx", "inject", uid=7, bytes=1024)
        rec = tracer.records[0]
        assert rec.fields == {"uid": 7, "bytes": 1024}
        assert "uid=7" in str(rec)


def _put_trace(limit=None):
    """A 2-node LAPI put with every record category traced."""

    def main(task):
        lapi = task.lapi
        buf = task.memory.malloc(64)
        yield from lapi.gfence()
        if task.rank == 0:
            src = task.memory.malloc(64)
            yield from lapi.put(1, 64, buf, src)
            yield from lapi.fence()
        yield from lapi.gfence()

    with pytest.MonkeyPatch.context() as mp:
        if limit is not None:
            mp.setattr(sim_trace, "TRACE_LIMIT", limit)
        cluster = Cluster(nnodes=2, obs=ObsSpec({"trace"}))
        cluster.run_job(main, stacks=("lapi",))
    return cluster.trace


class TestCapCountsDrops:
    def test_wants_counts_a_record_refused_at_the_cap(self, monkeypatch):
        monkeypatch.setattr(sim_trace, "TRACE_LIMIT", 1)
        tracer = Tracer()
        assert tracer.wants()
        tracer.log(0.0, "adapter0", "tx", "first")
        assert not tracer.wants()
        assert tracer.suppressed == 1

    def test_gated_sites_report_every_dropped_record(self):
        # Adapter, switch and dispatcher sites call log() only after
        # wants(): the cap's drops must still add up.
        full = _put_trace()
        capped = _put_trace(limit=1)
        assert len(full.records) > 1
        assert full.suppressed == 0
        assert len(capped.records) == 1
        assert capped.suppressed == len(full.records) - 1
