"""GA operation spans come from the GA layer, on both backends."""

import pytest

from repro.machine import Cluster
from repro.obs import ObsSpec

# Rank 0's block plus part of rank 1's: every call has a local piece
# and a remote one.
SECTION = (0, 11, 2, 9)
POINTS = [(0, 0), (3, 12), (5, 5), (15, 8)]


def program(task):
    ga = task.ga
    h = yield from ga.create((16, 16))
    if task.rank == 0:
        buf = ga.alloc_local(SECTION)
        yield from ga.put(h, SECTION, buf)
        yield from ga.acc(h, SECTION, buf, alpha=0.5)
        yield from ga.get(h, SECTION, buf)
        ga.free_local(buf)
        yield from ga.scatter(h, POINTS, [1.0, 2.0, 3.0, 4.0])
        yield from ga.gather(h, POINTS)
    yield from ga.sync()


def spans_of(backend):
    cluster = Cluster(nnodes=2, obs=ObsSpec({"spans"}))
    cluster.run_job(program, ga_backend=backend)
    return cluster.spans.drain()


def ga_ops(spans):
    return [(s.node, s.op, s.fields["bytes"]) for s in spans
            if s.subsystem == "ga" and s.phase == "op"]


def test_mpl_emits_the_lapi_ga_spans():
    lapi, mpl = ga_ops(spans_of("lapi")), ga_ops(spans_of("mpl"))
    assert lapi == [(0, "ga.put", 768), (0, "ga.acc", 768),
                    (0, "ga.get", 768), (0, "ga.scatter", 32),
                    (0, "ga.gather", 32)]
    assert mpl == lapi


@pytest.mark.parametrize("backend", ["lapi", "mpl"])
def test_transport_spans_parent_under_the_ga_call(backend):
    spans = spans_of(backend)
    calls = {s.sid: s for s in spans
             if s.subsystem == "ga" and s.phase == "op"}
    inner = [s for s in spans if s.node == 0 and s.phase == "op"
             and s.subsystem == backend
             and any(c.t0 <= s.t0 < c.t1 for c in calls.values())]
    assert inner
    assert all(s.parent in calls for s in inner)
    # Each GA call issued transport operations for its remote piece.
    assert {s.parent for s in inner} == set(calls)
