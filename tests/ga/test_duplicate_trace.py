"""Tests for GA_Duplicate and protocol-level tracing."""

import numpy as np
import pytest

from repro.machine import Cluster
from repro.obs import ObsSpec

from .conftest import run_ga


class TestDuplicate:
    def test_duplicate_matches_geometry(self, backend):
        def main(task):
            ga = task.ga
            a = yield from ga.create((24, 16), name="orig",
                                     ghost_width=1)
            b = yield from ga.duplicate(a)
            src, dup = ga.array(a), ga.array(b)
            yield from ga.sync()
            return (src.dims == dup.dims,
                    src.dtype == dup.dtype,
                    src.dist == dup.dist,
                    src.ghost_width == dup.ghost_width,
                    a != b)

        for checks in run_ga(main, backend=backend):
            assert all(checks)

    def test_duplicate_then_copy(self, backend):
        def main(task):
            ga = task.ga
            a = yield from ga.create((12, 12))
            yield from ga.fill(a, 7.5)
            b = yield from ga.duplicate(a)
            yield from ga.copy_array(a, b)
            got = yield from ga.get_ndarray(b, (0, 11, 0, 11))
            yield from ga.sync()
            return bool(np.all(got == 7.5))

        assert all(run_ga(main, backend=backend))

    def test_duplicate_contents_independent(self, backend):
        def main(task):
            ga = task.ga
            a = yield from ga.create((8, 8))
            yield from ga.fill(a, 1.0)
            b = yield from ga.duplicate(a)
            yield from ga.fill(b, 2.0)
            ga_a = yield from ga.get_ndarray(a, (0, 7, 0, 7))
            yield from ga.sync()
            return bool(np.all(ga_a == 1.0))

        assert all(run_ga(main, backend=backend))


class TestProtocolTracing:
    def test_dispatcher_events_recorded(self):

        def main(task):
            lapi = task.lapi
            buf = task.memory.malloc(64)
            tgt = lapi.counter()
            yield from lapi.gfence()
            if task.rank == 0:
                src = task.memory.malloc(64)
                yield from lapi.put(1, 64, buf, src, tgt_cntr=tgt.id)
                yield from lapi.fence()
            else:
                yield from lapi.waitcntr(tgt, 1)
            yield from lapi.gfence()

        cluster = Cluster(nnodes=2, obs=ObsSpec({"trace"}))
        cluster.run_job(main, stacks=("lapi",))
        records = cluster.trace.by_category("lapi")
        assert len(records) > 0
        text = " ".join(r.message for r in records)
        assert "lapi.data" in text  # the put's data packet
        assert "lapi.barrier" in text  # gfence tokens
        # Both ends dispatched something.
        sources = {r.source for r in records}
        assert {"lapi0", "lapi1"} <= sources

    def test_tracing_off_by_default_costs_nothing(self):
        def main(task):
            lapi = task.lapi
            yield from lapi.gfence()
            return task.now()

        t_untraced = Cluster(nnodes=2).run_job(main,
                                               stacks=("lapi",))[0]
        t_traced = Cluster(nnodes=2, obs=ObsSpec({"trace"})).run_job(
            main, stacks=("lapi",))[0]
        assert t_traced == t_untraced  # identical virtual timings
