"""Tests for cluster assembly and SPMD job execution."""

import pytest

from repro.errors import MachineError
from repro.machine import Cluster
from repro.machine.config import SP_1998


class TestConstruction:
    def test_minimum_size(self):
        with pytest.raises(MachineError):
            Cluster(nnodes=0)

    def test_nodes_and_switch_wired(self):
        c = Cluster(nnodes=3)
        assert c.nnodes == 3
        assert all(n.adapter.switch is c.switch for n in c.nodes)

    def test_invalid_config_rejected(self):
        bad = SP_1998.replace(loss_rate=2.0)
        with pytest.raises(ValueError):
            Cluster(nnodes=2, config=bad)


    def test_building_the_next_cluster_reclaims_an_aged_dead_one(self):
        """A dropped cluster is cyclic garbage; once older-generation
        collector passes have moved it to the oldest generation only a
        full collection returns the memory its job left allocated.
        ``Cluster()`` runs one when two such passes have happened since
        its last."""
        import gc
        import weakref

        def main(task):
            task.memory.malloc(1 << 20)
            yield from task.lapi.gfence()

        was_enabled = gc.isenabled()
        gc.disable()  # only the collection under test may run
        try:
            cluster = Cluster(nnodes=2)
            cluster.run_job(main, stacks=("lapi",))
            dead = weakref.ref(cluster)
            gc.collect(1)  # it survives two older-generation passes
            gc.collect(1)
            del cluster
            assert dead() is not None  # refcounting cannot free a cycle
            Cluster(nnodes=1)
            assert dead() is None
        finally:
            if was_enabled:
                gc.enable()


class TestRunJob:
    def test_returns_per_rank_values(self):
        def main(task):
            yield task.cluster.sim.timeout(1.0)
            return task.rank * 10

        assert Cluster(nnodes=3).run_job(main, stacks=()) == [0, 10, 20]

    def test_ntasks_subset(self):
        def main(task):
            yield task.cluster.sim.timeout(0.0)
            return task.size

        results = Cluster(nnodes=4).run_job(main, ntasks=2, stacks=())
        assert results == [2, 2]

    def test_ntasks_over_cluster_rejected(self):
        with pytest.raises(MachineError):
            Cluster(nnodes=2).run_job(lambda t: iter(()), ntasks=3)

    def test_unknown_stack_rejected(self):
        with pytest.raises(MachineError, match="unknown stacks"):
            Cluster(nnodes=1).run_job(lambda t: iter(()),
                                      stacks=("pvm",))

    def test_unknown_ga_backend_rejected(self):
        with pytest.raises(MachineError, match="backend"):
            Cluster(nnodes=1).run_job(lambda t: iter(()),
                                      ga_backend="tcp")

    def test_deadlock_detected(self):
        def main(task):
            # Wait on an event that never fires.
            yield task.cluster.sim.event()

        with pytest.raises(MachineError, match="deadlock"):
            Cluster(nnodes=1).run_job(main, stacks=())

    def test_virtual_time_budget(self):
        def main(task):
            yield task.cluster.sim.timeout(10_000.0)

        cluster = Cluster(nnodes=1)
        with pytest.raises(MachineError, match="budget"):
            cluster.run_job(main, stacks=(), until=100.0)
        # Raised before the event past the budget was popped.
        assert cluster.sim.now <= 100.0 and cluster.sim.peek() == 10_000.0

    def test_virtual_time_budget_on_an_empty_queue(self):
        def main(task):
            yield task.cluster.sim.event()  # never fires

        with pytest.raises(MachineError, match="budget"):
            Cluster(nnodes=1).run_job(main, stacks=(), until=100.0)

    def test_max_events_budget(self):
        def main(task):
            while True:
                yield task.cluster.sim.timeout(1.0)

        with pytest.raises(MachineError, match="max_events"):
            Cluster(nnodes=1).run_job(main, stacks=(), max_events=100)

    def test_task_error_propagates(self):
        def main(task):
            yield task.cluster.sim.timeout(1.0)
            raise RuntimeError("task exploded")

        with pytest.raises(RuntimeError, match="exploded"):
            Cluster(nnodes=2).run_job(main, stacks=())

    def test_two_jobs_same_cluster(self):
        c = Cluster(nnodes=2)

        def main(task):
            yield c.sim.timeout(5.0)
            return task.now()

        first = c.run_job(main, stacks=())
        second = c.run_job(main, stacks=())
        assert second[0] > first[0]  # virtual clock persists

    def test_max_events_is_per_call(self):
        # Regression: the budget is relative to the event counter at
        # entry.  Historically the ceiling was absolute, so a second
        # job inherited the first's event count and a back-to-back run
        # with the same max_events died spuriously.
        c = Cluster(nnodes=2)

        def main(task):
            for _ in range(20):
                yield c.sim.timeout(1.0)
            return task.rank

        budget = 400
        assert c.run_job(main, stacks=(), max_events=budget) == [0, 1]
        assert c.sim.events_processed > 40  # first job consumed events
        assert c.run_job(main, stacks=(), max_events=budget) == [0, 1]

    def test_max_events_budget_still_enforced_on_second_job(self):
        c = Cluster(nnodes=1)

        def short(task):
            yield c.sim.timeout(1.0)

        def endless(task):
            while True:
                yield c.sim.timeout(1.0)

        c.run_job(short, stacks=())
        with pytest.raises(MachineError, match="max_events"):
            c.run_job(endless, stacks=(), max_events=50)


class TestOob:
    def test_allgather_accumulates(self):
        c = Cluster(nnodes=2)
        t1 = c.oob_allgather("k", 0, "a", 2)
        assert t1 == {0: "a"}
        t2 = c.oob_allgather("k", 1, "b", 2)
        assert t2 == {0: "a", 1: "b"}
        assert t1 is t2  # shared map

    def test_oversubscription_rejected(self):
        c = Cluster(nnodes=2)
        c.oob_allgather("k", 0, 1, 1)
        with pytest.raises(MachineError):
            c.oob_allgather("k", 1, 2, 1)


class TestTask:
    def test_now_and_memory(self):
        c = Cluster(nnodes=1)

        def main(task):
            addr = task.memory.malloc(8)
            task.memory.write_i64(addr, 7)
            yield c.sim.timeout(3.0)
            return task.now(), task.memory.read_i64(addr)

        now, val = c.run_job(main, stacks=())[0]
        assert now == 3.0
        assert val == 7
