"""Tests for cluster assembly and SPMD job execution."""

import weakref

# GA loads numpy on first use, and importing numpy leaves cyclic
# garbage of its own (the pure-Python datetime classes it replaces),
# which no cluster made.
import numpy  # noqa: F401
import pytest

from repro.bench.scale import scale_point
from repro.errors import MachineError, MemoryFault
from repro.faults import FaultSchedule, NodeCrash, NodeRestart
from repro.machine import Cluster
from repro.machine.config import SP_1998
from repro.obs import ObsSpec

from ..conftest import assert_freed_on_drop


class TestConstruction:
    def test_minimum_size(self):
        with pytest.raises(MachineError):
            Cluster(nnodes=0)

    def test_nodes_and_switch_wired(self):
        c = Cluster(nnodes=3)
        assert c.nnodes == 3
        assert all(n.adapter.switch is c.switch for n in c.nodes)

    def test_invalid_config_rejected(self):
        bad = SP_1998.replace(switch_group_size=0)
        with pytest.raises(ValueError):
            Cluster(nnodes=2, config=bad)


def _lapi_job(task, addr):
    addrs = yield from task.lapi.address_init(addr)
    right = (task.rank + 1) % task.size
    yield from task.lapi.put_sync(right, 64, addrs[right], addr)
    yield from task.lapi.gfence()


def _mpl_job(task, addr):
    if task.rank == 0:
        yield from task.mpl.send(1, addr, 64, tag=1)
    else:
        yield from task.mpl.recv_bytes(0, tag=1)
    yield from task.mpl.barrier()


def _ga_job(task, addr):
    handle = yield from task.ga.create((16, 16))
    yield from task.ga.zero(handle)
    yield from task.ga.sync()


def _crash_job(task, addr):
    yield from task.lapi.gfence()
    yield from task.thread.sleep(4000.0)  # past crash and conviction
    yield from task.lapi.gfence()


def _restart_job(task, addr):
    yield from _crash_job(task, addr)
    # Past the restart and two heartbeat rounds: the detector absolves
    # the node and re-installs its responder.
    yield from task.thread.sleep(4000.0)


_CRASH = dict(stacks=("lapi",), on_peer_failure="continue",
              until=500_000.0)

_DROP_CASES = {
    "lapi": ({}, dict(stacks=("lapi",)), _lapi_job),
    "mpl": ({}, dict(stacks=("mpl",)), _mpl_job),
    "ga_on_lapi": ({}, dict(ga_backend="lapi"), _ga_job),
    "ga_on_mpl": ({}, dict(ga_backend="mpl"), _ga_job),
    "node_crash": (
        dict(nnodes=3,
             faults=FaultSchedule([NodeCrash(node=1, start=700.0)])),
        _CRASH, _crash_job),
    "crash_and_restart": (
        dict(nnodes=3,
             faults=FaultSchedule([NodeCrash(node=1, start=700.0),
                                   NodeRestart(node=1, start=5000.0)])),
        _CRASH, _restart_job),
    "observed": (
        dict(obs=ObsSpec({"trace", "spans", "timeline", "flight"})),
        dict(stacks=("lapi",)), _lapi_job),
}


class TestDrop:
    """A cluster owns its machine: nothing it owns refers back to it,
    and the finalizer cuts the cycles a running machine needs, so
    dropping the last outside reference frees it at once -- nothing is
    left for the cyclic collector -- and its nodes' simulated memory
    goes with it."""

    @pytest.mark.parametrize("case", sorted(_DROP_CASES))
    def test_dropped_cluster_returns_its_memory_at_once(self, case):
        build, run, job = _DROP_CASES[case]
        kept = []

        def main(task):
            # Left allocated on purpose: the job's memory outlives it.
            addr = task.memory.malloc(1 << 20)
            kept.append((task, addr))
            yield from job(task, addr)

        def run_and_drop():
            cluster = Cluster(**{"nnodes": 2, **build})
            cluster.run_job(main, **run)
            if "crash" in case:
                assert cluster.faults.node_crashes == 1
                assert cluster.resilience.convictions
            if case == "crash_and_restart":
                assert cluster.faults.node_restarts == 1
                assert cluster.resilience.recoveries
            memories = [node.memory for node in cluster.nodes]
            assert all(m.live_bytes >= 1 << 20 for m in memories)
            return weakref.ref(cluster), memories

        dead, memories = assert_freed_on_drop(run_and_drop)
        assert dead() is None
        assert [m.live_bytes for m in memories] == [0] * len(memories)
        task, addr = kept[0]
        with pytest.raises(MemoryFault, match="dropped cluster"):
            task.memory.read(addr, 8)
        with pytest.raises(MachineError, match="dropped"):
            task.cluster
        assert task.now() > 0.0  # the task keeps its clock
        # What a caller kept past the drop goes by refcounting too.
        assert_freed_on_drop(kept.clear)

    @pytest.mark.parametrize("stack", ["lapi", "mpl"])
    def test_a_failed_job_leaves_nothing_to_the_collector(self, stack):
        """A job stopped by its ``until`` budget leaves every task
        parked in a progress wait; the drop closes them too."""
        def main(task):
            if stack == "lapi":
                yield from task.lapi.waitcntr(task.lapi.counter(), 1)
            else:
                buf = task.memory.malloc(64)
                yield from task.mpl.recv(1 - task.rank, 5, buf, 64)

        def run_and_drop():
            with pytest.raises(MachineError, match="budget"):
                Cluster(nnodes=2).run_job(main, stacks=(stack,),
                                          until=1000.0)

        assert_freed_on_drop(run_and_drop)

    def test_dropped_scale_point_leaves_nothing_to_the_collector(self):
        record = assert_freed_on_drop(lambda: scale_point(32, "sp", 1))
        assert record["nodes"] == 32


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


class TestFailRun:
    """``fail_run`` halts the running job from a bare kernel callback:
    the first error wins and is raised before anything queued after the
    failing callback fires, and the next job starts clean."""

    def test_first_error_halts_the_job_at_its_instant(self):
        c = Cluster(nnodes=1)
        first = RuntimeError("first")
        ran = []

        def failing(_):
            c.fail_run(first)
            c.fail_run(RuntimeError("second"))

        def doomed(task):
            c.sim.call_at(5.0, failing)
            c.sim.call_at(5.0, ran.append, "same instant")
            c.sim.call_at(6.0, ran.append, "later")
            yield c.sim.timeout(10.0)

        with pytest.raises(RuntimeError, match="first") as info:
            c.run_job(doomed, stacks=())
        assert info.value is first
        assert c.sim.now == 5.0
        assert ran == []

        def healthy(task):
            yield c.sim.timeout(1.0)
            return "ok"

        assert c.run_job(healthy, stacks=()) == ["ok"]
        # What the halt left queued is still the machine's to run.
        assert ran == ["same instant", "later"]


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


_MIB = 1 << 20


def _touching_job(kind):
    """One 2-node ``bulk``-style job: each node mallocs and writes two
    4 MiB buffers and leaves them allocated; rank 0 then moves 512 KiB
    to rank 1 by LAPI put or by MPL rendezvous."""
    nbytes = 512 * 1024

    def main(task):
        mem = task.memory
        src = mem.malloc(4 * _MIB)
        dst = mem.malloc(4 * _MIB)
        mem.view(src, 4 * _MIB)[:] = task.rank + 1
        mem.view(dst, 4 * _MIB)[:] = 0xFF
        if kind == "lapi_put":
            addrs = yield from task.lapi.address_init(dst)
            if task.rank == 0:
                yield from task.lapi.put_sync(1, nbytes, addrs[1], src)
            yield from task.lapi.gfence()
        else:
            if task.rank == 0:
                yield from task.mpl.send(1, src, nbytes, tag=1)
            else:
                yield from task.mpl.recv(0, 1, dst, nbytes)
            yield from task.mpl.barrier()
        return mem.read(dst, 1)

    stacks = ("lapi",) if kind == "lapi_put" else ("mpl",)
    assert Cluster(nnodes=2).run_job(main, stacks=stacks) \
        == [b"\xff", b"\x01"]


@pytest.mark.parametrize("kind", ["lapi_put", "mpl_rndv"])
def test_host_memory_does_not_accumulate_across_jobs(kind, mapped):
    """Four back-to-back jobs peak where one does, with the cyclic GC
    off: dropping a finished cluster unmaps what its job left
    allocated."""
    def peak(njobs):
        mapped.reset()
        for _ in range(njobs):
            _touching_job(kind)
        return mapped.peak

    one = assert_freed_on_drop(lambda: peak(1))
    four = assert_freed_on_drop(lambda: peak(4))
    assert one >= 16 * _MIB  # two nodes x 2 x 4 MiB
    assert four == one
