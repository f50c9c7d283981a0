"""Fail-stop node crashes: clauses, machine semantics, detection.

Clause-level tests validate the NodeCrash/NodeRestart schedule
algebra; machine tests check the kill/restart semantics (threads die
at their yield points, the adapter goes dark, restart revives the
machine but not the task); detector tests drive the heartbeat failure
detector end to end through ``Cluster.run_job``.
"""

import math
import pickle

import pytest

from repro.errors import MachineError, PeerUnreachableError
from repro.faults import FaultSchedule, NodeCrash, NodeRestart
from repro.machine import TASK_CRASHED, Cluster
from repro.machine.config import SP_1998


def _idle(task):
    """Workload that parks every rank until well past any crash."""
    yield from task.lapi.gfence()
    yield from task.thread.sleep(5000.0)
    return task.rank


class TestClauses:
    def test_crash_requires_positive_start(self):
        with pytest.raises(MachineError, match="start must be > 0"):
            FaultSchedule([NodeCrash(node=0, start=0.0)])

    def test_crash_rejects_negative_node(self):
        with pytest.raises(MachineError, match="node must be >= 0"):
            FaultSchedule([NodeCrash(node=-1, start=10.0)])

    def test_restart_needs_a_preceding_crash(self):
        with pytest.raises(MachineError, match="no preceding"):
            FaultSchedule([NodeRestart(node=0, start=50.0)])

    def test_restart_must_follow_its_crash(self):
        with pytest.raises(MachineError, match="no preceding"):
            FaultSchedule([NodeCrash(node=0, start=100.0),
                           NodeRestart(node=0, start=50.0)])

    def test_restart_rejects_ambiguous_open_crashes(self):
        with pytest.raises(MachineError, match="ambiguous"):
            FaultSchedule([NodeCrash(node=0, start=10.0),
                           NodeCrash(node=0, start=20.0),
                           NodeRestart(node=0, start=30.0)])

    def test_restart_inside_finite_window_rejected(self):
        with pytest.raises(MachineError, match="falls inside"):
            FaultSchedule([NodeCrash(node=0, start=10.0, end=100.0),
                           NodeRestart(node=0, start=50.0)])

    def test_overlapping_crash_windows_rejected(self):
        with pytest.raises(MachineError, match="overlapping crash"):
            FaultSchedule([NodeCrash(node=0, start=10.0, end=100.0),
                           NodeCrash(node=0, start=50.0)])

    def test_restart_closes_open_window(self):
        sched = FaultSchedule([NodeCrash(node=1, start=10.0),
                               NodeRestart(node=1, start=90.0)])
        assert sched.crash_windows == {1: [(10.0, 90.0)]}

    def test_sequential_crashes_one_node(self):
        sched = FaultSchedule([
            NodeCrash(node=1, start=10.0, end=50.0),
            NodeCrash(node=1, start=100.0),
            NodeRestart(node=1, start=200.0)])
        assert sched.crash_windows == {1: [(10.0, 50.0), (100.0, 200.0)]}

    def test_open_crash_window_is_infinite(self):
        sched = FaultSchedule([NodeCrash(node=0, start=10.0)])
        [(start, end)] = sched.crash_windows[0]
        assert start == 10.0 and math.isinf(end)

    def test_crash_node_must_be_in_cluster(self):
        sched = FaultSchedule([NodeCrash(node=9, start=10.0)])
        with pytest.raises(MachineError, match="outside cluster"):
            Cluster(nnodes=2, faults=sched)


class TestTaskCrashedSentinel:
    def test_falsy_singleton(self):
        assert not TASK_CRASHED
        assert repr(TASK_CRASHED) == "TASK_CRASHED"

    def test_pickle_preserves_identity(self):
        """``is TASK_CRASHED`` must work on results shipped back from
        ``--jobs N`` pool workers."""
        clone = pickle.loads(pickle.dumps(TASK_CRASHED))
        assert clone is TASK_CRASHED


class TestCrashSemantics:
    def test_threads_die_and_result_is_sentinel(self):
        sched = FaultSchedule([NodeCrash(node=1, start=500.0)])
        cluster = Cluster(nnodes=2, faults=sched)
        results = cluster.run_job(_idle, stacks=("lapi",),
                                  until=500_000.0,
                                  on_peer_failure="continue")
        assert results[0] == 0
        assert results[1] is TASK_CRASHED
        assert cluster.faults.node_crashes == 1
        assert cluster.faults.threads_killed >= 1
        assert cluster.faults.crash_events[0][1:] == (1, "crash")

    def test_crashed_node_goes_dark(self):
        sched = FaultSchedule([NodeCrash(node=1, start=500.0)])
        cluster = Cluster(nnodes=2, faults=sched)
        cluster.run_job(_idle, stacks=("lapi",), until=500_000.0,
                        on_peer_failure="continue")
        node = cluster.nodes[1]
        assert node.crashed and node.cpu.crashed
        # Heartbeats kept arriving at the dead adapter: dropped.
        assert node.adapter.rx_crash_dropped > 0
        with pytest.raises(MachineError, match="crashed"):
            node.cpu.spawn(lambda thread: iter(()), name="zombie")

    def test_restart_revives_machine_not_task(self):
        # Restart after the conviction point: a machine that reboots
        # faster than the conviction threshold is never suspected, and
        # its survivors would then (correctly) wait forever for a task
        # that died with the crash.
        sched = FaultSchedule([NodeCrash(node=1, start=500.0),
                               NodeRestart(node=1, start=4000.0)])
        cluster = Cluster(nnodes=2, faults=sched)
        results = cluster.run_job(_idle, stacks=("lapi",),
                                  until=500_000.0,
                                  on_peer_failure="continue")
        node = cluster.nodes[1]
        assert not node.adapter.crashed  # machine is back
        assert node.cpu.crashed          # the task is not
        assert results[1] is TASK_CRASHED
        assert cluster.faults.node_restarts == 1

    def test_zero_cost_without_crashes(self):
        """No schedule: no detector, no heartbeat traffic, identical
        event streams (the byte-identity contract)."""
        runs = []
        for _ in range(2):
            cluster = Cluster(nnodes=2)
            cluster.run_job(_idle, stacks=("lapi",))
            assert cluster.resilience is None
            runs.append((cluster.sim.now, cluster.sim.events_processed,
                         cluster.metrics.render()))
        assert runs[0] == runs[1]


def _leave_lapi_state(task):
    """Rank 0 receives a put, then leaves a get outstanding: rank 1
    never polls again, so the request is never serviced."""
    lapi = task.lapi
    buf = task.memory.malloc(64)
    tgt = lapi.counter()
    if task.rank == 1:
        yield from lapi.put(0, 64, buf, buf, tgt_cntr=tgt.id)
    else:
        yield from lapi.waitcntr(tgt, 1)
        yield from lapi.get(1, 64, buf, buf)
    yield from task.thread.sleep(1e6)


def _leave_mpl_state(task):
    """Rank 0 posts a receive that never matches, starts a rendezvous
    rank 1 never answers and holds an unexpected message."""
    mpl = task.mpl
    if task.rank == 1:
        yield from mpl.isend(0, b"u" * 16, 16, 7)
    else:
        yield from mpl.irecv(1, 5, None, 64)
        nbytes = mpl.eager_limit + 1
        yield from mpl.isend(1, b"r" * nbytes, nbytes, 9)
        yield from mpl.probe(1, 7)
    yield from task.thread.sleep(1e6)


class TestCrashReset:
    @pytest.mark.parametrize("stack", ["lapi", "mpl"])
    def test_crash_reset_clears_transport_and_context(self, stack):
        """A restarted node's stack forgets every in-flight transfer."""
        if stack == "lapi":
            main = _leave_lapi_state
            tables = ("recvs", "ctx.pending_rmws", "ctx.outstanding",
                      "ctx.barrier_tokens")
        else:
            main = _leave_mpl_state
            tables = ("recvs", "ctx.rndv_waiting", "ctx.match.unexpected",
                      "ctx.match.posted")
        tasks = {}

        def job(task):
            tasks[task.rank] = task
            yield from main(task)

        cluster = Cluster(nnodes=2)
        with pytest.raises(MachineError, match="virtual-time budget"):
            cluster.run_job(job, stacks=(stack,), interrupt_mode=False,
                            until=1000.0)
        ep = getattr(tasks[0], stack)

        def table(name):
            obj = ep
            for part in name.split("."):
                obj = getattr(obj, part)
            return obj

        left = {name for name in tables if table(name)}
        expected = ({"recvs", "ctx.outstanding"} if stack == "lapi"
                    else {"recvs", "ctx.rndv_waiting", "ctx.match.unexpected",
                          "ctx.match.posted"})
        assert expected <= left
        assert ep.transport._tx and ep.transport._rx
        ep.crash_reset()
        assert not ep.transport._tx and not ep.transport._rx
        assert {name for name in tables if table(name)} == set()


class TestDetector:
    def test_conviction_within_one_detection_period(self):
        crash_at = 700.0
        sched = FaultSchedule([NodeCrash(node=1, start=crash_at)])
        cluster = Cluster(nnodes=3, faults=sched)
        cluster.run_job(_idle, stacks=("lapi",), until=500_000.0,
                        on_peer_failure="continue")
        res = cluster.resilience
        assert res is not None
        convicted = {(obs, peer) for _, obs, peer in res.convictions}
        assert convicted == {(0, 1), (2, 1)}
        bound = (SP_1998.conviction_threshold
                 + SP_1998.heartbeat_period)
        for t, _, _ in res.convictions:
            assert crash_at < t <= crash_at + bound

    def test_survivors_see_structured_error_under_fail_policy(self):
        sched = FaultSchedule([NodeCrash(node=1, start=700.0)])
        cluster = Cluster(nnodes=2, faults=sched)
        with pytest.raises(PeerUnreachableError) as exc:
            cluster.run_job(_idle, stacks=("lapi",), until=500_000.0)
        err = exc.value
        assert err.via == "heartbeat"
        assert err.peer == 1
        assert err.proto == "lapi"
        assert err.convicted_us > err.last_heard_us >= 0.0

    def test_restart_absolves_but_peer_stays_dead(self):
        sched = FaultSchedule([NodeCrash(node=1, start=500.0),
                               NodeRestart(node=1, start=4000.0)])
        cluster = Cluster(nnodes=2, faults=sched)

        def main(task):
            yield from task.lapi.gfence()
            yield from task.thread.sleep(6000.0)
            return sorted(task.dead_peers)

        results = cluster.run_job(main, stacks=("lapi",),
                                  until=500_000.0,
                                  on_peer_failure="continue")
        res = cluster.resilience
        assert [(obs, peer) for _, obs, peer in res.convictions] \
            == [(0, 1)]
        assert [(obs, peer) for _, obs, peer in res.recoveries] \
            == [(0, 1)]
        assert all(t > 4000.0 for t, _, _ in res.recoveries)
        # Reachability is not resurrection: the convicted peer stays
        # in the survivor's dead set even after absolution.
        assert results[0] == [1]
        # ... but the transport's circuit breaker closed again.
        rel = cluster.metrics.snapshot()["core.reliability"]
        assert rel["0"]["breaker_closes"] == 1

    def test_suspicion_rises_while_silent(self):
        sched = FaultSchedule([NodeCrash(node=1, start=1000.0)])
        cluster = Cluster(nnodes=2, faults=sched)
        cluster.run_job(_idle, stacks=("lapi",), until=500_000.0,
                        on_peer_failure="continue")
        res = cluster.resilience
        # The run parks until 5000us with the peer dead since 1000us:
        # suspicion of the dead peer dwarfs the healthy-side view.
        assert res.suspicion(0, 1) > 3.0
        assert res.is_convicted(0, 1)

    def test_detector_metrics_registered(self):
        sched = FaultSchedule([NodeCrash(node=1, start=700.0)])
        cluster = Cluster(nnodes=2, faults=sched)
        cluster.run_job(_idle, stacks=("lapi",), until=500_000.0,
                        on_peer_failure="continue")
        block = cluster.metrics.snapshot()["resilience"]["-"]
        assert block["pings_sent"] > 0
        assert block["pongs_received"] > 0
        assert block["convictions"] == 1
        assert block["peers_convicted_now"] == 1

    def test_detector_with_a_crash_after_the_job(self):
        # The crash clause arms the detector, but the job ends long
        # before it starts: the detector runs with nobody to convict.
        sched = FaultSchedule([NodeCrash(node=1, start=400_000.0)])
        cluster = Cluster(nnodes=2, faults=sched)
        assert cluster.resilience is not None
        cluster.run_job(_idle, stacks=("lapi",), until=500_000.0)
        assert cluster.resilience.convictions == []
        assert cluster.resilience.pongs_received > 0

    def test_crash_runs_deterministic(self):
        runs = []
        for _ in range(2):
            sched = FaultSchedule([NodeCrash(node=1, start=700.0)])
            cluster = Cluster(nnodes=3, faults=sched)
            cluster.run_job(_idle, stacks=("lapi",), until=500_000.0,
                            on_peer_failure="continue")
            runs.append((cluster.sim.now,
                         cluster.sim.events_processed,
                         cluster.resilience.convictions,
                         cluster.metrics.render()))
        assert runs[0] == runs[1]


class TestConfigValidation:
    def test_heartbeat_period_must_undercut_threshold(self):
        with pytest.raises(ValueError, match="heartbeat_period"):
            SP_1998.replace(heartbeat_period=2000.0,
                            conviction_threshold=2000.0).validate()

    def test_threshold_must_exceed_rto_floor(self):
        with pytest.raises(ValueError, match="RTO floor"):
            SP_1998.replace(heartbeat_period=50.0,
                            conviction_threshold=150.0).validate()

    def test_retry_budget_positive(self):
        with pytest.raises(ValueError, match="retry_budget"):
            SP_1998.replace(retry_budget=0).validate()

    def test_heartbeat_period_positive_finite(self):
        with pytest.raises(ValueError, match="heartbeat_period"):
            SP_1998.replace(heartbeat_period=0.0).validate()
        with pytest.raises(ValueError, match="heartbeat_period"):
            SP_1998.replace(heartbeat_period=math.inf).validate()

    def test_unknown_survivor_policy_rejected(self):
        with pytest.raises(MachineError, match="on_peer_failure"):
            Cluster(nnodes=2).run_job(_idle, stacks=("lapi",),
                                      on_peer_failure="panic")
