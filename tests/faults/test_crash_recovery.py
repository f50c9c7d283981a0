"""Crash recovery for survivors: breaker, handlers, blocked fences.

Unit tests drive the circuit breaker on a bare transport; integration
tests crash a node mid-``gfence`` and check the survivors resolve with
structured errors (or continue degraded) within one detection period
of the failure detector.
"""

import pickle

import pytest

from repro.bench.chaos import (CHAOS_BYTES, CHAOS_MSGS_QUICK, CRASH_AT_US,
                               crash_point, crash_scenarios)
from repro.core import RmwOp
from repro.core.reliability import UNREACHABLE, ReliableTransport
from repro.errors import MachineError, PeerUnreachableError
from repro.faults import FaultSchedule, LinkOutage, NodeCrash
from repro.machine import TASK_CRASHED, Cluster
from repro.machine.config import SP_1998
from repro.machine.packet import Packet
from repro.sim import Simulator


class _StubAdapter:
    node_id = 0
    crashed = False

    def __init__(self):
        self.injected = []

    def inject(self, thread, packet):
        self.injected.append(packet)
        return
        yield  # pragma: no cover - make this a generator

    def inject_async(self, packet):
        self.injected.append(packet)
        return True

    def inject_control(self, packet):
        self.injected.append(packet)


def _transport():
    sim = Simulator()
    return sim, ReliableTransport(
        sim, _StubAdapter(), "t", window=2, timeout=1000.0,
        adaptive=False, rto_min=SP_1998.rto_min, rto_max=SP_1998.rto_max,
        backoff=SP_1998.rto_backoff,
        degraded_after=SP_1998.peer_degraded_after,
        retry_budget=SP_1998.retry_budget)


def _data(dst=1):
    return Packet(src=0, dst=dst, proto="t", kind="data",
                  header_bytes=8, payload=b"x" * 32)


class TestCircuitBreaker:
    def test_peer_down_completes_in_flight_in_error(self):
        sim, tr = _transport()
        fired = []
        sim.process(tr.send_data(None, _data(), on_ack=lambda: fired.append(1)))
        sim.process(tr.send_data(None, _data(), on_ack=lambda: fired.append(2)))
        sim.run(until=10.0)
        assert tr.outstanding_total() == 2
        tr.peer_down(1)
        # Counters fired (completion in error) and state drained.
        assert fired == [1, 2]
        assert tr.completed_in_error == 2
        assert tr.outstanding_total() == 0
        assert tr.peer_health(1) == UNREACHABLE
        assert tr.breaker_opens == 1
        # Window credits were returned: the window is full again.
        assert tr._peer_tx(1).credits == 2
        # Idempotent.
        tr.peer_down(1)
        assert tr.breaker_opens == 1

    def test_send_data_raises_fast_while_open(self):
        sim, tr = _transport()
        tr.peer_down(1)
        gen = tr.send_data(None, _data())
        with pytest.raises(PeerUnreachableError, match="breaker open"):
            next(gen)
        # Other peers are unaffected.
        sim.process(tr.send_data(None, _data(dst=2)))
        sim.run(until=1.0)
        assert tr.outstanding_total() == 1

    def test_send_control_suppressed_and_counted(self):
        sim, tr = _transport()
        tr.peer_down(1)
        before = len(tr.adapter.injected)
        tr.send_control(Packet(src=0, dst=1, proto="t", kind="fence",
                               header_bytes=8))
        assert len(tr.adapter.injected) == before  # nothing on the wire
        assert tr.breaker_suppressed == 1
        assert tr.metrics()["breaker_suppressed"] == 1

    def test_breaker_close_restores_traffic(self):
        sim, tr = _transport()
        tr.peer_down(1)
        st = tr._peer_tx(1)
        st.backoff_mult = 8.0
        tr.breaker_close(1)
        assert tr.peer_health(1) != UNREACHABLE
        assert tr.breaker_closes == 1
        assert st.backoff_mult == 1.0  # Karn backoff reset
        assert tr.peer_health(1) == "healthy"
        sim.process(tr.send_data(None, _data()))
        sim.run(until=1.0)
        assert tr.outstanding_total() == 1
        # Closing an already-closed breaker is a no-op.
        tr.breaker_close(1)
        assert tr.breaker_closes == 1


CRASH_RANK = 3
CRASH_AT = 900.0
#: Worst-case detection latency of the heartbeat detector, plus slack
#: for the dissemination rounds that follow the conviction.
DETECT_BOUND = (SP_1998.conviction_threshold + SP_1998.heartbeat_period
                + 500.0)


def _fence_workload(task):
    """Everyone aligns, then the survivors gfence across the crash."""
    yield from task.lapi.gfence()
    # The crash rank parks so it dies mid-sleep; survivors enter the
    # second gfence after the crash instant and block on its token.
    yield from task.thread.sleep(5000.0 if task.rank == CRASH_RANK
                                 else 1200.0)
    entered = task.now()
    yield from task.lapi.gfence()
    return (entered, task.now())


class TestCrashMidGfence:
    def _schedule(self):
        return FaultSchedule([NodeCrash(node=CRASH_RANK, start=CRASH_AT)])

    def test_survivors_unblock_within_detection_period(self):
        cluster = Cluster(nnodes=16, faults=self._schedule())
        results = cluster.run_job(_fence_workload, stacks=("lapi",),
                                  until=1_000_000.0,
                                  on_peer_failure="continue")
        assert results[CRASH_RANK] is TASK_CRASHED
        survivors = [r for i, r in enumerate(results) if i != CRASH_RANK]
        assert len(survivors) == 15
        for entered, done in survivors:
            assert entered > CRASH_AT  # really blocked across the crash
            assert done - CRASH_AT <= DETECT_BOUND
        # Every survivor convicted the dead rank exactly once.
        convicted = sorted(obs for _, obs, peer
                           in cluster.resilience.convictions
                           if peer == CRASH_RANK)
        assert convicted == [n for n in range(16) if n != CRASH_RANK]

    def test_fail_policy_raises_for_survivors(self):
        cluster = Cluster(nnodes=16, faults=self._schedule())
        with pytest.raises(PeerUnreachableError) as exc:
            cluster.run_job(_fence_workload, stacks=("lapi",),
                            until=1_000_000.0)
        assert exc.value.peer == CRASH_RANK
        assert exc.value.via == "heartbeat"
        assert exc.value.convicted_us - CRASH_AT <= DETECT_BOUND


def _assert_no_survivor_leaves_early(stack, barrier):
    """Four nodes, node 1 crashed at 100 us; the survivors enter
    ``barrier(task)`` past the conviction, rank 0 20 ms after the
    others.  Every survivor enters before any of them leaves."""
    def main(task):
        yield from task.thread.sleep(5000.0)  # past the conviction
        if task.rank == 0:
            yield from task.thread.sleep(20_000.0)
        entered = task.now()
        yield from barrier(task)
        return entered, task.now()

    cluster = Cluster(nnodes=4,
                      faults=FaultSchedule([NodeCrash(node=1, start=100.0)]))
    results = cluster.run_job(main, stacks=(stack,), until=200_000.0,
                              on_peer_failure="continue")
    assert results[1] is TASK_CRASHED
    survivors = [r for r in results if r is not TASK_CRASHED]
    last_entry = max(entered for entered, _ in survivors)
    first_exit = min(left for _, left in survivors)
    assert first_exit >= last_entry


def test_no_survivor_leaves_the_gfence_before_the_last_enters():
    """A survivor barrier: every rank that is still alive enters the
    gfence before any of them leaves it."""
    _assert_no_survivor_leaves_early("lapi", lambda task: task.lapi.gfence())


def test_no_survivor_leaves_the_mpl_barrier_before_the_last_enters():
    """MPL's barrier is the same survivor barrier, and ``Mpl.term``'s
    closing one returns on every survivor."""
    _assert_no_survivor_leaves_early("mpl", lambda task: task.mpl.barrier())


def test_both_stacks_terminate_on_every_survivor_after_a_crash():
    """A job on LAPI and MPL, each running its barrier across a node
    crash: the survivors restart their barriers over the new
    membership, and every survivor returns from ``Lapi.term`` and
    ``Mpl.term``."""
    tasks = []

    def main(task):
        tasks.append(task)
        for _ in range(6):
            yield from task.lapi.gfence()
            yield from task.mpl.barrier()
            yield from task.thread.sleep(400.0 + 50.0 * task.rank)
        return task.rank

    cluster = Cluster(nnodes=5,
                      faults=FaultSchedule([NodeCrash(node=3, start=900.0)]))
    results = cluster.run_job(main, stacks=("lapi", "mpl"),
                              until=200_000.0, on_peer_failure="continue")
    assert results == [0, 1, 2, TASK_CRASHED, 4]
    for task in tasks:
        if task.rank != 3:
            assert task.dead_peers == {3}
            assert task.lapi._terminated and task.mpl._terminated


@pytest.mark.parametrize("stack, barriers, crash_at", [
    ("lapi", 20, 240.0), ("mpl", 20, 240.0),
    ("lapi", 2, 240.0), ("mpl", 2, 420.0)],
    ids=["lapi-loop", "mpl-loop", "lapi-term", "mpl-term"])
def test_a_rank_that_left_the_barrier_replays_its_tokens(stack, barriers,
                                                         crash_at):
    """Three ranks run ``barriers`` barriers, then ``term``'s, and node
    2 dies inside one after its first token went out: one survivor
    leaves that barrier under the old membership, the other cannot and
    restarts it over the two survivors once it convicts node 2.  The
    first one's replay of its tokens under the new membership lets it
    out, from a barrier in the loop or from ``term``'s, which the first
    survivor has already left (without the replay the job runs to
    ``until=``)."""
    def main(task):
        for _ in range(barriers):
            yield from getattr(task, stack).barrier()
            yield from task.thread.sleep(20.0 * (task.rank * 7 % 3))
        return task.rank

    cluster = Cluster(nnodes=3,
                      faults=FaultSchedule([NodeCrash(node=2,
                                                      start=crash_at)]))
    results = cluster.run_job(main, stacks=(stack,), until=300_000.0,
                              on_peer_failure="continue")
    assert results == [0, 1, TASK_CRASHED]


@pytest.mark.parametrize("nbytes", [8000, 100_000])
def test_mpl_rendezvous_send_to_an_open_breaker_raises_at_the_call(nbytes):
    """Above the eager limit an ``isend`` starts with an RTS, which an
    open breaker would suppress without a word: the call raises
    instead, as an eager send does, and registers nothing -- no
    request waits for a CTS and no streamer thread is spawned."""
    records = {}

    def main(task):
        mpl = task.mpl
        yield from task.thread.sleep(5000.0)  # past the conviction
        if task.rank == 0:
            assert nbytes > mpl.eager_limit
            src = task.memory.malloc(nbytes)
            threads = task.node.cpu._spawned
            try:
                yield from mpl.isend(1, src, nbytes, tag=7)
            except PeerUnreachableError as err:
                records["raised"] = (task.now(), err.peer)
            records["waiting"] = len(mpl.ctx.rndv_waiting)
            records["spawned"] = task.node.cpu._spawned - threads

    cluster = Cluster(nnodes=2,
                      faults=FaultSchedule([NodeCrash(node=1, start=100.0)]))
    results = cluster.run_job(main, stacks=("mpl",), until=200_000.0,
                              on_peer_failure="continue")
    assert results == [None, TASK_CRASHED]
    assert "raised" in records, "isend returned a request"
    at, peer = records["raised"]
    assert peer == 1
    assert at == pytest.approx(5024.0)
    assert records["waiting"] == 0
    assert records["spawned"] == 0


class TestErrorHandlerSatellites:
    def _run(self, handler, nnodes=3):
        sched = FaultSchedule([NodeCrash(node=1, start=700.0)])
        cluster = Cluster(nnodes=nnodes, faults=sched)

        def main(task):
            yield from task.lapi.gfence()
            yield from task.thread.sleep(4000.0)
            return task.rank

        results = cluster.run_job(main, stacks=("lapi",),
                                  until=500_000.0,
                                  error_handler=handler)
        return cluster, results

    def test_non_callable_handler_rejected_at_init(self):
        from repro.errors import LapiError
        with pytest.raises(LapiError, match="must be callable"):
            self._run(handler=42)

    def test_raising_handler_fails_run_with_cause(self):
        def handler(err):
            raise RuntimeError("handler exploded")

        with pytest.raises(RuntimeError, match="handler exploded") as exc:
            self._run(handler)
        cause = exc.value.__cause__
        assert isinstance(cause, PeerUnreachableError)
        assert cause.via == "heartbeat"
        assert cause.peer == 1

    def test_truthy_handler_suppresses_and_survivors_continue(self):
        seen = []

        def handler(err):
            seen.append(err)
            return True  # handled: keep running degraded

        cluster, results = self._run(handler)
        assert results[0] == 0 and results[2] == 2
        assert results[1] is TASK_CRASHED
        # Both survivors' stacks consulted the handler.
        assert sorted(e.node for e in seen) == [0, 2]
        assert all(e.peer == 1 and e.via == "heartbeat" for e in seen)

    def test_error_pickles_with_detector_context(self):
        """``--jobs N`` ships these across the pool boundary."""
        seen = []
        self._run(lambda err: seen.append(err) or True)
        err = seen[0]
        clone = pickle.loads(pickle.dumps(err))
        assert isinstance(clone, PeerUnreachableError)
        assert str(clone) == str(err)
        assert clone.proto == "lapi"
        assert clone.node == err.node
        assert clone.peer == 1
        assert clone.via == "heartbeat"
        assert clone.last_heard_us == err.last_heard_us
        assert clone.convicted_us == err.convicted_us


class TestSuppressedRetryExhaustion:
    """A peer lost to an exhausted retry budget, with a handler that
    suppresses the error, is recorded like a convicted one: barrier
    waits stop waiting for it and operations toward it complete in
    error."""

    @staticmethod
    def _run(main):
        seen = []

        def handler(err):
            seen.append(err)
            return True

        # Both directions dark for the whole job: every packet is lost
        # and each rank gives up on the other after two retransmissions.
        cluster = Cluster(nnodes=2, config=SP_1998.replace(retry_budget=2),
                          faults=FaultSchedule([LinkOutage(start=0.0,
                                                           end=1e7)]))
        results = cluster.run_job(main, stacks=("lapi",),
                                  error_handler=handler, until=200_000.0)
        assert sorted((e.node, e.peer, e.via) for e in seen) \
            == [(0, 1, "retries"), (1, 0, "retries")]
        return cluster, results

    def test_survivors_leave_gfence_and_record_the_peer(self):
        def main(task):
            yield from task.lapi.gfence()
            return set(task.dead_peers)

        _, results = self._run(main)
        assert results == [{1}, {0}]

    def test_put_toward_the_lost_peer_completes_in_error(self):
        def main(task):
            lapi = task.lapi
            buf = task.memory.malloc(64)
            if task.rank == 0:
                cmpl = lapi.counter()
                yield from lapi.put(1, 64, buf, buf, cmpl_cntr=cmpl)
                # The fence waits for the put's packets to complete at
                # the transport level, which here they do in error.
                # ``cmpl`` never fires: the target never completed it.
                yield from lapi.fence(1)
            return task.now()

        cluster, results = self._run(main)
        assert results[0] > 0.0
        rel = cluster.metrics.snapshot()["core.reliability"]
        assert rel["0"]["completed_in_error"] == 1

    def test_sender_waiting_for_credits_sees_the_breaker_open(self):
        """A put longer than the send window blocks on credits; when the
        breaker opens during that wait, the put raises instead of
        registering one more packet toward the lost peer, and its
        message completes in error, so ``term``'s barrier returns."""
        npkts = SP_1998.lapi_window + 16
        observed = []

        def main(task):
            lapi = task.lapi
            nbytes = npkts * SP_1998.lapi_payload
            buf = task.memory.malloc(nbytes)
            if task.rank == 0:
                with pytest.raises(PeerUnreachableError):
                    yield from lapi.put(1, nbytes, buf, buf)
                transport = lapi.transport
                observed.append((transport.outstanding_to(1),
                                 transport._peer_tx(1).credits))

        self._run(main)
        assert observed == [(0, SP_1998.lapi_window)]

    def _refused(self, send):
        """Rank 0 runs ``send(task, lapi, hid, buf)`` toward rank 1,
        which must raise, then fences rank 1; returns rank 0's
        outstanding count toward rank 1 after the refusal, and the
        refusal and fence instants."""
        def main(task):
            lapi = task.lapi
            hid = lapi.register_handler(lambda *args: (None, None, None))
            buf = task.memory.malloc((SP_1998.lapi_window + 16)
                                     * SP_1998.lapi_payload)
            if task.rank != 0:
                return None
            with pytest.raises(PeerUnreachableError):
                yield from send(task, lapi, hid, buf)
            raised = task.now()
            left = lapi.ctx.outstanding_to(1)
            yield from lapi.fence(1)
            return left, raised, task.now()

        _, results = self._run(main)
        return results[0]

    def test_fence_returns_after_a_put_interrupted_mid_stream(self):
        """An 80-packet put fills the window, the retry budget runs out,
        and the put raises: its 16 unsent packets complete in error with
        the 64 the breaker cleared, so the fence returns."""
        def send(task, lapi, hid, buf):
            yield from lapi.put(1, (SP_1998.lapi_window + 16)
                                * SP_1998.lapi_payload, buf, buf)

        left, raised, fenced = self._refused(send)
        assert left == 0
        assert raised < fenced < raised + 100.0

    @pytest.mark.parametrize("op", ["put", "amsend"])
    def test_fence_returns_after_a_send_refused_up_front(self, op):
        """After the breaker opens, a 64-byte put or amsend fails fast
        and counts as complete, so the fence returns."""
        def send(task, lapi, hid, buf):
            # The gfence's tokens exhaust the retry budget toward rank 1.
            yield from lapi.gfence()
            assert 1 in task.dead_peers
            if op == "put":
                yield from lapi.put(1, 64, buf, buf)
            else:
                yield from lapi.amsend(1, hid, b"h", b"x" * 64, 64)

        left, raised, fenced = self._refused(send)
        assert left == 0
        assert raised < fenced < raised + 100.0

    # ROADMAP item 1(c)'s accounting holes: each completion below can
    # only be reported by the lost peer, so the wait on it runs to
    # ``until=`` and the job fails its virtual-time budget.
    @pytest.mark.xfail(strict=True, raises=MachineError, reason=(
        "ROADMAP item 1(c): a lost target never sends a put's cmpl "
        "notice, so waitcntr on the cmpl_cntr waits until until="))
    def test_waitcntr_ends_after_a_put_toward_the_lost_peer(self):
        """No gfence first: the put goes out, every packet is lost and
        the retry budget runs out.  ``waitcntr`` on the put's
        ``cmpl_cntr`` must then return or raise, not wait out the
        job."""
        def main(task):
            lapi = task.lapi
            buf = task.memory.malloc(64)
            if task.rank == 0:
                cmpl = lapi.counter()
                yield from lapi.put(1, 64, buf, buf, cmpl_cntr=cmpl)
                try:
                    yield from lapi.waitcntr(cmpl, 1)
                except PeerUnreachableError:
                    pass
            return task.now()

        _, results = self._run(main)
        assert results[0] < 200_000.0

    @pytest.mark.parametrize("op", ["get", "rmw"])
    def test_fence_returns_after_a_get_or_rmw_toward_the_lost_peer(self,
                                                                   op):
        """After a gfence has recorded rank 1 lost, a 64-byte get or a
        fetch-and-add toward it returns or raises, and the fence after
        it returns a few microseconds later."""
        def main(task):
            lapi = task.lapi
            buf = task.memory.malloc(64)
            if task.rank != 0:
                return None
            yield from lapi.gfence()
            assert 1 in task.dead_peers
            try:
                if op == "get":
                    yield from lapi.get(1, 64, buf, buf)
                else:
                    yield from lapi.rmw(RmwOp.FETCH_AND_ADD, 1, buf, 1)
            except PeerUnreachableError:
                pass
            issued = task.now()
            yield from lapi.fence(1)
            return issued, task.now()

        _, results = self._run(main)
        issued, fenced = results[0]
        assert issued <= fenced < issued + 100.0


class TestChaosCrashPoints:
    def test_crash_point_is_deterministic(self):
        scenarios = dict(crash_scenarios(quick=True))
        sched = scenarios["node_crash"]
        a = crash_point(CHAOS_BYTES, CHAOS_MSGS_QUICK, sched)
        b = crash_point(CHAOS_BYTES, CHAOS_MSGS_QUICK, sched)
        assert a == b
        assert a["convictions"]
        assert a["detection_latency_us"] is not None
        assert a["detection_latency_us"] <= (SP_1998.conviction_threshold
                                             + SP_1998.heartbeat_period)

    def test_crash_baseline_has_no_crash_machinery(self):
        scenarios = dict(crash_scenarios(quick=True))
        rec = crash_point(CHAOS_BYTES, CHAOS_MSGS_QUICK, scenarios["crash_baseline"])
        assert rec["crash_events"] == []
        assert rec["convictions"] == []
        assert rec["crash_dropped"] == 0
        assert rec["threads_killed"] == 0

    def test_restart_scenario_records_recovery(self):
        scenarios = dict(crash_scenarios(quick=True))
        rec = crash_point(CHAOS_BYTES, CHAOS_MSGS_QUICK, scenarios["node_crash_restart"])
        assert rec["recoveries"]
        assert all(t > CRASH_AT_US for t, _, _ in rec["recoveries"])
