"""Adaptive RTO, Karn's rule, backoff, and peer-health transitions.

Unit tests drive a :class:`ReliableTransport` against a stub adapter
(no fabric), so timer rounds and acknowledgement arrivals can be
sequenced exactly; integration tests check the structured failure path
through ``Cluster.run_job`` and the registered LAPI error handler.
"""

import pickle

import pytest

from repro.core.reliability import (DEGRADED, HEALTHY, UNREACHABLE,
                                    ReliableTransport)
from repro.errors import NetworkError, PeerUnreachableError
from repro.machine import Cluster
from repro.machine.config import SP_1998
from repro.machine.packet import Packet
from repro.sim import Simulator


class _StubAdapter:
    node_id = 0
    crashed = False

    def __init__(self):
        self.injected = []

    def inject_async(self, pkt):
        self.injected.append(pkt)
        return True

    def inject_control(self, pkt):
        self.injected.append(pkt)


def make_transport(**overrides):
    kw = dict(window=8, timeout=1000.0, adaptive=True, rto_min=50.0,
              rto_max=4000.0, backoff=2.0, degraded_after=2,
              retry_budget=SP_1998.retry_budget)
    kw.update(overrides)
    sim = Simulator()
    tr = ReliableTransport(sim, _StubAdapter(), "t", **kw)
    return sim, tr


def data_packet():
    return Packet(src=0, dst=1, proto="t", kind="data", header_bytes=8)


def ack_for(seq):
    return Packet(src=1, dst=0, proto="t", kind="ack", header_bytes=16,
                  info={"acked_seq": seq})


def run_until(sim, t):
    while sim.peek() <= t:
        sim.step()


class TestEstimator:
    def test_first_sample_seeds_srtt(self):
        _, tr = make_transport()
        st = tr._peer_tx(1)
        tr._observe_rtt(st, 100.0)
        assert st.srtt == 100.0
        assert st.rttvar == 50.0
        assert st.rto == 300.0  # srtt + 4 * rttvar

    def test_steady_samples_shrink_variance(self):
        _, tr = make_transport()
        st = tr._peer_tx(1)
        for _ in range(50):
            tr._observe_rtt(st, 100.0)
        assert st.srtt == pytest.approx(100.0)
        # Constant RTT: variance decays, RTO converges toward SRTT
        # (clamped at rto_min if it would go below).
        assert st.rto < 150.0

    def test_rto_clamped_to_bounds(self):
        _, tr = make_transport()
        st = tr._peer_tx(1)
        for _ in range(80):
            tr._observe_rtt(st, 1.0)
        assert st.rto == 50.0   # rto_min
        tr._observe_rtt(st, 50000.0)
        assert st.rto == 4000.0  # rto_max

    def test_deadline_fixed_vs_adaptive(self):
        _, fixed = make_transport(adaptive=False)
        st = fixed._peer_tx(1)
        assert fixed._deadline(st, 10.0) == 10.0 + 1000.0
        _, ad = make_transport()
        st = ad._peer_tx(1)
        st.rto = 100.0
        st.backoff_mult = 8.0
        assert ad._deadline(st, 10.0) == 10.0 + 800.0
        st.backoff_mult = 64.0  # capped by rto_max
        assert ad._deadline(st, 10.0) == 10.0 + 4000.0


class TestBackoffAndHealth:
    def test_timer_rounds_backoff_and_degrade(self):
        sim, tr = make_transport()
        st = tr._peer_tx(1)
        tr._register(st, data_packet(), uses_window=False, on_ack=None)
        # First round at t=1000 (initial rto == timeout).
        run_until(sim, 1000.0)
        assert tr.retransmissions == 1
        assert st.backoff_mult == 2.0
        assert st.health == HEALTHY
        # Second round: deadline 1000 + 2000, degraded_after=2 trips.
        run_until(sim, 3000.0)
        assert tr.retransmissions == 2
        assert st.backoff_mult == 4.0
        assert st.health == DEGRADED
        assert tr.peer_degraded_events == 1
        assert tr.peer_health(1) == DEGRADED

    def test_karn_skips_sample_and_ack_recovers_health(self):
        sim, tr = make_transport()
        st = tr._peer_tx(1)
        tr._register(st, data_packet(), uses_window=False, on_ack=None)
        run_until(sim, 3000.0)  # two retransmitting rounds -> DEGRADED
        tr.on_ack(ack_for(0))
        # The packet was retransmitted: the ack is ambiguous, so no RTT
        # sample -- but it still proves the peer is alive.
        assert tr.karn_skips == 1
        assert st.srtt is None
        assert st.backoff_mult == 1.0
        assert st.health == HEALTHY
        assert tr.peer_recovered_events == 1
        assert not st.unacked

    def test_fresh_ack_feeds_estimator(self):
        sim, tr = make_transport()
        st = tr._peer_tx(1)
        tr._register(st, data_packet(), uses_window=False, on_ack=None)
        sim.call_at(30.0, lambda _: None, None)
        sim.step()  # advance to t=30 without a timer round
        tr.on_ack(ack_for(0))
        assert tr.karn_skips == 0
        assert st.srtt == 30.0
        assert st.rto == 90.0  # 30 + 4*15, above rto_min=50


class TestPeerFatal:
    def test_exhaustion_routes_through_on_fatal(self):
        sim, tr = make_transport(retry_budget=2)
        seen = []
        tr.on_fatal = seen.append
        st = tr._peer_tx(1)
        tr._register(st, data_packet(), uses_window=True, on_ack=None)
        run_until(sim, 60_000.0)
        assert len(seen) == 1
        err = seen[0]
        assert isinstance(err, PeerUnreachableError)
        assert (err.proto, err.node, err.peer) == ("t", 0, 1)
        assert err.attempts == 2
        assert "terminated" in str(err)
        assert st.health == UNREACHABLE
        assert tr.peer_health(1) == UNREACHABLE
        assert tr.metrics()["peers_unreachable"] == 1
        assert not st.unacked and not st.attempts
        assert not st.timer_running

    def test_exhaustion_without_hook_raises_from_timer(self):
        sim, tr = make_transport(retry_budget=1)
        st = tr._peer_tx(1)
        tr._register(st, data_packet(), uses_window=False, on_ack=None)
        with pytest.raises(PeerUnreachableError):
            run_until(sim, 60_000.0)

    def test_error_pickles_with_context(self):
        sim, tr = make_transport(retry_budget=1)
        seen = []
        tr.on_fatal = seen.append
        st = tr._peer_tx(1)
        tr._register(st, data_packet(), uses_window=False, on_ack=None)
        run_until(sim, 60_000.0)
        clone = pickle.loads(pickle.dumps(seen[0]))
        assert str(clone) == str(seen[0])
        assert (clone.proto, clone.node, clone.peer,
                clone.attempts) == ("t", 0, 1, 1)


class TestErrorHandlerRouting:
    """LAPI error-handler semantics on the structured failure path."""

    @staticmethod
    def _job(main, error_handler=None):
        return Cluster(nnodes=2, seed=3).run_job(
            main, stacks=("lapi",), error_handler=error_handler,
            until=1_000_000.0)

    def test_handler_true_suppresses(self):
        seen = []

        def handler(err):
            seen.append(err)
            return True

        def main(task):
            yield from task.lapi.gfence()
            if task.rank == 0:
                task.lapi._transport_fatal(
                    PeerUnreachableError("injected"))
            yield from task.lapi.gfence()
            return "ok"

        assert self._job(main, handler) == ["ok", "ok"]
        assert len(seen) == 1 and str(seen[0]) == "injected"

    def test_handler_false_fails_run(self):
        def main(task):
            yield from task.lapi.gfence()
            if task.rank == 0:
                task.lapi._transport_fatal(
                    PeerUnreachableError("injected"))
            yield from task.lapi.gfence()

        with pytest.raises(PeerUnreachableError, match="injected"):
            self._job(main, error_handler=lambda err: False)

    def test_no_handler_fails_run(self):
        def main(task):
            yield from task.lapi.gfence()
            if task.rank == 0:
                task.lapi._transport_fatal(
                    PeerUnreachableError("injected"))
            yield from task.lapi.gfence()

        with pytest.raises(PeerUnreachableError, match="injected"):
            self._job(main)

    def test_dead_peer_carries_context(self):
        """End to end: the unreachable-peer error raised from run_job
        carries the structured proto/node/peer/attempts context."""
        def main(task):
            lapi = task.lapi
            mem = task.memory
            window = mem.malloc(8)
            if task.rank == 0:
                yield from lapi.put(1, 8, window, window)
                yield from lapi.gfence()
            else:
                lapi.set_interrupt_mode(False)
                yield from task.thread.sleep(1e9)

        cfg = SP_1998.replace(lapi_retrans_timeout=200.0)
        with pytest.raises(NetworkError,
                           match="mismatched|terminated") as exc:
            Cluster(nnodes=2, config=cfg).run_job(main,
                                                  stacks=("lapi",))
        err = exc.value
        assert isinstance(err, PeerUnreachableError)
        assert err.proto == "lapi"
        assert err.node == 0
        assert err.peer == 1
        assert err.attempts == SP_1998.retry_budget
