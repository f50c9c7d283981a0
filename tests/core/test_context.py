"""Unit tests for LAPI context state containers, and for the
endpoint's records of a message of either stack: the one that completes
it where it was sent, and the one that receives it."""

from types import SimpleNamespace

import pytest

from repro.core.constants import PacketKind
from repro.core.context import (LapiContext, LapiStats, RecvAssembly,
                                RmwPending)
from repro.core.endpoint import Endpoint, SendRecord
from repro.core.reliability import ReliableTransport
from repro.errors import LapiError, PeerUnreachableError
from repro.machine.config import SP_1998
from repro.machine.packet import Packet
from repro.mpl.matching import MessageState
from repro.mpl.requests import MplStats, SendRequest
from repro.sim import Simulator, WaitSet


@pytest.fixture
def ctx():
    return LapiContext(Simulator(), rank=0, size=4)


class _Adapter:
    """Accepts every packet and delivers none."""

    node_id = 0
    crashed = False

    def inject(self, thread, packet):
        return ()

    def inject_control(self, packet):
        pass


class _Thread:
    @staticmethod
    def execute(cost):
        return ()


#: id -> (packets, window, breaker open before the send, script).  Each
#: script step runs after the send has gone as far as it can -- "ack"
#: acknowledges the oldest packet in flight, "down" opens the breaker
#: -- followed by the completions expected so far.
RECORD_CASES = {
    "last_ack": (3, 4, False, [("ack", 0), ("ack", 0), ("ack", 1)]),
    "one_packet": (1, 4, False, [("ack", 1)]),
    "peer_down": (3, 4, False, [("ack", 0), ("down", 1), ("down", 1)]),
    "refused_mid_stream": (4, 2, False, [("ack", 0), ("down", 1)]),
    "refused_up_front": (3, 4, True, []),
}


class TestSendRecord:
    @pytest.mark.parametrize("case", RECORD_CASES)
    @pytest.mark.parametrize("owner",
                             ["lapi", "mpl_direct", "mpl_buffered"])
    def test_completes_once(self, owner, case):
        """A message completes exactly once: at its last ack, when
        ``peer_down`` clears its packets in flight, or when the breaker
        refuses it mid-stream or up front.  A buffered MPL send is
        complete at once and its record completes nothing."""
        npkts, window, down_first, script = RECORD_CASES[case]
        sim = Simulator()
        tr = ReliableTransport(
            sim, _Adapter(), "t", window=window, timeout=1000.0,
            adaptive=False, rto_min=SP_1998.rto_min,
            rto_max=SP_1998.rto_max, backoff=SP_1998.rto_backoff,
            degraded_after=SP_1998.peer_degraded_after,
            retry_budget=SP_1998.retry_budget)

        def wait_for(predicate):
            while not predicate():
                yield sim.timeout(1.0)

        tr.wait_for = wait_for
        endpoint = SimpleNamespace(
            _send_cost=0.0, transport=tr,
            ctx=SimpleNamespace(progress_ws=WaitSet(sim, name="t")))
        # A buffered send is complete at once and never counts one.
        buffered = owner == "mpl_buffered"
        req = SendRequest(1, 0, 100, "eager-buffered" if buffered
                          else "eager-direct")
        req.complete = buffered
        fired = []
        record = SendRecord(npkts, {
            "lapi": lambda: fired.append(sim.now),
            "mpl_direct": req.finish}.get(owner))

        def completions():
            return int(req.complete) if owner == "mpl_direct" else len(fired)

        refused = []

        def send():
            packets = (Packet(src=0, dst=1, proto="t", kind="data",
                              header_bytes=8, payload=b"x" * 32)
                       for _ in range(npkts))
            try:
                yield from Endpoint.send_packets(endpoint, _Thread(),
                                                 packets, record=record)
            except PeerUnreachableError:
                refused.append(sim.now)

        if down_first:
            tr.peer_down(1)
        sim.process(send())
        sim.run(until=sim.now + 10.0)
        assert completions() == (down_first and not buffered)
        for step, expected in script:
            if step == "ack":
                seq = min(tr._peer_tx(1).unacked)
                tr.on_ack(Packet(src=1, dst=0, proto="t", kind="ack",
                                 header_bytes=16,
                                 info={"acked_seq": seq}))
            else:
                tr.peer_down(1)
            sim.run(until=sim.now + 10.0)
            assert completions() == (0 if buffered else expected)
        assert req.complete or owner == "lapi"
        assert record.left == 0
        assert bool(refused) == case.startswith("refused")


@pytest.fixture(params=["lapi", "mpl"])
def unready_record(request):
    """Factory of one stack's receive record of ``total`` bytes from task
    1 whose destination is not yet known, with the step that makes it
    ready: an active message's header handler has run, or an MPL
    envelope has arrived."""
    def make(total):
        if request.param == "lapi":
            rec = RecvAssembly(1, 5, PacketKind.MSG_AM, total, LapiStats())

            def ready():
                rec.ready = True
        else:
            rec = MessageState(1, 5, stats=MplStats())

            def ready():
                rec.set_envelope(3, total, False)
        return rec, ready
    return make


class TestRecvRecord:
    def test_incomplete_until_ready_and_placed(self, unready_record):
        rec, ready = unready_record(100)
        assert not rec.complete
        ready()
        rec.placed(99)
        assert not rec.complete
        rec.placed(1)
        assert rec.complete
        assert rec.received == rec.stats.bytes_received == 100

    def test_zero_length_completes_when_ready(self, unready_record):
        rec, ready = unready_record(0)
        assert not rec.complete
        ready()
        assert rec.complete

    def test_stash_keeps_arrival_order(self, unready_record):
        rec, _ = unready_record(64)
        rec.stash.append((32, b"late-half"))
        rec.stash.append((16, b"quarter"))
        assert rec.stash == [(32, b"late-half"), (16, b"quarter")]
        assert rec.received == 0
        assert not rec.complete


class TestPendings:
    def test_get_pending(self):
        """A get's reply is assembled like a put, under a key of its
        own: a put from the same peer with the same message id never
        shares its entry.  Both are ready when they open."""
        stats = LapiStats()
        p = RecvAssembly(2, 1, PacketKind.MSG_GET_REP, 10, stats,
                         buf_addr=100)
        put = RecvAssembly(2, 1, PacketKind.MSG_PUT, 10, stats)
        assert p.key != put.key
        assert (p.src, p.msg_id) == (put.src, put.msg_id) == (2, 1)
        assert p.ready and put.ready
        assert not p.complete
        p.placed(10)
        assert p.complete and not put.complete

    def test_rmw_pending(self):
        p = RmwPending(req_id=7, target=2, prev_addr=None,
                       org_cntr=None)
        assert not p.done
        p.prev_value = 42
        p.done = True
        assert p.prev_value == 42


class TestContext:
    def test_counter_registry(self, ctx):
        c1 = ctx.new_counter("a")
        c2 = ctx.new_counter("b")
        assert c1.id != c2.id
        assert ctx.counter_by_id(c1.id) is c1

    def test_unknown_counter_rejected(self, ctx):
        with pytest.raises(LapiError, match="counter"):
            ctx.counter_by_id(99)

    def test_counter_change_notifies_progress(self, ctx):
        woken = []
        ev = ctx.progress_ws.wait()
        ev.callbacks.append(lambda e: woken.append(1))
        c = ctx.new_counter()
        c.add(1)
        assert ev.triggered

    def test_msg_and_req_ids_unique(self, ctx):
        ids = {ctx.new_msg_id() for _ in range(100)}
        assert len(ids) == 100
        rids = {ctx.new_req_id() for _ in range(100)}
        assert len(rids) == 100

    def test_handler_registry(self, ctx):
        fn = lambda *a: (None, None, None)
        ctx.handlers.append(fn)
        assert ctx.handler_by_id(0) is fn
        with pytest.raises(LapiError, match="handler"):
            ctx.handler_by_id(1)
        with pytest.raises(LapiError, match="handler"):
            ctx.handler_by_id(-1)

    def test_fence_accounting(self, ctx):
        assert ctx.outstanding_to() == 0
        ctx.op_issued(2)
        ctx.op_issued(2)
        ctx.op_issued(3)
        assert ctx.outstanding_to(2) == 2
        assert ctx.outstanding_to() == 3
        ctx.op_completed(2)
        assert ctx.outstanding_to(2) == 1

    def test_completion_underflow_rejected(self, ctx):
        with pytest.raises(LapiError, match="underflow"):
            ctx.op_completed(1)

    def test_op_completed_notifies(self, ctx):
        ctx.op_issued(1)
        ev = ctx.progress_ws.wait()
        ctx.op_completed(1)
        assert ev.triggered


class TestMplRequests:
    def test_next_seq_per_destination(self):
        from repro.mpl.requests import MplContext
        ctx = MplContext(Simulator(), 0, 4)
        assert ctx.next_seq(1) == 0
        assert ctx.next_seq(1) == 1
        assert ctx.next_seq(2) == 0  # independent stream
