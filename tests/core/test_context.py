"""Unit tests for LAPI context state containers."""

import pytest

from repro.core.constants import PacketKind
from repro.core.context import (LapiContext, RecvAssembly, RmwPending,
                                SendState)
from repro.errors import LapiError
from repro.sim import Simulator


@pytest.fixture
def ctx():
    return LapiContext(Simulator(), rank=0, size=4)


class TestSendState:
    def test_completion_via_acks(self):
        st = SendState(1, 2, total_packets=3, org_cntr=None)
        fired = []
        st.on_complete = lambda: fired.append(True)
        st.ack_one()
        st.ack_one()
        assert not st.complete and not fired
        st.ack_one()
        assert st.complete
        assert fired == [True]

    def test_single_packet_message(self):
        st = SendState(1, 2, total_packets=1, org_cntr=None)
        st.on_complete = lambda: None
        st.ack_one()
        assert st.complete


class TestRecvAssembly:
    def test_put_assembly_completion(self):
        asm = RecvAssembly(src=1, msg_id=5, mtype="put", total_len=100)
        asm.hdr_seen = True
        asm.received = 99
        assert not asm.complete
        asm.received = 100
        assert asm.complete

    def test_incomplete_without_header(self):
        asm = RecvAssembly(src=1, msg_id=5, mtype="am", total_len=0)
        assert not asm.complete  # header not seen yet
        asm.hdr_seen = True
        assert asm.complete

    def test_stash_holds_early_packets(self):
        asm = RecvAssembly(src=1, msg_id=5, mtype="am", total_len=64)
        asm.stash.append((32, b"late-half"))
        assert len(asm.stash) == 1
        assert not asm.complete


class TestPendings:
    def test_get_pending(self):
        """A get's reply is assembled like a put, under a key of its
        own: a put from the same peer with the same message id never
        shares its entry."""
        p = RecvAssembly(2, 1, PacketKind.MSG_GET_REP, 10, buf_addr=100)
        put = RecvAssembly(2, 1, PacketKind.MSG_PUT, 10)
        assert p.key != put.key
        assert not p.complete
        p.received = 10
        assert p.complete

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
    def test_send_request_ack_completion(self):
        from repro.mpl.requests import SendRequest
        req = SendRequest(1, 0, 100, "eager-direct")
        req.total_packets = 2
        assert not req.ack_one()
        assert req.ack_one()  # completes on the last ack
        assert req.complete

    def test_buffered_request_already_complete(self):
        from repro.mpl.requests import SendRequest
        req = SendRequest(1, 0, 100, "eager-buffered")
        req.total_packets = 2
        req.complete = True
        assert not req.ack_one()  # acks don't "re-complete"
        assert not req.ack_one()

    def test_next_seq_per_destination(self):
        from repro.mpl.requests import MplContext
        ctx = MplContext(Simulator(), 0, 4)
        assert ctx.next_seq(1) == 0
        assert ctx.next_seq(1) == 1
        assert ctx.next_seq(2) == 0  # independent stream
