"""Error-path tests: malformed handlers and packets fail loudly."""

import pytest

from repro.errors import LapiError
from repro.machine import Cluster, Packet


def _header_handler_returning(reply, total_len):
    """Run the dispatcher's header-handler step for a handler that
    returns ``reply`` to a message of ``total_len`` bytes."""
    def main(task):
        lapi = task.lapi
        hid = lapi.register_handler(lambda *args: reply)
        return (yield from lapi.dispatcher.header_handler(
            task.thread, 0, hid, b"", total_len))

    return Cluster(nnodes=1).run_job(main, stacks=("lapi",))[0]


class TestHeaderHandlerContract:
    def test_non_tuple_reply_rejected(self):
        with pytest.raises(LapiError, match="must return"):
            _header_handler_returning("not a tuple", 10)

    def test_wrong_arity_rejected(self):
        with pytest.raises(LapiError, match="must return"):
            _header_handler_returning((1, 2), 10)

    def test_null_buffer_with_data_rejected(self):
        with pytest.raises(LapiError, match="no buffer"):
            _header_handler_returning((None, None, None), 10)

    def test_null_buffer_without_data_ok(self):
        buf, fn, info = _header_handler_returning((None, None, "i"), 0)
        assert (buf, fn, info) == (None, None, "i")


class TestMalformedPackets:
    def _run_with_injected(self, kind, info, mtype=None):
        """Inject one crafted packet at rank 1 and run a LAPI job."""
        def main(task):
            lapi = task.lapi
            yield from lapi.gfence()
            if task.rank == 0:
                pkt = Packet(src=0, dst=1, proto="lapi", kind=kind,
                             header_bytes=48,
                             info=dict(info, **({"mtype": mtype}
                                                if mtype else {})))
                # Bypass the API: hand the raw packet to the transport.
                lapi.transport.send_control(pkt)
                yield from task.thread.sleep(200.0)
            yield from lapi.gfence()

        Cluster(nnodes=2).run_job(main, stacks=("lapi",))

    def test_unknown_kind_raises(self):
        with pytest.raises(LapiError, match="unknown packet kind"):
            self._run_with_injected("bogus", {})

    def test_unknown_mtype_raises(self):
        with pytest.raises(LapiError, match="unknown data mtype"):
            self._run_with_injected("data", {"msg_id": 1, "total": 0},
                                    mtype="mystery")

    def test_get_reply_for_unknown_message_raises(self):
        with pytest.raises(LapiError, match="unknown msg"):
            self._run_with_injected(
                "data", {"msg_id": 12345, "offset": 0, "total": 4},
                mtype="get_rep")

    def test_rmw_reply_for_unknown_request_raises(self):
        with pytest.raises(LapiError, match="unknown request"):
            self._run_with_injected("rmw_rep",
                                    {"req_id": 999, "prev_value": 0})


class TestCompletionHandlerFailure:
    def test_exception_in_completion_handler_surfaces(self):
        """A crashing completion handler kills the job with its error
        (not a silent hang)."""
        def main(task):
            lapi = task.lapi
            buf = task.memory.malloc(16)

            def hh(t, src, uhdr, udata_len):
                def ch(t2, info):
                    raise RuntimeError("handler exploded")
                return buf, ch, None

            hid = lapi.register_handler(hh)
            yield from lapi.gfence()
            if task.rank == 0:
                yield from lapi.amsend(1, hid, b"", b"x" * 8, 8)
                yield from lapi.fence()
            yield from lapi.gfence()

        with pytest.raises(RuntimeError, match="handler exploded"):
            Cluster(nnodes=2).run_job(main, stacks=("lapi",))

    def test_exception_in_header_handler_surfaces(self):
        def main(task):
            lapi = task.lapi

            def hh(t, src, uhdr, udata_len):
                raise ValueError("header handler bug")

            hid = lapi.register_handler(hh)
            yield from lapi.gfence()
            if task.rank == 0:
                yield from lapi.amsend(1, hid, b"", None, 0)
                yield from lapi.fence()
            yield from lapi.gfence()

        with pytest.raises(ValueError, match="header handler bug"):
            Cluster(nnodes=2).run_job(main, stacks=("lapi",))
