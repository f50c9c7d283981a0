"""Integration tests: LAPI_Amsend and the two-part handler model."""

import pytest

from repro.errors import LapiError
from repro.machine.config import SP_1998

from .conftest import run_spmd


class TestActiveMessages:
    def test_header_and_completion_flow(self, progress_mode):
        """The Figure 1 flow: header handler names the buffer, data
        lands, completion handler runs, counters fire at both ends."""
        payload = b"active message payload" * 4
        log = []

        def main(task):
            lapi = task.lapi
            buf = task.memory.malloc(1024)

            def hh(t, src, uhdr, udata_len):
                log.append(("hh", t.rank, src, bytes(uhdr), udata_len))
                def ch(t2, info):
                    log.append(("ch", t2.rank, info))
                return buf, ch, "my-info"

            hid = lapi.register_handler(hh)
            tgt = lapi.counter()
            yield from lapi.gfence()
            if task.rank == 0:
                cmpl = lapi.counter()
                org = lapi.counter()
                yield from lapi.amsend(1, hid, b"HDR", payload,
                                       len(payload), tgt_cntr=tgt.id,
                                       org_cntr=org, cmpl_cntr=cmpl)
                yield from lapi.waitcntr(cmpl, 1)
                yield from lapi.gfence()
                return "origin done"
            else:
                yield from lapi.waitcntr(tgt, 1)
                data = task.memory.read(buf, len(payload))
                yield from lapi.gfence()
                return data

        results = run_spmd(main, interrupt_mode=progress_mode)
        assert results[1] == payload
        assert ("hh", 1, 0, b"HDR", len(payload)) in log
        assert ("ch", 1, "my-info") in log

    def test_multi_packet_am_reassembles(self, progress_mode):
        n = SP_1998.lapi_payload * 3 + 200
        payload = bytes(i % 251 for i in range(n))

        def main(task):
            lapi = task.lapi
            buf = task.memory.malloc(n)

            def hh(t, src, uhdr, udata_len):
                return buf, None, None

            hid = lapi.register_handler(hh)
            tgt = lapi.counter()
            yield from lapi.gfence()
            if task.rank == 0:
                yield from lapi.amsend(1, hid, b"", payload, n,
                                       tgt_cntr=tgt.id)
                yield from lapi.fence()
            else:
                yield from lapi.waitcntr(tgt, 1)
                return task.memory.read(buf, n)

        assert run_spmd(main, interrupt_mode=progress_mode)[1] == payload

    def test_am_with_memory_source(self):
        """udata may be a local memory address (the faithful API)."""
        def main(task):
            lapi = task.lapi
            buf = task.memory.malloc(64)

            def hh(t, src, uhdr, udata_len):
                return buf, None, None

            hid = lapi.register_handler(hh)
            tgt = lapi.counter()
            yield from lapi.gfence()
            if task.rank == 0:
                src_addr = task.memory.malloc(64)
                task.memory.write(src_addr, b"Z" * 64)
                yield from lapi.amsend(1, hid, b"", src_addr, 64,
                                       tgt_cntr=tgt.id)
                yield from lapi.fence()
            else:
                yield from lapi.waitcntr(tgt, 1)
                return task.memory.read(buf, 64)

        assert run_spmd(main)[1] == b"Z" * 64

    def test_dataless_am_signals(self, progress_mode):
        seen = []

        def main(task):
            lapi = task.lapi

            def hh(t, src, uhdr, udata_len):
                seen.append((src, bytes(uhdr), udata_len))
                return None, None, None

            hid = lapi.register_handler(hh)
            tgt = lapi.counter()
            yield from lapi.gfence()
            if task.rank == 0:
                yield from lapi.amsend(1, hid, b"ping", None, 0,
                                       tgt_cntr=tgt.id)
                yield from lapi.fence()
            else:
                yield from lapi.waitcntr(tgt, 1)
            yield from lapi.gfence()

        run_spmd(main, interrupt_mode=progress_mode)
        assert seen == [(0, b"ping", 0)]

    def test_null_buffer_for_data_is_error(self):
        """Section 5.3.1: the header handler cannot return NULL when the
        message carries data."""
        def main(task):
            lapi = task.lapi

            def hh(t, src, uhdr, udata_len):
                return None, None, None  # illegal: message has data

            hid = lapi.register_handler(hh)
            yield from lapi.gfence()
            if task.rank == 0:
                yield from lapi.amsend(1, hid, b"", b"data", 4)
                yield from lapi.fence()
            yield from lapi.gfence()

        with pytest.raises(LapiError, match="no buffer"):
            run_spmd(main)

    def test_bad_handler_id_is_error(self):
        def main(task):
            lapi = task.lapi
            yield from lapi.gfence()
            if task.rank == 0:
                yield from lapi.amsend(1, 42, b"", None, 0)
                yield from lapi.fence()
            yield from lapi.gfence()

        with pytest.raises(LapiError, match="handler"):
            run_spmd(main)

    def test_completion_handler_can_communicate(self):
        """Completion handlers run on their own thread and may issue
        LAPI calls (GA's get protocol depends on this)."""
        def main(task):
            lapi = task.lapi
            inbox = task.memory.malloc(32)
            reply_buf = task.memory.malloc(32)
            done = lapi.counter()

            def hh(t, src, uhdr, udata_len):
                def ch(t2, info):
                    # Reply by putting back into rank 0's reply_buf.
                    yield from t2.lapi.put(info, 32, reply_buf, inbox,
                                           tgt_cntr=done.id)
                return inbox, ch, src

            lapi.register_handler(hh)
            yield from lapi.gfence()
            if task.rank == 0:
                yield from lapi.amsend(1, 0, b"", b"x" * 32, 32)
                yield from lapi.waitcntr(done, 1)
                data = task.memory.read(reply_buf, 32)
                yield from lapi.gfence()
                return data
            yield from lapi.gfence()

        assert run_spmd(main)[0] == b"x" * 32

    def test_concurrent_streams_interleave(self, progress_mode):
        """Multiple independent AM streams may be in flight at once;
        each reassembles correctly despite interleaving."""
        n = SP_1998.lapi_payload * 2 + 31
        streams = 5

        def main(task):
            lapi = task.lapi
            bufs = [task.memory.malloc(n) for _ in range(streams)]

            def hh(t, src, uhdr, udata_len):
                idx = uhdr[0]
                return bufs[idx], None, None

            hid = lapi.register_handler(hh)
            tgt = lapi.counter()
            yield from lapi.gfence()
            if task.rank == 0:
                for i in range(streams):
                    data = bytes([i + 1]) * n
                    yield from lapi.amsend(1, hid, bytes([i]), data, n,
                                           tgt_cntr=tgt.id)
                yield from lapi.fence()
            else:
                yield from lapi.waitcntr(tgt, streams)
                return [task.memory.read(b, n) for b in bufs]

        results = run_spmd(main, interrupt_mode=progress_mode)
        for i, blob in enumerate(results[1]):
            assert blob == bytes([i + 1]) * n

    def test_uhdr_size_limit_enforced(self):
        def main(task):
            lapi = task.lapi
            hid = lapi.register_handler(lambda *a: (None, None, None))
            yield from lapi.gfence()
            if task.rank == 0:
                big = b"u" * (SP_1998.lapi_uhdr_max + 1)
                try:
                    yield from lapi.amsend(1, hid, big, None, 0)
                except LapiError:
                    yield from lapi.gfence()
                    return "rejected"
            yield from lapi.gfence()

        assert run_spmd(main)[0] == "rejected"

    def test_am_to_self(self):
        def main(task):
            lapi = task.lapi
            buf = task.memory.malloc(16)
            ran = []

            def hh(t, src, uhdr, udata_len):
                def ch(t2, info):
                    ran.append(info)
                return buf, ch, "local"

            hid = lapi.register_handler(hh)
            tgt = lapi.counter()
            yield from lapi.amsend(task.rank, hid, b"", b"A" * 16, 16,
                                   tgt_cntr=tgt.id)
            yield from lapi.waitcntr(tgt, 1)
            return task.memory.read(buf, 16), ran

        data, ran = run_spmd(main, nnodes=1)[0]
        assert data == b"A" * 16
        assert ran == ["local"]


class TestArgumentChecks:
    """A bad amsend is rejected before it costs anything: no charged
    time, no ``stats.amsends``, no message id, for a remote and a local
    target alike."""

    BAD = {
        "oversized uhdr": (b"u" * (SP_1998.lapi_uhdr_max + 1), None, 0),
        "uhdr of 4000 bytes": (b"u" * 4000, None, 0),
        "no udata for udata_len": (b"h", None, 8),
        "short udata": (b"h", b"1234", 8),
        "negative udata_len": (b"h", None, -1),
    }

    @pytest.mark.parametrize("case", sorted(BAD))
    @pytest.mark.parametrize("where", ["peer", "self"])
    def test_rejected_before_any_charge(self, case, where):
        uhdr, udata, udata_len = self.BAD[case]

        def main(task):
            lapi = task.lapi
            buf = task.memory.malloc(64)
            hid = lapi.register_handler(lambda t, src, u, n:
                                        (buf, None, None))
            yield from lapi.gfence()
            if task.rank == 0:
                target = 1 if where == "peer" else 0
                before = (task.now(), lapi.stats.amsends,
                          lapi.ctx.new_msg_id())
                with pytest.raises(LapiError):
                    yield from lapi.amsend(target, hid, uhdr, udata,
                                           udata_len)
                after = (task.now(), lapi.stats.amsends,
                         lapi.ctx.new_msg_id() - 1)
                assert after == before
            yield from lapi.gfence()

        run_spmd(main)
