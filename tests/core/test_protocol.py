"""Unit + property tests for LAPI packetization.

The builders yield a message's packets in index order, the way the
sender consumes them; ``_put``/``_am``/``_reply`` collect every packet
of a message, so each test sees the whole message."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.constants import PacketKind
from repro.core.protocol import (am_first_room, am_packets, control_packet,
                                 data_packets)
from repro.errors import LapiError
from repro.machine.config import SP_1998
from repro.machine.packet import packet_count

CHUNK = SP_1998.lapi_payload
HEADER = SP_1998.lapi_header


def _put(msg_id, data, tgt_addr, tgt_cntr_id, cmpl_cntr_id):
    pkts = list(data_packets(0, 1, msg_id, PacketKind.MSG_PUT, data,
                             SP_1998, 100, tgt_addr=tgt_addr,
                             tgt_cntr_id=tgt_cntr_id,
                             cmpl_cntr_id=cmpl_cntr_id))
    # The sender reserves this many uids before the first is built.
    assert len(pkts) == packet_count(len(data), CHUNK)
    return pkts


def _am(msg_id, handler_id, uhdr, data):
    room = am_first_room(SP_1998, uhdr)
    pkts = list(am_packets(0, 1, msg_id, handler_id, uhdr, data, room,
                           SP_1998, 100, tgt_cntr_id=None,
                           cmpl_cntr_id=None))
    assert len(pkts) == packet_count(len(uhdr) + len(data), CHUNK)
    return pkts


def _reply(msg_id, data):
    pkts = list(data_packets(1, 0, msg_id, PacketKind.MSG_GET_REP, data,
                             SP_1998, 100))
    assert len(pkts) == packet_count(len(data), CHUNK)
    return pkts


class TestPutPackets:
    def test_empty_put_sends_one_packet(self):
        pkts = _put(7, b"", 100, None, None)
        assert len(pkts) == 1
        assert pkts[0].uid == 100
        assert pkts[0].payload == b""
        assert pkts[0].info["total"] == 0

    def test_single_packet_put(self):
        pkts = _put(7, b"x" * 100, 100, 3, 4)
        assert len(pkts) == 1
        p = pkts[0]
        assert p.info["tgt_addr"] == 100
        assert p.info["tgt_cntr_id"] == 3
        assert p.info["cmpl_cntr_id"] == 4
        assert p.header_bytes == SP_1998.lapi_header

    def test_multi_packet_split(self):
        n = SP_1998.lapi_payload * 3 + 10
        pkts = _put(7, b"a" * n, 0, None, None)
        assert len(pkts) == 4
        assert [p.uid for p in pkts] == [100, 101, 102, 103]
        assert sum(len(p.payload) for p in pkts) == n
        offsets = [p.info["offset"] for p in pkts]
        assert offsets == sorted(offsets)
        assert offsets[0] == 0

    def test_every_packet_self_describing(self):
        # One-sided semantics: any packet alone carries enough to place
        # its bytes (this is what the 48-byte header pays for).
        n = SP_1998.lapi_payload * 2 + 5
        for p in _put(9, b"b" * n, 555, 1, None):
            assert p.info["tgt_addr"] == 555
            assert p.info["total"] == n
            assert "offset" in p.info

    def test_all_packets_fit_wire(self):
        n = SP_1998.lapi_payload * 2 + 5
        for p in _put(9, b"c" * n, 0, None, None):
            p.validate(SP_1998.packet_size)

    @given(st.integers(min_value=0, max_value=5 * SP_1998.lapi_payload))
    def test_reassembly_roundtrip(self, n):
        data = bytes(i % 251 for i in range(n))
        pkts = _put(1, data, 0, None, None)
        buf = bytearray(n)
        for p in pkts:
            off = p.info["offset"]
            buf[off:off + len(p.payload)] = p.payload
        assert bytes(buf) == data


class TestAmPackets:
    def test_uhdr_rides_first_packet(self):
        pkts = _am(3, 0, b"H" * 40, b"d" * 10)
        assert len(pkts) == 1
        p = pkts[0]
        assert p.info["is_first"]
        assert p.info["uhdr"] == b"H" * 40
        assert p.header_bytes == SP_1998.lapi_header + 40

    def test_uhdr_too_large_rejected(self):
        big = b"x" * (SP_1998.lapi_uhdr_max + 1)
        with pytest.raises(LapiError, match="uhdr"):
            am_first_room(SP_1998, big)

    def test_first_packet_room_shrinks_with_uhdr(self):
        uhdr = b"u" * 100
        data = b"d" * SP_1998.packet_size  # forces a split
        pkts = _am(3, 0, uhdr, data)
        first_room = SP_1998.packet_size - SP_1998.lapi_header - 100
        assert len(pkts[0].payload) == first_room
        assert not pkts[1].info["is_first"]
        assert "uhdr" not in pkts[1].info

    def test_dataless_am_single_packet(self):
        pkts = _am(3, 2, b"req", b"")
        assert len(pkts) == 1
        assert pkts[0].payload == b""
        assert pkts[0].info["handler_id"] == 2

    def test_am_payload_900ish_fits_one_packet(self):
        # Section 5.3.1: GA sends ~900-byte chunks in single AMs.
        data = b"z" * SP_1998.am_uhdr_payload
        uhdr = b"u" * SP_1998.lapi_uhdr_max
        pkts = _am(3, 0, uhdr, data)
        assert len(pkts) == 1
        pkts[0].validate(SP_1998.packet_size)

    @given(st.integers(min_value=0, max_value=3 * SP_1998.lapi_payload),
           st.integers(min_value=0, max_value=SP_1998.lapi_uhdr_max))
    def test_am_reassembly_roundtrip(self, n, uh):
        data = bytes(i % 249 for i in range(n))
        pkts = _am(1, 0, b"h" * uh, data)
        buf = bytearray(n)
        for p in pkts:
            p.validate(SP_1998.packet_size)
            off = p.info["offset"]
            buf[off:off + len(p.payload)] = p.payload
        assert bytes(buf) == data
        # No packet past the first is empty: the count is exact.
        assert all(p.payload for p in pkts[1:])


class TestGetReplyAndControl:
    def test_get_reply_roundtrip(self):
        n = SP_1998.lapi_payload + 17
        data = bytes(range(256)) * (n // 256 + 1)
        data = data[:n]
        pkts = _reply(5, data)
        assert len(pkts) == 2
        assert all(p.info["mtype"] == PacketKind.MSG_GET_REP for p in pkts)

    def test_control_packet_kinds(self):
        p = control_packet(SP_1998, 0, 1, PacketKind.CMPL, cntr_id=4)
        assert p.kind == PacketKind.CMPL
        assert p.info["cntr_id"] == 4
        assert p.payload == b""

    def test_control_rejects_data_kind(self):
        with pytest.raises(LapiError):
            control_packet(SP_1998, 0, 1, PacketKind.DATA)
