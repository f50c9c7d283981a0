"""Property-based tests for MPL packetization and matching."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.machine.config import SP_1998
from repro.machine.packet import packet_count
from repro.mpl import ANY_SOURCE, ANY_TAG
from repro.mpl.matching import MatchEngine, MessageState, RecvRequest
from repro.mpl.protocol import cts_packet, data_packets, rts_packet


class TestDataPacketsProperties:
    @given(st.integers(0, 3 * SP_1998.mpl_payload),
           st.integers(0, 1 << 20), st.booleans())
    @settings(max_examples=60)
    def test_roundtrip_and_envelope(self, n, tag, rndv):
        data = bytes(i % 251 for i in range(n))
        pkts = list(data_packets(0, 1, 7, tag, data, rndv, SP_1998, 50))
        assert len(pkts) == packet_count(n, SP_1998.mpl_payload)
        assert [p.uid for p in pkts] == list(range(50, 50 + len(pkts)))
        # Exactly one envelope, on the first packet.
        firsts = [p for p in pkts if p.info.get("is_first")]
        assert len(firsts) == 1
        assert firsts[0] is pkts[0]
        assert firsts[0].info["tag"] == tag
        assert firsts[0].info["total"] == n
        assert firsts[0].info["is_rndv"] == rndv
        # Offsets partition the payload exactly.
        buf = bytearray(n)
        for p in pkts:
            p.validate(SP_1998.packet_size)
            off = p.info["offset"]
            buf[off:off + len(p.payload)] = p.payload
        assert bytes(buf) == data

    def test_control_packets(self):
        rts = rts_packet(SP_1998, 0, 1, 5, 9, 100000)
        assert rts.kind == "rts"
        assert rts.info["total"] == 100000
        cts = cts_packet(SP_1998, 1, 0, 5)
        assert cts.kind == "cts"
        assert cts.payload == b""


def _env(src, seq, tag=1, total=10):
    m = MessageState(src, seq)
    m.set_envelope(tag, total, False)
    return m


class TestMatchingStateful:
    """Randomized interleavings of posts and arrivals preserve the
    matching invariants: every message matches at most one receive,
    wildcards respect arrival/post order, nothing is lost."""

    @given(st.data())
    @settings(max_examples=60)
    def test_random_interleaving(self, data):
        eng = MatchEngine(0)
        n_msgs = data.draw(st.integers(1, 12))
        tags = [data.draw(st.integers(0, 2)) for _ in range(n_msgs)]
        arrival_order = data.draw(st.permutations(range(n_msgs)))

        matched_pairs = []
        posted = []
        pending_msgs = list(arrival_order)

        steps = data.draw(st.integers(n_msgs, 3 * n_msgs))
        for _ in range(steps):
            do_post = data.draw(st.booleans())
            if do_post and len(posted) < n_msgs:
                tag = data.draw(st.sampled_from([ANY_TAG, 0, 1, 2]))
                req = RecvRequest(ANY_SOURCE, tag, None, 1 << 20)
                posted.append(req)
                hit = eng.post_recv(req)
                if hit is not None:
                    matched_pairs.append((hit, req))
            elif pending_msgs:
                seq = pending_msgs.pop(0)
                msg = _env(src=0, seq=seq, tag=tags[seq])
                for env in eng.admit_envelope(msg):
                    req = eng.match_arrival(env)
                    if req is not None:
                        matched_pairs.append((env, req))

        # Invariant 1: a message matches at most one request & vice
        # versa.
        msgs = [m for m, _ in matched_pairs]
        reqs = [r for _, r in matched_pairs]
        assert len(set(map(id, msgs))) == len(msgs)
        assert len(set(map(id, reqs))) == len(reqs)
        # Invariant 2: matched tags are compatible.
        for m, r in matched_pairs:
            assert r.tag == ANY_TAG or r.tag == m.tag
        # Invariant 3: conservation -- everything is matched, queued
        # unexpected, parked behind a gap, or never arrived.
        parked = sum(len(s.parked) for s in eng._streams.values())
        accounted = (len(matched_pairs) + len(eng.unexpected)
                     + parked + len(pending_msgs))
        assert accounted == n_msgs

    @given(st.permutations(list(range(8))))
    def test_in_order_matching_regardless_of_arrival(self, order):
        """With wildcard receives pre-posted, messages match in SEND
        order even under arbitrary arrival order."""
        eng = MatchEngine(0)
        reqs = []
        for _ in range(8):
            r = RecvRequest(ANY_SOURCE, ANY_TAG, None, 1 << 20)
            eng.post_recv(r)
            reqs.append(r)
        for seq in order:
            msg = _env(src=3, seq=seq, tag=seq)
            for env in eng.admit_envelope(msg):
                eng.match_arrival(env)
        # Request k received the message with send-sequence k.
        for k, r in enumerate(reqs):
            assert r.message is not None
            assert r.message.msg_id == k
