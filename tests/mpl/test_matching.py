"""Unit tests for the MPL matching engine (no simulation needed)."""

import pytest

from repro.errors import MplError
from repro.mpl import ANY_SOURCE, ANY_TAG
from repro.mpl.constants import ReservedTag
from repro.mpl.matching import MatchEngine, MessageState, RecvRequest


def env(src=0, seq=0, tag=1, total=10, rndv=False):
    m = MessageState(src, seq)
    m.set_envelope(tag, total, rndv)
    return m


class TestEnvelopeOrdering:
    def test_in_order_admission(self):
        eng = MatchEngine(0)
        assert [m.msg_id for m in eng.admit_envelope(env(seq=0))] == [0]
        assert [m.msg_id for m in eng.admit_envelope(env(seq=1))] == [1]

    def test_gap_parks_envelope(self):
        eng = MatchEngine(0)
        assert eng.admit_envelope(env(seq=1)) == []
        assert eng.envelopes_parked == 1
        ready = eng.admit_envelope(env(seq=0))
        assert [m.msg_id for m in ready] == [0, 1]

    def test_large_scramble_restores_order(self):
        eng = MatchEngine(0)
        order = [4, 1, 3, 0, 2]
        released = []
        for seq in order:
            released += [m.msg_id for m in eng.admit_envelope(env(seq=seq))]
        assert released == [0, 1, 2, 3, 4]

    def test_per_source_independence(self):
        eng = MatchEngine(0)
        assert eng.admit_envelope(env(src=1, seq=1)) == []
        # Source 2's stream is unaffected by source 1's gap.
        assert len(eng.admit_envelope(env(src=2, seq=0))) == 1

    def test_duplicate_admission_rejected(self):
        eng = MatchEngine(0)
        eng.admit_envelope(env(seq=0))
        with pytest.raises(MplError):
            eng.admit_envelope(env(seq=0))


class TestMatching:
    def test_posted_receive_matches(self):
        eng = MatchEngine(0)
        req = RecvRequest(0, 1, addr=None, maxlen=100)
        assert eng.post_recv(req) is None
        m = env(src=0, tag=1)
        got = eng.match_arrival(m)
        assert got is req
        assert m.recv_req is req
        assert req.received_src == 0

    def test_unmatched_goes_unexpected(self):
        eng = MatchEngine(0)
        m = env()
        assert eng.match_arrival(m) is None
        assert m in eng.unexpected

    def test_post_recv_finds_unexpected(self):
        eng = MatchEngine(0)
        m = env(src=3, tag=9)
        eng.match_arrival(m)
        req = RecvRequest(3, 9, None, 100)
        assert eng.post_recv(req) is m
        assert eng.matched_unexpected == 1

    def test_wildcard_source(self):
        eng = MatchEngine(0)
        req = RecvRequest(ANY_SOURCE, 5, None, 100)
        eng.post_recv(req)
        assert eng.match_arrival(env(src=7, tag=5)) is req

    def test_wildcard_tag(self):
        eng = MatchEngine(0)
        req = RecvRequest(2, ANY_TAG, None, 100)
        eng.post_recv(req)
        assert eng.match_arrival(env(src=2, tag=77)) is req

    def test_wildcard_tag_skips_reserved_tags(self):
        eng = MatchEngine(0)
        req = RecvRequest(ANY_SOURCE, ANY_TAG, None, 100)
        eng.post_recv(req)
        barrier = env(src=2, tag=ReservedTag.BARRIER)
        assert eng.match_arrival(barrier) is None
        assert barrier in eng.unexpected
        assert eng.match_arrival(env(src=2, seq=1, tag=0)) is req

    def test_non_matching_tag_skipped(self):
        eng = MatchEngine(0)
        req = RecvRequest(0, 5, None, 100)
        eng.post_recv(req)
        m = env(src=0, tag=6)
        assert eng.match_arrival(m) is None
        assert req in eng.posted

    def test_posted_queue_fifo(self):
        eng = MatchEngine(0)
        r1 = RecvRequest(ANY_SOURCE, ANY_TAG, None, 100)
        r2 = RecvRequest(ANY_SOURCE, ANY_TAG, None, 100)
        eng.post_recv(r1)
        eng.post_recv(r2)
        assert eng.match_arrival(env()) is r1
        assert eng.match_arrival(env(seq=1)) is r2

    def test_unexpected_queue_fifo(self):
        eng = MatchEngine(0)
        m1, m2 = env(seq=0), env(seq=1)
        eng.match_arrival(m1)
        eng.match_arrival(m2)
        req = RecvRequest(ANY_SOURCE, ANY_TAG, None, 100)
        assert eng.post_recv(req) is m1

    def test_truncation_is_error(self):
        eng = MatchEngine(0)
        req = RecvRequest(0, 1, None, maxlen=4)
        eng.post_recv(req)
        with pytest.raises(MplError, match="overflow"):
            eng.match_arrival(env(total=10))


class TestRcvncall:
    def test_handler_catches_unmatched(self):
        eng = MatchEngine(0)
        fn = lambda *a: None
        eng.register_rcvncall(42, fn)
        m = env(tag=42)
        assert eng.match_arrival(m) is None
        assert m.rcvncall_fn is fn
        assert m not in eng.unexpected

    def test_posted_recv_wins_over_rcvncall(self):
        eng = MatchEngine(0)
        eng.register_rcvncall(42, lambda *a: None)
        req = RecvRequest(ANY_SOURCE, 42, None, 100)
        eng.post_recv(req)
        m = env(tag=42)
        assert eng.match_arrival(m) is req
        assert m.rcvncall_fn is None

    def test_duplicate_registration_rejected(self):
        eng = MatchEngine(0)
        eng.register_rcvncall(1, lambda *a: None)
        with pytest.raises(MplError):
            eng.register_rcvncall(1, lambda *a: None)
