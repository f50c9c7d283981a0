"""Flight recorder: bounded rings, trigger dedup, deterministic dumps."""

from repro.obs import FlightRecorder, write_flight_jsonl
from repro.obs.flight import MAX_DUMPS, RING_ENTRIES


class FakeSim:
    def __init__(self):
        self.now = 0.0


def make_recorder():
    sim = FakeSim()
    return sim, FlightRecorder(sim)


class TestNotes:
    def test_ring_keeps_only_the_trailing_entries(self):
        sim, fr = make_recorder()
        total = RING_ENTRIES + 3
        for i in range(total):
            sim.now = float(i)
            fr.note(0, "sub", f"e{i}")
        fr.trigger("test")
        entries = fr.dumps[0]["entries"]
        assert [e["event"] for e in entries] \
            == [f"e{i}" for i in range(3, total)]
        assert fr.notes_total == total

    def test_entries_merge_across_nodes_in_sim_order(self):
        sim, fr = make_recorder()
        fr.note(1, "sub", "a")
        fr.note(0, "sub", "b")
        fr.note(1, "sub", "c")
        fr.trigger("test")
        entries = fr.dumps[0]["entries"]
        assert [e["event"] for e in entries] == ["a", "b", "c"]
        assert [e["seq"] for e in entries] == [1, 2, 3]

    def test_note_fields_and_timestamps_pass_through(self):
        sim, fr = make_recorder()
        sim.now = 123.4567
        fr.note(2, "core.reliability", "retransmit", peer=1, pkt_seq=9)
        fr.trigger("test")
        (entry,) = fr.dumps[0]["entries"]
        assert entry["t_us"] == 123.457
        assert entry["node"] == 2 and entry["peer"] == 1
        assert entry["pkt_seq"] == 9
        assert entry["event"] == "retransmit"

    def test_reserved_keys_win_over_caller_fields(self):
        # "seq" is the global merge key: a caller field must not
        # clobber it (a packet sequence rides under another name).
        sim, fr = make_recorder()
        sim.now = 5.0
        fr.note(0, "sub", "e", seq=999, t_us=-1.0)
        fr.trigger("test")
        (entry,) = fr.dumps[0]["entries"]
        assert entry["seq"] == 1
        assert entry["t_us"] == 5.0


class TestTriggers:
    def test_key_dedup_fires_once(self):
        _, fr = make_recorder()
        assert fr.trigger("fault", key=("fault", "ge")) is True
        assert fr.trigger("fault", key=("fault", "ge")) is False
        assert fr.trigger("fault", key=("fault", "outage")) is True
        assert len(fr.dumps) == 2
        assert fr.suppressed == 1

    def test_max_dumps_cap(self):
        _, fr = make_recorder()
        for i in range(MAX_DUMPS + 3):
            fr.trigger("r", key=("k", i))
        assert len(fr.dumps) == MAX_DUMPS
        assert fr.suppressed == 3

    def test_dump_detail_is_sorted_and_coerced(self):
        _, fr = make_recorder()
        fr.trigger("r", zulu=1, alpha=2)
        detail = fr.dumps[0]["detail"]
        assert list(detail) == ["alpha", "zulu"]

    def test_dumps_snapshot_rings_at_trigger_time(self):
        sim, fr = make_recorder()
        fr.note(0, "sub", "before")
        fr.trigger("r")
        fr.note(0, "sub", "after")
        assert [e["event"] for e in fr.dumps[0]["entries"]] == ["before"]


class TestJsonl:
    def test_write_is_deterministic(self, tmp_path):
        def build():
            sim, fr = make_recorder()
            sim.now = 10.0
            fr.note(0, "faults", "drop.ge", dst=1, uid=7)
            fr.note(1, "core.reliability", "retransmit", peer=0)
            fr.trigger("fault-engaged", key=("fault", "ge"),
                       verdict="ge", src=0, dst=1)
            return fr.dump_dicts()

        p1, p2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        assert write_flight_jsonl(build(), str(p1)) == 1
        assert write_flight_jsonl(build(), str(p2)) == 1
        assert p1.read_bytes() == p2.read_bytes()
        line = p1.read_text().splitlines()[0]
        assert line.startswith('{"detail":{"dst":1,"src":0,'
                               '"verdict":"ge"}')

    def test_empty_dump_list_writes_empty_file(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        assert write_flight_jsonl([], str(path)) == 0
        assert path.read_bytes() == b""
