"""Property-based tests for vector packetization and reliability."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.constants import PacketKind
from repro.core.protocol import (VECTOR_SUBHEADER, strided_packet_count,
                                 strided_packets)
from repro.machine.config import SP_1998


def _packets(cfg, runs, data):
    """Every packet of a strided put, built in order as a sender does."""
    packets = list(strided_packets(0, 1, 1, PacketKind.MSG_PUT, data,
                                   runs, cfg, 100))
    assert len(packets) == strided_packet_count(runs, cfg)
    assert [p.uid for p in packets] == list(range(100,
                                                  100 + len(packets)))
    return packets


@given(st.lists(st.integers(min_value=1, max_value=3000), min_size=1,
                max_size=20))
@settings(max_examples=60)
def test_vector_packets_cover_all_runs_exactly(lengths):
    """Every byte of every run appears exactly once, in order, and no
    packet exceeds the wire limit."""
    cfg = SP_1998
    # Non-overlapping destination runs, spaced apart.
    addr = 0
    runs = []
    blobs = []
    for n in lengths:
        runs.append((addr, n))
        blobs.append(bytes((addr + i) % 251 for i in range(n)))
        addr += n + 64

    packets = _packets(cfg, runs, b"".join(blobs))
    # Wire-size invariant.
    for p in packets:
        assert p.size <= cfg.packet_size
        assert p.header_bytes == cfg.lapi_header + \
            VECTOR_SUBHEADER * len(p.info["runs"])
    # Reassemble and compare byte-for-byte.
    out = bytearray(addr)
    seen = 0
    for p in packets:
        pos = 0
        for a, length in p.info["runs"]:
            out[a:a + length] = p.payload[pos:pos + length]
            pos += length
            seen += length
    assert seen == sum(lengths)
    for (a, n), blob in zip(runs, blobs):
        assert bytes(out[a:a + n]) == blob


@given(st.integers(min_value=1, max_value=4))
def test_vector_packets_tiny_runs_pack_densely(scale):
    """Many tiny runs share packets instead of one packet per run."""
    cfg = SP_1998
    count = 40 * scale
    runs = [(i * 16, 8) for i in range(count)]

    packets = _packets(cfg, runs, bytes(8 * count))
    per_packet = (cfg.packet_size - cfg.lapi_header) // \
        (VECTOR_SUBHEADER + 8)
    assert len(packets) <= count // per_packet + 1


class TestReliabilityProperties:
    @given(seqs=st.permutations(list(range(30))))
    @settings(max_examples=40)
    def test_dedup_exactly_once_under_any_order(self, seqs):
        from repro.core.reliability import _PeerRx
        rx = _PeerRx()
        delivered = [s for s in seqs if rx.fresh(s)]
        assert sorted(delivered) == list(range(30))
        # Replays never deliver again.
        assert not any(rx.fresh(s) for s in seqs)

    @given(st.lists(st.integers(0, 99), min_size=1, max_size=300))
    @settings(max_examples=40)
    def test_dedup_with_duplicates(self, seqs):
        from repro.core.reliability import _PeerRx
        rx = _PeerRx()
        delivered = [s for s in seqs if rx.fresh(s)]
        assert sorted(delivered) == sorted(set(seqs))


class TestCpuExclusionProperty:
    @given(st.lists(st.tuples(st.floats(0.5, 5.0), st.integers(0, 2)),
                    min_size=2, max_size=10))
    @settings(max_examples=30)
    def test_execute_intervals_never_overlap(self, jobs):
        """No two threads' execute() windows may overlap on one CPU."""
        from repro.machine import Cpu
        from repro.machine.config import SP_1998
        from repro.sim import Simulator

        sim = Simulator()
        cpu = Cpu(sim, 0, SP_1998)
        spans = []

        def body(cost, prio):
            def run(thread):
                start = sim.now
                yield from thread.execute(cost)
                spans.append((start, sim.now))
            return run

        threads = [cpu.spawn(body(c, p), priority=p) for c, p in jobs]
        sim.run_until_complete(sim.all_of([t.process for t in threads]))
        spans.sort()
        for (s1, e1), (s2, e2) in zip(spans, spans[1:]):
            assert e1 <= s2 + 1e-9, f"overlap: {(s1, e1)} vs {(s2, e2)}"
