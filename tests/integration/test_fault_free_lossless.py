"""A fault-free run loses nothing.

Runs the ``--quick`` Figure 3 and Figure 4 sweeps (GA put and get at
512 B, 8 KiB, 128 KiB and 2 MiB; LAPI and MPL; 1-D and 2-D) on a
fabric with no fault schedule, and reads every finished cluster:

* no adapter ever drops a packet from a full RX FIFO;
* no LAPI data packet is ever retransmitted.

What is still retransmitted is pinned exactly.  Every one of those
acknowledgements came late because the receiving node's CPU was held
longer than the 2 ms retransmission timeout by one thread that never
blocked: node 0's user thread through a GA put loop (LAPI control
packets toward it), node 0's user thread and node 3's ``rcvncall``
handler through a 2 MiB MPL put.  The CPU model is non-preemptive, so
the interrupt thread that would acknowledge waits for the CPU.
"""

from collections import Counter

from repro.bench import ga_putget
from repro.core.constants import PacketKind
from repro.core.reliability import ReliableTransport

QUICK_SIZES = [512, 8192, 131072, 2097152]

#: Retransmissions per cluster, ``(proto, kind, src, dst) -> count``;
#: every cluster not named retransmits nothing.
RESIDUAL = {
    ("fig3", "lapi", "2d", 8192): {
        ("lapi", "cmpl", 1, 0): 1, ("lapi", "cmpl", 2, 0): 1,
        ("lapi", "barrier", 2, 0): 1, ("lapi", "barrier", 3, 0): 1},
    ("fig3", "lapi", "2d", 131072): {
        ("lapi", "cmpl", 1, 0): 12, ("lapi", "cmpl", 2, 0): 10,
        ("lapi", "cmpl", 3, 0): 9, ("lapi", "barrier", 2, 0): 12,
        ("lapi", "barrier", 3, 0): 12},
    ("fig3", "lapi", "2d", 2097152): {
        ("lapi", "cmpl", 1, 0): 39, ("lapi", "cmpl", 2, 0): 26,
        ("lapi", "cmpl", 3, 0): 13, ("lapi", "barrier", 2, 0): 39,
        ("lapi", "barrier", 3, 0): 39},
    ("fig3", "mpl", "1d", 2097152): {
        ("mpl", "data", 2, 0): 2, ("mpl", "data", 3, 0): 2,
        ("mpl", "data", 0, 3): 2},
    ("fig3", "mpl", "2d", 2097152): {
        ("mpl", "data", 2, 0): 2, ("mpl", "data", 3, 0): 2,
        ("mpl", "data", 0, 3): 2},
}


def test_quick_ga_sweeps_drop_nothing(monkeypatch):
    clusters = []
    fresh = ga_putget.fresh_cluster

    def recording(*args, **kw):
        clusters.append(fresh(*args, **kw))
        return clusters[-1]

    retransmitted = []
    init = ReliableTransport.__init__

    def hooked(self, *args, **kw):
        init(self, *args, **kw)
        self.on_retransmit = lambda pkt: retransmitted.append(
            (pkt.proto, str(pkt.kind), pkt.src, pkt.dst))

    monkeypatch.setattr(ga_putget, "fresh_cluster", recording)
    monkeypatch.setattr(ReliableTransport, "__init__", hooked)
    residual = {}
    dropped = {}
    for op in ("put", "get"):
        for spec in ga_putget.figure_jobs(op, sizes=QUICK_SIZES):
            del retransmitted[:]
            spec.run()
            dropped[spec.key] = [n.adapter.rx_dropped
                                 for n in clusters[-1].nodes]
            if retransmitted:
                residual[spec.key] = dict(Counter(retransmitted))
    assert len(clusters) == len(dropped) == 32
    assert {key: d for key, d in dropped.items() if any(d)} == {}
    assert not [r for counts in residual.values() for r in counts
                if r[0] == "lapi" and r[1] == PacketKind.DATA]
    assert residual == RESIDUAL
