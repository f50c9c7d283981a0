"""Completion notices coalesce: one CMPL in flight per origin and counter.

GA counts completions with one generalized counter per target, named as
the ``cmpl_cntr`` of every put (section 5.3.2).  The target keeps at
most one unacknowledged CMPL notice per ``(origin, counter id)``: a
completion while that notice is in flight is held, and the notice's
acknowledgement sends one notice carrying every held completion.  An
isolated completion still notifies at once.
"""

from collections import defaultdict

import pytest

from repro.core.constants import PacketKind
from repro.core.dispatcher import Dispatcher
from repro.faults import AckLoss, FaultSchedule, GilbertElliott, NodeCrash
from repro.machine import Cluster
from repro.machine.adapter import Adapter

#: Single-packet puts rank 0 issues back to back.
N = 16
#: Virtual µs rank 0 then keeps its CPU in one burst: its dispatcher
#: cannot run, so no notice is acknowledged until the burst ends.
BUSY = 1500.0


@pytest.fixture
def notices(monkeypatch):
    """Every notice a dispatcher sends (not its retransmissions), as
    ``(sender, origin, counter id, count)``."""
    sent = []
    send = Dispatcher._send_cmpl

    def recording(self, origin, cid, count, span):
        sent.append((self.ctx.rank, origin, cid, count))
        send(self, origin, cid, count, span)

    monkeypatch.setattr(Dispatcher, "_send_cmpl", recording)
    return sent


def _busy_origin(counters, syncs=0):
    """Rank 0 puts ``N`` one-packet messages to rank 1, naming
    ``counters`` cmpl counters in turn, keeps its CPU for ``BUSY`` µs,
    then runs ``syncs`` ``put_sync`` calls and waits for every counter.
    Returns each counter's ``(id, value, total)``."""

    def main(task):
        lapi = task.lapi
        buf = task.memory.malloc(64)
        cmpls = [lapi.counter() for _ in range(counters)]
        yield from lapi.gfence()
        if task.rank == 0:
            for i in range(N):
                yield from lapi.put(1, 64, buf, buf,
                                    cmpl_cntr=cmpls[i % counters])
            yield from task.thread.execute(BUSY)
            for _ in range(syncs):
                yield from lapi.put_sync(1, 64, buf, buf)
            for cmpl in cmpls:
                yield from lapi.waitcntr(cmpl, N // counters)
        yield from lapi.gfence()
        return [(c.id, c.value, c.total) for c in cmpls]

    return main


def _run(main, faults=None, seed=1):
    cluster = Cluster(nnodes=2, seed=seed, faults=faults)
    results = cluster.run_job(main, stacks=("lapi",))
    return cluster, results


def test_back_to_back_puts_send_two_notices(notices):
    _, results = _run(_busy_origin(1))
    ((cid, value, total),) = results[0]
    assert (value, total) == (0, N)
    # The first completion notifies at once; the other N - 1 wait for
    # its acknowledgement and ride one notice.
    assert notices == [(1, 0, cid, 1), (1, 0, cid, N - 1)]


def test_retransmitted_coalesced_notice_counts_once(notices, monkeypatch):
    injected = defaultdict(list)
    inject = Adapter.inject_control

    def recording(self, packet):
        if packet.kind == PacketKind.CMPL:
            injected[packet.uid].append(packet.info["count"])
        inject(self, packet)

    monkeypatch.setattr(Adapter, "inject_control", recording)
    faults = FaultSchedule([GilbertElliott(loss_good=0.2),
                            AckLoss(src=0, dst=1, rate=0.5)])
    # Seed 2: the drawn losses retransmit a notice of ten completions.
    _, results = _run(_busy_origin(1), faults, seed=2)
    ((_, value, total),) = results[0]
    assert (value, total) == (0, N)
    assert sum(count for *_, count in notices) == N
    assert len(notices) < N
    # A notice carrying several completions went out more than once,
    # and the origin's counter still counted it once.
    assert any(len(copies) > 1 and copies[0] > 1
               for copies in injected.values())


def test_two_counters_toward_one_origin_are_held_apart(notices):
    _, results = _run(_busy_origin(2))
    (a, va, ta), (b, vb, tb) = results[0]
    assert (va, ta, vb, tb) == (0, N // 2, 0, N // 2)
    per_counter = defaultdict(list)
    for sender, origin, cid, count in notices:
        assert (sender, origin) == (1, 0)
        per_counter[cid].append(count)
    assert dict(per_counter) == {a: [1, N // 2 - 1], b: [1, N // 2 - 1]}


def test_put_sync_counter_never_gets_a_held_count(notices):
    syncs = 4
    _, results = _run(_busy_origin(1, syncs=syncs))
    ((cid, value, total),) = results[0]
    assert (value, total) == (0, N)
    scoped = [(c, count) for _, _, c, count in notices if c < 0]
    # One notice of one completion per call, each to its own counter:
    # a late held count would name a counter the call has unregistered.
    assert sorted(scoped, reverse=True) == [(-2 - i, 1)
                                            for i in range(syncs)]
    assert sum(count for _, _, c, count in notices if c == cid) == N


def test_held_counts_die_with_their_origin():
    """Rank 0 crashes inside its busy burst, its first notice never
    acknowledged: rank 1's conviction of it drops what rank 1 held."""
    held = {}

    def main(task):
        lapi = task.lapi
        buf = task.memory.malloc(64)
        tgt = lapi.counter()
        cmpl = lapi.counter()
        yield from lapi.gfence()
        if task.rank == 0:
            for _ in range(N):
                yield from lapi.put(1, 64, buf, buf, tgt_cntr=tgt.id,
                                    cmpl_cntr=cmpl)
            yield from task.thread.execute(BUSY)
        else:
            yield from lapi.waitcntr(tgt, N)
            held["before"] = {key: count for key, (count, _)
                              in lapi.ctx.cmpl_held.items()}
            yield from task.thread.sleep(20_000.0)
            held["after"] = dict(lapi.ctx.cmpl_held)
            held["dead"] = set(task.dead_peers)
            # Dropped, not sent into the open breaker.
            held["suppressed"] = lapi.transport.breaker_suppressed
            return cmpl.id

    cluster = Cluster(nnodes=2, seed=1,
                      faults=FaultSchedule([NodeCrash(node=0,
                                                      start=1000.0)]))
    results = cluster.run_job(main, stacks=("lapi",), until=500_000.0,
                              on_peer_failure="continue")
    assert held["before"] == {(0, results[1]): N - 1}
    assert held == {"before": held["before"], "after": {}, "dead": {0},
                    "suppressed": 0}
